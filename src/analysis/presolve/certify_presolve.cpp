#include "analysis/presolve/certify_presolve.hpp"

#include <cmath>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "analysis/exact/rat.hpp"
#include "analysis/presolve/instance_presolve.hpp"

namespace nd::analysis {
namespace {

using lp::Reduction;
using lp::ReductionKind;
using lp::ReductionTag;
using lp::Sense;

struct Ctx {
  const lp::Problem& p;
  const std::vector<char>& integer;
  const CertifyPresolveOptions& opt;
  const lp::ReductionReplay& st;
};

bool is_int_col(const Ctx& cx, int j) {
  return j >= 0 && j < static_cast<int>(cx.integer.size()) &&
         cx.integer[static_cast<std::size_t>(j)] != 0;
}

std::string vname(const lp::Problem& p, int j) {
  if (j < 0 || j >= p.num_vars()) return "x?" + std::to_string(j);
  const std::string& n = p.name(j);
  return n.empty() ? "x" + std::to_string(j) : n;
}

/// Activity of a LE-form row (original coefficients times `sign`) over the
/// replay boxes, excluding column `skip`, summed exactly: `want_max` selects
/// the maximum activity, else the minimum. Returns false when an infinite
/// bound makes the activity unbounded (nothing is provable from this form
/// then).
bool rest_activity(const Ctx& cx, const lp::Row& w, double sign, int skip, bool want_max,
                   Rat* value) {
  Dyadic sum;
  for (const auto& [j, a0] : w.coef) {
    if (j == skip) continue;
    const double a = sign * a0;  // sign is ±1: exact
    const double b = (a > 0.0) == want_max ? cx.st.hi(j) : cx.st.lo(j);
    if (!std::isfinite(b)) return false;
    sum.add_product(a, Dyadic(b));
  }
  *value = sum.to_rat();
  return true;
}

// ---------------------------------------------------------------------------
// kTightenLo / kTightenHi, tag kActivity.
// ---------------------------------------------------------------------------

std::string check_bound(const Ctx& cx, const Reduction& rc) {
  if (rc.tag != ReductionTag::kActivity) {
    return "bound records must carry the activity tag";
  }
  if (rc.var < 0 || rc.var >= cx.p.num_vars()) return "variable index outside the problem";
  if (!std::isfinite(rc.value)) return "claimed bound is not finite";
  if (rc.row < 0 || rc.row >= cx.p.num_rows()) return "justifying row index outside the problem";
  if (cx.st.row_dropped(rc.row)) return "justifying row was dropped by an earlier record";
  const lp::Row w = cx.st.row(rc.row);
  const bool tighten_hi = rc.kind == ReductionKind::kTightenHi;
  const bool integral = is_int_col(cx, rc.var);
  const double v = rc.value;
  std::vector<double> signs;
  if (w.sense == Sense::LE) signs = {1.0};
  else if (w.sense == Sense::GE) signs = {-1.0};
  else signs = {1.0, -1.0};
  std::string last = "the justifying row does not imply the claimed bound";
  for (const double sign : signs) {
    double c = 0.0;
    bool found = false;
    for (const auto& [j, a0] : w.coef) {
      if (j == rc.var) {
        c = sign * a0;
        found = true;
        break;
      }
    }
    if (!found || c == 0.0) {  // fp-exact: structural presence test
      last = "the justifying row does not contain the bounded variable";
      continue;
    }
    // A hi-bound needs a positive pivot in LE form; a lo-bound a negative one.
    if (tighten_hi != (c > 0.0)) {
      last = "the pivot coefficient has the wrong sign for this bound direction";
      continue;
    }
    Rat rest;
    if (!rest_activity(cx, w, sign, rc.var, /*want_max=*/false, &rest)) {
      last = "an unbounded companion column leaves the row activity infinite";
      continue;
    }
    // c = sign * a0 with sign = ±1, so Rat(c) is the exact pivot.
    const Rat implied = (Rat(sign * w.rhs) - rest) / Rat(c);
    bool ok;
    if (tighten_hi) {
      ok = integral ? implied < Rat(std::floor(v)) + Rat(1.0) : Rat(v) >= implied;
    } else {
      ok = integral ? implied > Rat(std::ceil(v)) - Rat(1.0) : Rat(v) <= implied;
    }
    if (!ok) {
      last = std::string("the row implies ") + (tighten_hi ? "hi" : "lo") + " = " +
             rat_str(implied) + ", weaker than the claimed " + std::to_string(v);
      continue;
    }
    return {};
  }
  return last;
}

// ---------------------------------------------------------------------------
// kFixVar, tags kActivity / kEmptyColumn.
// ---------------------------------------------------------------------------

std::string check_fix_activity(const Ctx& cx, const Reduction& rc) {
  if (rc.var < 0 || rc.var >= cx.p.num_vars()) return "variable index outside the problem";
  if (!std::isfinite(rc.value)) return "fix value is not finite";
  // An activity fix only FORMALISES a box the preceding bound records
  // already closed; it is not allowed to invent a value of its own.
  if (cx.st.lo(rc.var) != cx.st.hi(rc.var)) {  // fp-exact: closed box required
    return "the box of the variable is not closed at this point in the log";
  }
  if (rc.value != cx.st.lo(rc.var)) {  // fp-exact: pinned values are copied
    return "fix value differs from the closed box";
  }
  return {};
}

std::string check_fix_empty(const Ctx& cx, const Reduction& rc) {
  if (rc.var < 0 || rc.var >= cx.p.num_vars()) return "variable index outside the problem";
  if (!std::isfinite(rc.value)) return "fix value is not finite";
  for (int r = 0; r < cx.p.num_rows(); ++r) {
    if (cx.st.row_dropped(r)) continue;
    const lp::Row w = cx.st.row(r);
    for (const auto& [j, a] : w.coef) {
      if (j == rc.var && a != 0.0) {  // fp-exact: structural presence test
        return "the column still appears in surviving row " + std::to_string(r);
      }
    }
  }
  const double obj = cx.p.obj(rc.var);
  const double l = cx.st.lo(rc.var), h = cx.st.hi(rc.var);
  double want;
  if (obj > 0.0) {
    want = l;
  } else if (obj < 0.0) {
    want = h;
  } else {
    want = std::isfinite(l) ? l : h;
  }
  if (!std::isfinite(want)) {
    return "the objective-preferred bound of the empty column is not finite";
  }
  if (rc.value != want) {  // fp-exact: the preferred bound is copied verbatim
    return "fix value is not the objective-preferred bound of the column";
  }
  return {};
}

// ---------------------------------------------------------------------------
// kDropRow.
// ---------------------------------------------------------------------------

std::string check_drop_row(const Ctx& cx, const Reduction& rc) {
  if (rc.tag != ReductionTag::kActivity) {
    return "drop-row records must carry the activity tag";
  }
  if (rc.row < 0 || rc.row >= cx.p.num_rows()) return "row index outside the problem";
  if (cx.st.row_dropped(rc.row)) return "row was already dropped";
  const lp::Row w = cx.st.row(rc.row);
  if (w.sense == Sense::EQ) {
    return "equality rows are never provably redundant from activity bounds";
  }
  const double sign = w.sense == Sense::LE ? 1.0 : -1.0;
  Rat act;
  if (!rest_activity(cx, w, sign, /*skip=*/-1, /*want_max=*/true, &act)) {
    return "an unbounded column leaves the row activity infinite";
  }
  if (act > Rat(sign * w.rhs)) {
    return "the maximum activity " + rat_str(Rat(sign) * act) +
           " does not prove the row redundant";
  }
  return {};
}

// ---------------------------------------------------------------------------
// kTightenCoef (Savelsbergh tightening on a binary column of a LE row).
// ---------------------------------------------------------------------------

std::string check_tighten_coef(const Ctx& cx, const Reduction& rc) {
  if (rc.tag != ReductionTag::kActivity) {
    return "tighten-coef records must carry the activity tag";
  }
  if (rc.row < 0 || rc.row >= cx.p.num_rows()) return "row index outside the problem";
  if (cx.st.row_dropped(rc.row)) return "row was dropped by an earlier record";
  if (rc.var < 0 || rc.var >= cx.p.num_vars()) return "variable index outside the problem";
  if (!std::isfinite(rc.coef) || !std::isfinite(rc.rhs)) {
    return "tightened coefficient / rhs is not finite";
  }
  const lp::Row w = cx.st.row(rc.row);
  if (w.sense != Sense::LE) return "coefficient tightening applies to LE rows only";
  if (!is_int_col(cx, rc.var) || cx.st.lo(rc.var) < 0.0 || cx.st.hi(rc.var) > 1.0) {
    return "coefficient tightening applies to binary columns only";
  }
  double c = 0.0;
  bool found = false;
  for (const auto& [j, a] : w.coef) {
    if (j == rc.var) {
      c = a;
      found = true;
      break;
    }
  }
  if (!found || c == 0.0) {  // fp-exact: structural presence test
    return "the row does not contain the tightened variable";
  }
  Rat rest;
  if (!rest_activity(cx, w, 1.0, rc.var, /*want_max=*/true, &rest)) {
    return "an unbounded companion column leaves the row activity infinite";
  }
  if (c > 0.0) {
    if (!(rc.coef >= 0.0 && rc.coef < c)) {
      return "a positive coefficient may only shrink toward zero";
    }
    // The rhs moves by EXACTLY the coefficient's change, so no slack enters
    // the row.
    if (Rat(rc.rhs) != Rat(w.rhs) - (Rat(c) - Rat(rc.coef))) {
      return "rhs update is not exactly rhs - (old coef - new coef)";
    }
    if (rest > Rat(rc.rhs)) {
      return "the x=0 case is not implied: residual activity exceeds the new rhs";
    }
  } else {
    if (rc.rhs != w.rhs) {  // fp-exact: negative tightening keeps the rhs
      return "a negative-coefficient tightening must keep the rhs";
    }
    if (!(rc.coef > c && rc.coef <= 0.0)) {
      return "a negative coefficient may only grow toward zero";
    }
    if (rest > Rat(w.rhs) - Rat(rc.coef)) {
      return "the x=1 case is not implied: residual activity exceeds rhs - new coef";
    }
  }
  return {};
}

// ---------------------------------------------------------------------------
// Dispatcher: (code, why) per record.
// ---------------------------------------------------------------------------

std::pair<const char*, std::string> check_record(const Ctx& cx, const Reduction& rc) {
  const bool instance_tag = rc.tag == ReductionTag::kDominance ||
                            rc.tag == ReductionTag::kOrbit || rc.tag == ReductionTag::kTwin;
  if (instance_tag) {
    const char* code = rc.tag == ReductionTag::kDominance ? codes::kPresolveBadDominance
                       : rc.tag == ReductionTag::kOrbit   ? codes::kPresolveBadOrbit
                                                          : codes::kPresolveBadTwin;
    if (cx.opt.formulation == nullptr) {
      return {codes::kPresolveNeedsInstance,
              "instance-tagged record needs the deployment formulation to re-prove"};
    }
    if (cx.opt.formulation->model().num_vars() != cx.p.num_vars() ||
        cx.opt.formulation->model().num_rows() != cx.p.num_rows()) {
      return {codes::kPresolveShape, "the formulation does not match the certified problem"};
    }
    std::string why = check_instance_record(*cx.opt.formulation, cx.st, rc);
    if (!why.empty()) return {code, std::move(why)};
    return {nullptr, {}};
  }
  switch (rc.kind) {
    case ReductionKind::kTightenLo:
    case ReductionKind::kTightenHi: {
      std::string why = check_bound(cx, rc);
      if (!why.empty()) return {codes::kPresolveBadBound, std::move(why)};
      return {nullptr, {}};
    }
    case ReductionKind::kFixVar: {
      std::string why = rc.tag == ReductionTag::kActivity ? check_fix_activity(cx, rc)
                        : rc.tag == ReductionTag::kEmptyColumn
                            ? check_fix_empty(cx, rc)
                            : "fix record carries an unknown tag";
      if (!why.empty()) return {codes::kPresolveBadFix, std::move(why)};
      return {nullptr, {}};
    }
    case ReductionKind::kDropRow: {
      std::string why = check_drop_row(cx, rc);
      if (!why.empty()) return {codes::kPresolveBadRowDrop, std::move(why)};
      return {nullptr, {}};
    }
    case ReductionKind::kTightenCoef: {
      std::string why = check_tighten_coef(cx, rc);
      if (!why.empty()) return {codes::kPresolveBadCoef, std::move(why)};
      return {nullptr, {}};
    }
  }
  return {codes::kPresolveShape, "record has an unknown kind"};
}

std::string record_subject(const lp::Problem& p, const Reduction& rc, std::size_t idx) {
  std::string s = "#" + std::to_string(idx) + " " + std::string(lp::to_string(rc.kind)) + "/" +
                  std::string(lp::to_string(rc.tag));
  if (rc.kind == ReductionKind::kDropRow) return s + " row " + std::to_string(rc.row);
  return s + " " + vname(p, rc.var);
}

}  // namespace

Report certify_presolve(const lp::Problem& p, const std::vector<char>& integer,
                        const lp::ReductionLog& log, const CertifyPresolveOptions& opt) {
  Report rep;
  if (!integer.empty() && static_cast<int>(integer.size()) != p.num_vars()) {
    rep.add(Severity::kError, codes::kPresolveShape, "integrality",
            "integer-mark vector does not match the number of variables");
    return rep;
  }
  if (opt.formulation != nullptr && log.canonical_hash != 0) {
    const std::uint64_t want = canonical_instance_hash(*opt.formulation);
    if (want != log.canonical_hash) {
      rep.add(Severity::kError, codes::kPresolveHash, "canonical-hash",
              "the log's canonical instance hash does not match the instance");
    }
  }
  lp::ReductionReplay st(p);
  const Ctx cx{p, integer, opt, st};
  for (std::size_t i = 0; i < log.reductions.size(); ++i) {
    const Reduction& rc = log.reductions[i];
    const auto [code, why] = check_record(cx, rc);
    if (code != nullptr) {
      rep.add(Severity::kError, code, record_subject(p, rc, i), why);
    }
    if (!st.apply(rc)) {
      if (code == nullptr) {
        // A record the certifier re-proved crossed the box when applied:
        // that is an honest PROOF that the instance is infeasible (e.g. a
        // valid dominance fix against an implied lower bound of 1).
        rep.add(Severity::kInfo, codes::kPresolveInfeasible, record_subject(p, rc, i),
                "applying a proved record is contradictory (" + st.why() +
                    "); the log is an infeasibility proof");
        if (i + 1 < log.reductions.size()) {
          rep.add(Severity::kInfo, codes::kPresolveNote, "log",
                  std::to_string(log.reductions.size() - i - 1) +
                      " trailing record(s) unreachable past the contradiction");
        }
      } else {
        rep.add(Severity::kError, codes::kPresolveShape, record_subject(p, rc, i),
                "replay stopped on a rejected record: " + st.why());
      }
      break;
    }
  }
  return rep;
}

Report certify_presolve(const milp::Model& m, const lp::ReductionLog& log,
                        const CertifyPresolveOptions& opt) {
  std::vector<char> integer(static_cast<std::size_t>(m.num_vars()), 0);
  for (int j = 0; j < m.num_vars(); ++j) {
    integer[static_cast<std::size_t>(j)] = m.is_integer(j) ? 1 : 0;
  }
  return certify_presolve(m.lp(), integer, log, opt);
}

}  // namespace nd::analysis
