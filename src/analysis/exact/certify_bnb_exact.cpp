#include "analysis/exact/certify_bnb_exact.hpp"

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "analysis/certify_bnb.hpp"
#include "analysis/exact/certify_lp_exact.hpp"
#include "analysis/exact/envelope.hpp"
#include "lp/certificate.hpp"
#include "lp/simplex.hpp"
#include "obs/obs.hpp"

namespace nd::analysis {

namespace {

std::string fmt(double v) {                                           // rat-io
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", v);                         // rat-io
  return buf;
}

/// Loads node domains into one scratch problem (what exact bounding reads)
/// and re-solves node LPs over them with one engine reused across nodes, so
/// the shared deadline and counters carry over. Re-solves are always cold —
/// see resolve() for why warm starts are wrong here.
class NodeResolver {
 public:
  NodeResolver(const milp::Model& model, std::chrono::steady_clock::time_point deadline)
      : scratch_(model.lp()), eng_(model.lp()) {
    eng_.set_deadline(deadline);
  }

  /// The LP of the node last loaded — what exact bounding reads.
  [[nodiscard]] const lp::Problem& problem() const { return scratch_; }

  void load(const std::vector<std::pair<double, double>>& dom) {
    for (std::size_t j = 0; j < dom.size(); ++j) {
      scratch_.set_var_bounds(static_cast<int>(j), dom[j].first, dom[j].second);
    }
  }

  /// Re-solves the loaded node LP.
  lp::SolveStatus resolve() {
    for (int j = 0; j < scratch_.num_vars(); ++j) {
      eng_.set_bound(j, scratch_.lo(j), scratch_.hi(j));
    }
    // Always solve from scratch. Unlike the branch-and-bound itself, the
    // replay visits nodes in LOG order, so consecutive domains differ in many
    // bounds at once: a warm dual re-solve from the previous node's basis is
    // routinely orders of magnitude SLOWER than a cold solve here, and a
    // drifted warm factorization is exactly the failure mode this prover
    // exists to distrust (it produced both false node bounds and false
    // infeasibility verdicts in the engine before the cold-confirm fixes).
    return eng_.solve();
  }

  /// The re-solve's proof vector: duals after kOptimal, Farkas ray after
  /// kInfeasible.
  [[nodiscard]] std::vector<double> proof_vector() const { return eng_.proof_vector(); }

 private:
  lp::Problem scratch_;
  lp::Simplex eng_;
};

/// A recorded AuditNode::proof as a dense row vector [m]. False, with `why`
/// set, when it is malformed: a row out of range, a repeated row, or a
/// non-finite value.
bool dense_proof(const milp::ProofVector& rec, std::size_t m, std::vector<double>* y,
                 std::string* why) {
  y->assign(m, 0.0);
  std::vector<char> seen(m, 0);
  for (const auto& [row, val] : rec) {
    if (row < 0 || static_cast<std::size_t>(row) >= m) {
      *why = "row " + std::to_string(row) + " is out of range";
      return false;
    }
    const auto r = static_cast<std::size_t>(row);
    if (seen[r] != 0) {
      *why = "row " + std::to_string(row) + " is repeated";
      return false;
    }
    if (!std::isfinite(val)) {
      *why = "row " + std::to_string(row) + " has a non-finite value";
      return false;
    }
    seen[r] = 1;
    (*y)[r] = val;
  }
  return true;
}

}  // namespace

namespace {

/// Wall time of the replay's two halves, emitted once per certify_bnb_exact
/// call as exact.time.root_ns and exact.time.nodes_ns.
struct ReplayTimes {
  std::int64_t root_ns = 0;
  std::int64_t nodes_ns = 0;
};

/// The exact proofs, against the model the tree actually searched (the
/// original model, or the presolve-reduced one), once the tree pass has
/// accepted the log's structure.
ExactBnbOutcome certify_bnb_exact_tree(const milp::Model& model, const milp::AuditLog& log,
                                       const CertifyBnbExactOptions& opt, ReplayTimes* times) {
  ExactBnbOutcome out;
  Report& rep = out.report;

  const std::size_t n = static_cast<std::size_t>(model.num_vars());
  const std::size_t m = static_cast<std::size_t>(model.lp().num_rows());

  // ---- Root: full exact certificate re-check.
  const std::int64_t root_start = obs::now_ns();
  ExactLpOutcome root = certify_lp_exact(model.lp(), log.root_cert);
  times->root_ns = obs::now_ns() - root_start;
  rep.merge(root.report);

  const bool have_final =
      log.status == milp::MipStatus::kOptimal || log.status == milp::MipStatus::kFeasible;
  if (log.root_cert.status == lp::SolveStatus::kInfeasible) {
    // Root-infeasible claim: certify_lp_exact already judged the Farkas ray;
    // there is nothing bound-shaped left to re-prove, and no solution can
    // exist.
    if (!root.farkas_proved) {
      rep.add(Severity::kError, codes::kBnbExactRoot, "root",
              "root infeasibility claim lacks an exact Farkas proof");
    } else if (have_final) {
      rep.add(Severity::kError, codes::kBnbExactRoot, "root",
              std::string("the root LP is exactly infeasible, but the audit claims '") +
                  milp::to_string(log.status) + "'");
    }
    return out;
  }

  if (root.basis_solved) {
    const Rat claimed(log.root_bound);
    const Rat env = claim_envelope(n + m, Rat(1) + claimed.abs());
    if ((root.exact_objective - claimed).abs() > env) {
      rep.add(Severity::kError, codes::kBnbExactRoot, "root",
              "recorded root bound " + fmt(log.root_bound) + " vs exact basis objective " +
                  rat_str(root.exact_objective) + " differs beyond the envelope");
    }
  }

  // ---- Final cutoff, exactly. A prune is legal iff the node cannot hold a
  // solution better than obj − gap; the envelope absorbs only the float
  // rounding of the RECORDED obj/gap, never a tunable slack.
  Rat cutoff;
  Rat prune_env;
  if (have_final) {
    const Rat obj(log.obj);
    cutoff = obj - Rat::max(Rat(log.abs_gap), Rat(log.rel_gap) * obj.abs());
    prune_env = claim_envelope(n + m, Rat(1) + cutoff.abs());
  }

  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(opt.lp_time_limit_s));
  NodeResolver solver(model, deadline);
  bool out_of_time = false;

  // A failed prune re-proof refutes a PROVED status — a better solution, or
  // any solution, may have been cut off — but not feasibility: under a
  // kFeasible claim the returned incumbent and its recorded best bound still
  // stand on their own, so the same defect degrades to a warning there.
  const Severity prune_sev = log.status == milp::MipStatus::kOptimal ||
                                     log.status == milp::MipStatus::kInfeasible
                                 ? Severity::kError
                                 : Severity::kWarning;

  // One diagnostic a node evaluation wants to emit; verdicts are gathered
  // per node and applied in one place below.
  struct Finding {
    Severity sev;
    const char* code;
    std::string msg;
  };
  struct Verdict {
    int reproved = 0;
    bool inconclusive = false;
    std::vector<Finding> finds;
  };

  // Densifies node `id`'s recorded proof vector into `y`. False when it has
  // none or it is malformed; a malformed one is reported once, on its own
  // node, and then treated as absent.
  std::vector<char> malformed(log.nodes.size(), 0);
  const auto recorded = [&](int id, std::vector<double>* y) {
    const auto idu = static_cast<std::size_t>(id);
    if (!log.nodes[idu].proof || malformed[idu] != 0) return false;
    std::string why;
    if (dense_proof(*log.nodes[idu].proof, m, y, &why)) return true;
    malformed[idu] = 1;
    rep.add(Severity::kWarning, codes::kBnbExactResolve, "node" + std::to_string(id),
            "recorded proof vector ignored (" + why + "); its LP is re-solved instead");
    return false;
  };
  std::vector<double> rec_y;

  const std::int64_t nodes_start = obs::now_ns();
  for (const milp::AuditNode& nd : log.nodes) {
    const bool needs_lp = nd.disp == milp::NodeDisp::kPrunedBound ||
                          nd.disp == milp::NodeDisp::kSkippedParentBound ||
                          nd.disp == milp::NodeDisp::kCompletionClosed ||
                          nd.disp == milp::NodeDisp::kPrunedInfeasible;
    if (!needs_lp) continue;
    if (out_of_time || std::chrono::steady_clock::now() >= deadline) {
      if (!out_of_time) {
        out_of_time = true;
        rep.add(Severity::kWarning, codes::kBnbExactResolve, "tree",
                "LP re-solve budget exhausted at node " + std::to_string(nd.id) +
                    "; remaining prunes stand unproved");
      }
      ++out.resolves_failed;
      continue;
    }

    const std::string subject = "node" + std::to_string(nd.id);
    if (nd.disp == milp::NodeDisp::kCompletionClosed && !nd.has_completion) {
      rep.add(Severity::kError, codes::kBnbExactPrune, subject,
              "completion-closed node carries no completion objective");
      continue;
    }

    // A skipped sibling was never solved — its prune leans on the PARENT's
    // bound, so that is the LP to re-prove.
    const int dom_node = nd.disp == milp::NodeDisp::kSkippedParentBound ? nd.parent : nd.id;
    solver.load(milp::node_domain(model, log, dom_node));

    // Judges the loaded node LP from one proof vector `y`: duals when `st`
    // is kOptimal, a Farkas ray when it is kInfeasible.
    const auto evaluate = [&](lp::SolveStatus st, const std::vector<double>& y) {
      Verdict v;
      const auto fail = [&](std::string what) {
        v.inconclusive = true;
        v.finds.push_back({Severity::kWarning, codes::kBnbExactResolve,
                           std::move(what) + " — the prune stands unproved, not refuted"});
      };
      if (st == lp::SolveStatus::kInfeasible) {
        // Any disposition is justified by exact infeasibility of the node LP
        // — an infeasible node holds no solution at all.
        std::string why;
        if (exact_farkas_proves(solver.problem(), y, &why)) {
          ++v.reproved;
          if (nd.disp != milp::NodeDisp::kPrunedInfeasible) {
            v.finds.push_back({Severity::kInfo, codes::kBnbExactNode,
                               "re-solve found the node LP infeasible; prune holds a fortiori"});
          }
        } else {
          fail("re-solved infeasible but the Farkas ray failed exactly: " + why);
        }
        return v;
      }
      if (st != lp::SolveStatus::kOptimal) {
        fail("node LP re-solve hit a limit");
        return v;
      }

      // Turn the duals into an exact lower bound on the node LP.
      Rat z;
      if (!exact_safe_dual_bound(solver.problem(), y, &z)) {
        fail("no exact safe bound (reduced cost meets an infinite bound)");
        return v;
      }

      if (nd.disp == milp::NodeDisp::kPrunedInfeasible) {
        // Claimed infeasible, re-solved feasible. The prune is still sound
        // when the exact bound clears the cutoff; the contradiction itself is
        // worth a warning either way.
        if (have_final && z >= cutoff - prune_env) {
          ++v.reproved;
          v.finds.push_back({Severity::kWarning, codes::kBnbExactResolve,
                             "recorded infeasible but re-solves feasible; exact bound " +
                                 rat_str(z) + " still clears the cutoff"});
        } else {
          v.finds.push_back(
              {prune_sev, codes::kBnbExactPrune,
               "recorded infeasible but the node LP re-solves feasible with bound " + rat_str(z) +
                   (have_final ? " below the cutoff " + rat_str(cutoff) : "")});
        }
        return v;
      }

      if (nd.disp == milp::NodeDisp::kCompletionClosed) {
        const Rat cobj(nd.completion_obj);
        const Rat gap = Rat::max(Rat(log.abs_gap), Rat(log.rel_gap) * cobj.abs());
        const Rat env = claim_envelope(n + m, Rat(1) + cobj.abs());
        if (cobj <= z + gap + env) {
          ++v.reproved;
        } else {
          v.finds.push_back({prune_sev, codes::kBnbExactPrune,
                             "completion " + fmt(nd.completion_obj) +
                                 " exceeds the exact node bound " + rat_str(z) +
                                 " by more than gap + envelope — the close was not legal"});
        }
        return v;
      }

      // kPrunedBound / kSkippedParentBound: the exact bound must clear the
      // final cutoff. With no incumbent ever claimed there is nothing exact
      // to add (the tree pass flags bound prunes under an infinite cutoff).
      if (!have_final) return v;
      if (z >= cutoff - prune_env) {
        ++v.reproved;
      } else {
        v.finds.push_back({prune_sev, codes::kBnbExactPrune,
                           "exact node bound " + rat_str(z) +
                               " does not clear the final cutoff " + rat_str(cutoff) +
                               " — the prune may have cut off a better solution"});
      }
      return v;
    };

    // The vector the driver recorded for this LP first: keep its verdict
    // only when it re-proves the disposition with nothing to report.
    // Anything else — no vector, a malformed one, a bound that falls short —
    // is decided by a cold re-solve, so every prune diagnostic comes from
    // that path. The exact bound and the Farkas check are sound for any vector,
    // so a recorded one can save a re-solve but cannot pass an unsound
    // prune.
    Verdict v;
    bool proved_from_record = false;
    if (recorded(dom_node, &rec_y)) {
      const lp::SolveStatus rec_st = log.nodes[static_cast<std::size_t>(dom_node)].lp_solved
                                         ? lp::SolveStatus::kOptimal
                                         : lp::SolveStatus::kInfeasible;
      v = evaluate(rec_st, rec_y);
      proved_from_record = v.reproved > 0 && !v.inconclusive && v.finds.empty();
    }
    if (proved_from_record) {
      out.reproved_from_vectors += v.reproved;
    } else {
      ++out.resolves;
      const lp::SolveStatus st = solver.resolve();
      v = evaluate(st, solver.proof_vector());
    }
    if (v.reproved > 0) {
      out.bounds_reproved += v.reproved;
      ND_OBS_COUNT("exact.bnb_bounds_reproved", v.reproved);
    }
    if (v.inconclusive) ++out.resolves_failed;
    for (Finding& f : v.finds) rep.add(f.sev, f.code, subject, std::move(f.msg));
  }
  times->nodes_ns = obs::now_ns() - nodes_start;

  // ---- Root reduced-cost fixings against the exact root bound and the
  // reduced costs of the same sign-feasible duals: every point off a fixing
  // costs at least the bound plus that variable's push.
  if (!log.root_fixings.empty()) {
    if (!log.warm_accepted || !root.has_proved_bound) {
      rep.add(Severity::kError, codes::kBnbExactFixing, "root",
              "fixings present but no exact root bound/incumbent to justify them");
    } else {
      const Rat warm(log.warm_obj);
      const Rat slack = warm - root.proved_bound;
      const Rat env = claim_envelope(n + m, Rat(1) + warm.abs());
      for (const milp::RootFixing& f : log.root_fixings) {
        const std::string subject = "var" + std::to_string(f.var);
        if (f.var < 0 || static_cast<std::size_t>(f.var) >= n || f.lo != f.hi) {  // fp-exact: interval must be a point
          rep.add(Severity::kError, codes::kBnbExactFixing, subject, "malformed fixing");
          continue;
        }
        const double expected =
            f.at_lower ? model.lp().lo(f.var) : model.lp().hi(f.var);
        if (Rat(f.lo) != Rat(expected)) {
          rep.add(Severity::kError, codes::kBnbExactFixing, subject,
                  "fixing " + fmt(f.lo) + " is not the model bound " + fmt(expected));
          continue;
        }
        const Rat& d = root.proved_d[static_cast<std::size_t>(f.var)];
        const Rat push = f.at_lower ? d : -d;
        if (push >= slack) {
          continue;  // exactly justified
        }
        const Rat shortfall = slack - push;
        if (shortfall <= env) {
          rep.add(Severity::kWarning, codes::kBnbExactFixing, subject,
                  "fixing justified only up to the float envelope (shortfall " +
                      rat_str(shortfall) + ")");
        } else {
          rep.add(Severity::kError, codes::kBnbExactFixing, subject,
                  "exact reduced-cost push " + rat_str(push) +
                      " does not cover the incumbent slack " + rat_str(slack));
        }
      }
    }
  }

  // ---- Final claims: exact objective of the returned point, bound sanity.
  if (have_final && log.x.size() == n) {
    Rat ex_obj;
    for (std::size_t j = 0; j < n; ++j) {
      ex_obj += Rat(model.lp().obj(static_cast<int>(j))) * Rat(log.x[j]);
    }
    const Rat claimed(log.obj);
    const Rat env = claim_envelope(n, Rat(1) + claimed.abs());
    if ((ex_obj - claimed).abs() > env) {
      rep.add(Severity::kError, codes::kBnbExactObjective, "result",
              "claimed objective " + fmt(log.obj) + " vs exact c^T x " + rat_str(ex_obj) +
                  " differs beyond the envelope");
    }
    if (Rat(log.best_bound) > claimed + env) {
      rep.add(Severity::kError, codes::kBnbExactObjective, "result",
              "best bound " + fmt(log.best_bound) + " exceeds the claimed objective " +
                  fmt(log.obj));
    }
  }

  ND_OBS_COUNT("exact.bnb_resolves", out.resolves);
  rep.add(Severity::kInfo, codes::kBnbExactNode, "tree",
          std::to_string(out.bounds_reproved) + " re-proved: " +
              std::to_string(out.reproved_from_vectors) + " from recorded vectors, " +
              std::to_string(out.bounds_reproved - out.reproved_from_vectors) +
              " after a cold re-solve; " + std::to_string(out.resolves_failed) +
              " re-solve(s) inconclusive");
  return out;
}

}  // namespace

ExactBnbOutcome certify_bnb_exact(const milp::Model& model, const milp::AuditLog& log,
                                  const CertifyBnbExactOptions& opt) {
  Report rep;
  const SearchedModel searched = searched_model(model, log, opt.formulation, rep);
  ReplayTimes times;
  ExactBnbOutcome out;
  if (searched.get() != nullptr && certify_bnb_tree(*searched.get(), log, rep)) {
    out = certify_bnb_exact_tree(*searched.get(), log, opt, &times);
  }
  rep.merge(out.report);
  out.report = std::move(rep);
  ND_OBS_COUNT("exact.time.root_ns", times.root_ns);
  ND_OBS_COUNT("exact.time.nodes_ns", times.nodes_ns);
  return out;
}

}  // namespace nd::analysis
