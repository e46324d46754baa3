#include "analysis/certify_bnb.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "analysis/presolve/certify_presolve.hpp"
#include "lp/presolve.hpp"
#include "milp/presolve.hpp"

namespace nd::analysis {

namespace {

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

std::string node_name(int id) { return "node" + std::to_string(id); }

bool has_proved_status(const milp::AuditLog& log) {
  return log.status == milp::MipStatus::kOptimal || log.status == milp::MipStatus::kInfeasible;
}

/// Relative tolerance for comparing the recorded floats with each other.
constexpr double kTol = 1e-6;

/// False for an interval lp::Problem::set_var_bounds refuses: inverted (or
/// NaN), or with no finite end.
bool loadable(double lo, double hi) {
  return lo <= hi && (std::isfinite(lo) || std::isfinite(hi));
}

}  // namespace

bool certify_bnb_tree(const milp::Model& model, const milp::AuditLog& log, Report& rep) {
  const auto& nodes = log.nodes;
  const int num_nodes = static_cast<int>(nodes.size());

  if (num_nodes == 0) {
    rep.add(Severity::kError, codes::kBnbStructure, "tree", "audit log has no nodes");
    return false;
  }

  // ---- Structure: creation order, parent links, intervals a node LP can
  // load (milp::node_domain loads branch intervals and root fixings alike).
  // Any defect here makes the remaining checks meaningless, so bail out
  // early.
  std::vector<std::vector<int>> kids(static_cast<std::size_t>(num_nodes));
  for (int i = 0; i < num_nodes; ++i) {
    const milp::AuditNode& n = nodes[static_cast<std::size_t>(i)];
    if (n.id != i) {
      rep.add(Severity::kError, codes::kBnbStructure, node_name(i),
              "id " + std::to_string(n.id) + " out of creation order");
      return false;
    }
    if (i == 0) {
      if (n.parent != -1 || n.var != -1) {
        rep.add(Severity::kError, codes::kBnbStructure, node_name(i),
                "root must have parent -1 and no creation bound");
        return false;
      }
      continue;
    }
    if (n.parent < 0 || n.parent >= i || n.var < 0 || n.var >= model.num_vars() ||
        !loadable(n.lo, n.hi)) {
      rep.add(Severity::kError, codes::kBnbStructure, node_name(i),
              "bad parent/var/interval (parent " + std::to_string(n.parent) + ", var " +
                  std::to_string(n.var) + ", [" + fmt(n.lo) + ", " + fmt(n.hi) + "])");
      return false;
    }
    kids[static_cast<std::size_t>(n.parent)].push_back(i);
  }
  bool fixings_ok = true;
  for (const milp::RootFixing& f : log.root_fixings) {
    if (f.var < 0 || f.var >= model.num_vars() || loadable(f.lo, f.hi)) continue;
    rep.add(Severity::kError, codes::kBnbStructure, "var" + std::to_string(f.var),
            "root fixing [" + fmt(f.lo) + ", " + fmt(f.hi) +
                "] is inverted or has no finite end");
    fixings_ok = false;
  }
  if (!fixings_ok) return false;

  // ---- Final cutoff. Every recorded prune used the incumbent of its moment;
  // incumbents only improve, so the cutoff only tightens downward — a prune is
  // legal iff it clears the cutoff of the FINAL incumbent.
  const bool have_final = log.status == milp::MipStatus::kOptimal ||
                          log.status == milp::MipStatus::kFeasible;
  const double final_cutoff =
      have_final ? log.obj - std::max(log.abs_gap, log.rel_gap * std::abs(log.obj))
                 : std::numeric_limits<double>::infinity();
  const auto clears_cutoff = [&](double bound) {
    return bound >= final_cutoff - kTol * (1.0 + std::abs(final_cutoff));
  };

  // ---- Per-node dispositions + incumbent trajectory.
  double incumbent =
      log.warm_accepted ? log.warm_obj : std::numeric_limits<double>::infinity();
  for (int i = 0; i < num_nodes; ++i) {
    const milp::AuditNode& n = nodes[static_cast<std::size_t>(i)];
    const std::size_t iu = static_cast<std::size_t>(i);
    const double eps_b = kTol * (1.0 + std::abs(n.bound));

    if (n.lp_solved && n.parent >= 0) {
      const milp::AuditNode& p = nodes[static_cast<std::size_t>(n.parent)];
      if (p.lp_solved && n.bound < p.bound - kTol * (1.0 + std::abs(p.bound))) {
        rep.add(Severity::kError, codes::kBnbBoundRegression, node_name(i),
                "bound " + fmt(n.bound) + " beats parent " + node_name(n.parent) + "'s " +
                    fmt(p.bound) + " on a restricted domain");
      }
    }

    switch (n.disp) {
      case milp::NodeDisp::kBranched: {
        if (n.branch_var < 0 || n.branch_var >= model.num_vars() ||
            !model.is_integer(n.branch_var)) {
          rep.add(Severity::kError, codes::kBnbStructure, node_name(i),
                  "branched on an invalid or continuous variable " +
                      std::to_string(n.branch_var));
        }
        // A limit-terminated run may leave pending siblings unspawned, so a
        // single child is legal there; a PROVED status requires both.
        const std::size_t min_kids = has_proved_status(log) ? 2 : 1;
        if (kids[iu].size() < min_kids || kids[iu].size() > 2) {
          rep.add(Severity::kError, codes::kBnbCoverGap, node_name(i),
                  "branched node has " + std::to_string(kids[iu].size()) +
                      " child(ren), expected " + std::to_string(min_kids) + "-2");
        }
        break;
      }
      case milp::NodeDisp::kPrunedBound:
        if (!n.lp_solved || !clears_cutoff(n.bound)) {
          rep.add(Severity::kError, codes::kBnbPruneIllegal, node_name(i),
                  "bound prune with bound " + fmt(n.bound) + " below the final cutoff " +
                      fmt(final_cutoff));
        }
        break;
      case milp::NodeDisp::kSkippedParentBound: {
        const milp::AuditNode& p = nodes[static_cast<std::size_t>(n.parent)];
        if (!p.lp_solved || !clears_cutoff(p.bound)) {
          rep.add(Severity::kError, codes::kBnbPruneIllegal, node_name(i),
                  "skip justified by parent bound " + fmt(p.bound) +
                      " which does not clear the final cutoff " + fmt(final_cutoff));
        }
        break;
      }
      case milp::NodeDisp::kPrunedInfeasible:
        break;  // per-node Farkas rays are not recorded; structure-only
      case milp::NodeDisp::kIntegral:
        break;  // incumbent handling below
      case milp::NodeDisp::kCompletionClosed: {
        const double gap =
            std::max(log.abs_gap, log.rel_gap * std::abs(n.completion_obj));
        if (!n.has_completion || !n.lp_solved ||
            n.completion_obj > n.bound + gap + eps_b) {
          rep.add(Severity::kError, codes::kBnbPruneIllegal, node_name(i),
                  "completion close with candidate " + fmt(n.completion_obj) +
                      " not within the gap of bound " + fmt(n.bound));
        } else if (have_final &&
                   log.obj > n.completion_obj +
                                 kTol * (1.0 + std::abs(n.completion_obj))) {
          rep.add(Severity::kError, codes::kBnbIncumbentRegression, node_name(i),
                  "final objective " + fmt(log.obj) + " is worse than the completion "
                      "candidate " + fmt(n.completion_obj) + " found here");
        }
        break;
      }
      case milp::NodeDisp::kUnprocessed:
      case milp::NodeDisp::kLimit:
        if (has_proved_status(log)) {
          rep.add(Severity::kError, codes::kBnbLimitNotOptimal, node_name(i),
                  std::string("status '") + milp::to_string(log.status) +
                      "' claimed although this node hit a limit");
        }
        break;
    }

    if (n.disp != milp::NodeDisp::kBranched && !kids[iu].empty()) {
      rep.add(Severity::kError, codes::kBnbStructure, node_name(i),
              std::string("disposition '") + milp::to_string(n.disp) + "' but has children");
    }

    if (n.incumbent_update) {
      if (n.incumbent_obj >= incumbent) {
        rep.add(Severity::kError, codes::kBnbIncumbentRegression, node_name(i),
                "incumbent update to " + fmt(n.incumbent_obj) +
                    " does not improve on " + fmt(incumbent));
      }
      if (n.disp == milp::NodeDisp::kIntegral && n.incumbent_obj > n.bound + eps_b) {
        rep.add(Severity::kError, codes::kBnbIncumbentMismatch, node_name(i),
                "integral incumbent " + fmt(n.incumbent_obj) +
                    " exceeds the node bound " + fmt(n.bound));
      }
      if (n.disp != milp::NodeDisp::kIntegral && n.has_completion &&
          std::abs(n.incumbent_obj - n.completion_obj) >
              kTol * (1.0 + std::abs(n.completion_obj))) {
        rep.add(Severity::kError, codes::kBnbIncumbentMismatch, node_name(i),
                "incumbent update " + fmt(n.incumbent_obj) +
                    " does not match the completion candidate " + fmt(n.completion_obj));
      }
      incumbent = n.incumbent_obj;
    }
  }

  // ---- Time-to-incumbent trajectory (informational). Node timestamps are
  // monotonic ns since the solve started; logs written before the field
  // existed carry all-zero stamps and are reported as such.
  {
    bool any_stamp = false;
    for (const milp::AuditNode& n : nodes) any_stamp = any_stamp || n.t_ns > 0;
    std::int64_t first_ns = -1, best_ns = -1;
    double first_obj = 0.0, best_obj = 0.0;
    for (const milp::AuditNode& n : nodes) {
      if (!n.incumbent_update) continue;
      if (first_ns < 0) {
        first_ns = n.t_ns;
        first_obj = n.incumbent_obj;
      }
      best_ns = n.t_ns;
      best_obj = n.incumbent_obj;
    }
    if (first_ns >= 0 && any_stamp) {
      rep.add(Severity::kInfo, codes::kBnbTimeline, "tree",
              "first incumbent " + fmt(first_obj) + " at " +
                  fmt(static_cast<double>(first_ns) * 1e-6) + " ms, best " + fmt(best_obj) +
                  " at " + fmt(static_cast<double>(best_ns) * 1e-6) + " ms");
    } else if (first_ns >= 0) {
      rep.add(Severity::kInfo, codes::kBnbTimeline, "tree",
              "log has no node timestamps (written before t_ns existed); "
              "time-to-incumbent unknown");
    }
  }

  // ---- Cover: the two children of every branch partition the parent's
  // domain of the branch variable — no integer escapes the search.
  for (int i = 0; i < num_nodes; ++i) {
    const milp::AuditNode& n = nodes[static_cast<std::size_t>(i)];
    const std::size_t iu = static_cast<std::size_t>(i);
    if (n.disp != milp::NodeDisp::kBranched || kids[iu].size() != 2) continue;
    const int bvar = n.branch_var;
    if (bvar < 0 || bvar >= model.num_vars()) continue;  // already reported

    // Domain of bvar at this node: nearest enclosing interval applied on it.
    double dom_lo = model.lp().lo(bvar);
    double dom_hi = model.lp().hi(bvar);
    bool found = false;
    for (int cur = i; cur != 0 && !found; cur = nodes[static_cast<std::size_t>(cur)].parent) {
      const milp::AuditNode& a = nodes[static_cast<std::size_t>(cur)];
      if (a.var == bvar) {
        dom_lo = a.lo;
        dom_hi = a.hi;
        found = true;
      }
    }
    if (!found) {
      for (const milp::RootFixing& f : log.root_fixings) {
        if (f.var == bvar) {
          dom_lo = f.lo;
          dom_hi = f.hi;
        }
      }
    }

    const milp::AuditNode* c1 = &nodes[static_cast<std::size_t>(kids[iu][0])];
    const milp::AuditNode* c2 = &nodes[static_cast<std::size_t>(kids[iu][1])];
    if (c1->lo > c2->lo) std::swap(c1, c2);
    const double eps = 1e-6;
    std::string defect;
    if (c1->var != bvar || c2->var != bvar) {
      defect = "children do not restrict the branch variable";
    } else if (std::abs(c1->lo - dom_lo) > eps) {
      defect = "low child starts at " + fmt(c1->lo) + ", domain starts at " + fmt(dom_lo);
    } else if (std::abs(c2->hi - dom_hi) > eps) {
      defect = "high child ends at " + fmt(c2->hi) + ", domain ends at " + fmt(dom_hi);
    } else if (std::abs(c2->lo - (c1->hi + 1.0)) > eps) {
      defect = "children [" + fmt(c1->lo) + ", " + fmt(c1->hi) + "] and [" + fmt(c2->lo) +
               ", " + fmt(c2->hi) + "] do not partition the domain";
    }
    if (!defect.empty()) {
      rep.add(Severity::kError, codes::kBnbCoverGap, node_name(i),
              "branch on var " + std::to_string(bvar) + ": " + defect);
    }
  }

  // ---- Final claim vs replayed incumbent and returned solution.
  if (have_final) {
    if (std::abs(incumbent - log.obj) > kTol * (1.0 + std::abs(log.obj))) {
      rep.add(Severity::kError, codes::kBnbIncumbentMismatch, "result",
              "replayed incumbent " + fmt(incumbent) + " != claimed objective " +
                  fmt(log.obj));
    }
    if (log.x.size() != static_cast<std::size_t>(model.num_vars())) {
      rep.add(Severity::kError, codes::kBnbIncumbentMismatch, "result",
              "returned point has " + std::to_string(log.x.size()) + " entries, expected " +
                  std::to_string(model.num_vars()));
    } else {
      std::string why;
      if (!model.is_mip_feasible(log.x, std::max(1e-5, log.int_tol), &why)) {
        rep.add(Severity::kError, codes::kBnbIncumbentMismatch, "result",
                "returned point is not MIP-feasible: " + why);
      }
    }
  } else if (std::isfinite(incumbent)) {
    rep.add(Severity::kError, codes::kBnbIncumbentMismatch, "result",
            std::string("status '") + milp::to_string(log.status) +
                "' despite a replayed incumbent of " + fmt(incumbent));
  }
  return true;
}

SearchedModel searched_model(const milp::Model& model, const milp::AuditLog& log,
                             const model::Formulation* formulation, Report& rep) {
  SearchedModel out;
  if (!log.presolved) {
    out.original = &model;
    return out;
  }

  // Presolved audit: every number in the log lives in the reduced space.
  // certify_presolve proves the reductions THEMSELVES; the mechanical replay
  // after it is the solver's own deterministic code, so a faithful log
  // rebuilds a bit-identical reduced model and shift.
  rep.merge(certify_presolve(model, log.reductions, CertifyPresolveOptions{formulation}));
  const lp::PresolvedLp map = lp::apply_reductions(model.lp(), log.reductions);
  if (log.presolve_shift != map.obj_shift) {
    rep.add(Severity::kError, codes::kBnbPresolve, "presolve",
            "claimed objective shift " + fmt(log.presolve_shift) +
                " != replayed shift " + fmt(map.obj_shift));
    return out;
  }
  if (map.infeasible) {
    if (log.status != milp::MipStatus::kInfeasible) {
      rep.add(Severity::kError, codes::kBnbPresolve, "presolve",
              std::string("reduction replay proves infeasibility (") + map.infeasible_why +
                  ") but the audit claims '" + milp::to_string(log.status) + "'");
    } else if (!log.nodes.empty()) {
      rep.add(Severity::kError, codes::kBnbPresolve, "presolve",
              "presolve-infeasible audit must carry an empty tree, has " +
                  std::to_string(log.nodes.size()) + " node(s)");
    } else {
      rep.add(Severity::kInfo, codes::kBnbPresolve, "presolve",
              std::string("infeasibility proved by the reduction log: ") +
                  map.infeasible_why);
    }
    return out;
  }
  milp::Model reduced = milp::reduced_model(model, map);
  if (reduced.num_vars() == 0) {
    // Fully eliminated model: the claim is decided by inspection of the
    // surviving (originally-empty) rows, exactly as the solver decided it.
    bool feasible = true;
    (void)lp::trivial_certificate(map.reduced, &feasible);
    if (feasible) {
      if (log.status != milp::MipStatus::kOptimal || log.obj != 0.0 ||  // fp-exact: solver writes literal 0
          log.best_bound != 0.0 || !log.x.empty() || !log.nodes.empty()) {  // fp-exact: same
        rep.add(Severity::kError, codes::kBnbPresolve, "presolve",
                "presolve eliminated every variable feasibly; the audit must claim "
                "optimal with reduced objective 0, an empty point and an empty tree");
      }
    } else if (log.status != milp::MipStatus::kInfeasible || !log.nodes.empty()) {
      rep.add(Severity::kError, codes::kBnbPresolve, "presolve",
              "presolve eliminated every variable but left an unsatisfiable row; "
              "the audit must claim infeasible with an empty tree");
    }
    return out;
  }
  out.reduced = std::move(reduced);
  return out;
}

Report certify_bnb(const milp::Model& model, const milp::AuditLog& log,
                   const CertifyBnbOptions& opt) {
  Report rep;
  const SearchedModel searched = searched_model(model, log, opt.formulation, rep);
  if (searched.get() != nullptr) (void)certify_bnb_tree(*searched.get(), log, rep);
  return rep;
}

}  // namespace nd::analysis
