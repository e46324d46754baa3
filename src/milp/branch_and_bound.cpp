#include "milp/branch_and_bound.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/check.hpp"
#include "common/invariants.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "lp/certificate.hpp"
#include "lp/simplex.hpp"
#include "milp/audit.hpp"
#include "milp/bnb_detail.hpp"
#include "milp/presolve.hpp"
#include "obs/obs.hpp"

namespace nd::milp {

const char* to_string(MipStatus s) {
  switch (s) {
    case MipStatus::kOptimal: return "optimal";
    case MipStatus::kFeasible: return "feasible";
    case MipStatus::kInfeasible: return "infeasible";
    case MipStatus::kUnknown: return "unknown";
  }
  return "?";
}

double MipResult::gap() const {
  if (!has_solution()) return std::numeric_limits<double>::infinity();
  const double denom = std::max(1e-12, std::abs(obj));
  return std::max(0.0, obj - best_bound) / denom;
}

namespace {

struct Frame {
  int var = -1;
  double old_lo = 0.0, old_hi = 0.0;
  double second_lo = 0.0, second_hi = 0.0;
  double node_obj = 0.0;  ///< LP bound of the node that was split
  bool second_done = false;
  int audit_id = -1;  ///< audit id of the split node (when auditing)
};

/// Node-disposition tallies, kept as plain locals during the search and
/// flushed into obs counters once at the end (never per node).
struct BnbTally {
  long long branched = 0;
  long long pruned_bound = 0;
  long long pruned_infeasible = 0;
  long long integral = 0;
  long long completion_closed = 0;
  long long skipped_parent_bound = 0;
  long long incumbent_updates = 0;
};

void emit_bnb_tally(const BnbTally& t, std::int64_t nodes) {
  (void)t;  // every use below compiles out with NOCDEPLOY_OBS=0
  (void)nodes;
  ND_OBS_COUNT("bnb.nodes", nodes);
  ND_OBS_COUNT("bnb.branched", t.branched);
  ND_OBS_COUNT("bnb.pruned_bound", t.pruned_bound);
  ND_OBS_COUNT("bnb.pruned_infeasible", t.pruned_infeasible);
  ND_OBS_COUNT("bnb.integral", t.integral);
  ND_OBS_COUNT("bnb.completion_closed", t.completion_closed);
  ND_OBS_COUNT("bnb.skipped_parent_bound", t.skipped_parent_bound);
  ND_OBS_COUNT("bnb.incumbent_updates", t.incumbent_updates);
}

}  // namespace

/// Most fractional integer variable within the highest fractional priority
/// class, or -1 if the point is integral.
int detail::pick_branch_var(const Model& model, const lp::Simplex& engine, double int_tol) {
  int best = -1;
  int best_prio = 0;
  double best_frac = 0.0;
  for (int j = 0; j < model.num_vars(); ++j) {
    if (!model.is_integer(j)) continue;
    const double v = engine.value(j);
    const double frac = std::abs(v - std::round(v));
    if (frac <= int_tol) continue;
    const int prio = model.priority(j);
    if (best < 0 || prio > best_prio || (prio == best_prio && frac > best_frac)) {
      best = j;
      best_prio = prio;
      best_frac = frac;
    }
  }
  return best;
}

std::optional<ProofVector> detail::record_proof(const lp::Simplex& engine) {
  if (engine.last_status() != lp::SolveStatus::kOptimal &&
      engine.last_status() != lp::SolveStatus::kInfeasible) {
    return std::nullopt;
  }
  const std::vector<double> y = engine.proof_vector();
  const auto nonzero = [](double v) { return v != 0.0; };  // fp-exact: sparsity
  ProofVector proof;
  proof.reserve(static_cast<std::size_t>(std::count_if(y.begin(), y.end(), nonzero)));
  for (std::size_t r = 0; r < y.size(); ++r) {
    if (nonzero(y[r])) proof.emplace_back(static_cast<int>(r), y[r]);
  }
  return proof;
}

MipResult solve(const Model& model, const MipOptions& opt) {
  // Root presolve first (solve_presolved calls back here with presolve off
  // and the REDUCED model, so the thread dispatch below applies to it too).
  if (opt.presolve) return detail::solve_presolved(model, opt);
  const int threads = opt.num_threads > 0 ? opt.num_threads : ThreadPool::default_threads();
  if (threads > 1) return detail::solve_parallel(model, opt, threads);
  using detail::pick_branch_var;
  Stopwatch clock;
  const std::int64_t solve_start_ns = obs::now_ns();
  obs::Span solve_span("bnb.solve", opt.telemetry);
  BnbTally tally;
  MipResult res;

  AuditLog* aud = opt.audit;
  if (aud != nullptr) {
    *aud = AuditLog{};
    aud->int_tol = opt.int_tol;
    aud->abs_gap = opt.abs_gap;
    aud->rel_gap = opt.rel_gap;
  }
  const auto new_audit_node = [&](int parent, int var, double lo, double hi) -> int {
    if (aud == nullptr) return -1;
    AuditNode node;
    node.id = static_cast<int>(aud->nodes.size());
    node.parent = parent;
    node.var = var;
    node.lo = lo;
    node.hi = hi;
    node.t_ns = obs::now_ns() - solve_start_ns;
    aud->nodes.push_back(node);
    return node.id;
  };
  const auto finalize_audit = [&]() {
    if (aud == nullptr) return;
    aud->status = res.status;
    aud->obj = res.obj;
    aud->best_bound = res.best_bound;
    aud->x = res.x;
  };

  lp::Simplex::Options lp_opt;
  // Node LPs re-solve in tens of pivots; a tight cap makes pathological
  // degenerate episodes fail fast into the rebuild/cold-solve fallback
  // instead of burning the node budget.
  lp_opt.max_iters = 50000;
  // Branching decisions read the node LP's VERTEX, not just its objective:
  // on a degenerate optimal face, which vertex the engine lands on decides
  // which variable is fractional and hence the whole tree shape. Dantzig
  // pricing is pinned for the trees it produces (docs/solver.md).
  lp_opt.pricing = lp::Pricing::kDantzig;
  lp::Simplex engine(model.lp(), lp_opt);
  engine.set_deadline(std::chrono::steady_clock::now() +
                      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                          std::chrono::duration<double>(opt.time_limit_s)));

  const auto emit_telemetry = [&]() {
    if (!opt.telemetry) return;
    emit_bnb_tally(tally, res.nodes);
    ND_OBS_COUNT("bnb.cold_solves", engine.counters().solves);
    ND_OBS_COUNT("bnb.warm_resolves", engine.counters().dual_resolves);
    if (aud != nullptr) {
      std::size_t bytes = aud->nodes.capacity() * sizeof(AuditNode);
      for (const AuditNode& node : aud->nodes) {
        if (node.proof) bytes += node.proof->capacity() * sizeof(ProofVector::value_type);
      }
      ND_OBS_COUNT("mem.audit.bytes", static_cast<long long>(bytes));
    }
    lp::emit_lp_counters(engine);
  };

  // Seed the incumbent from the warm start if it validates.
  bool have_incumbent = false;
  double incumbent_obj = std::numeric_limits<double>::infinity();
  if (opt.warm_start != nullptr &&
      model.is_mip_feasible(*opt.warm_start, std::max(1e-6, opt.int_tol))) {
    res.x = *opt.warm_start;
    incumbent_obj = model.lp().objective_value(*opt.warm_start);
    have_incumbent = true;
    if (aud != nullptr) {
      aud->warm_accepted = true;
      aud->warm_obj = incumbent_obj;
    }
  }

  lp::SolveStatus lp_status = engine.solve();
  int cur_node = new_audit_node(-1, -1, 0.0, 0.0);
  if (aud != nullptr) aud->root_cert = engine.extract_certificate();
  if (lp_status == lp::SolveStatus::kInfeasible) {
    res.status = MipStatus::kInfeasible;
    res.best_bound = std::numeric_limits<double>::infinity();
    res.seconds = clock.seconds();
    res.lp_iterations = engine.iterations();
    if (aud != nullptr) {
      aud->root_bound = res.best_bound;
      aud->nodes[0].proof = detail::record_proof(engine);
      aud->nodes[0].disp = NodeDisp::kPrunedInfeasible;
      aud->nodes[0].t_ns = obs::now_ns() - solve_start_ns;
    }
    ++tally.pruned_infeasible;
    emit_telemetry();
    finalize_audit();
    return res;
  }
  ND_ASSERT(lp_status != lp::SolveStatus::kUnbounded,
            "deployment MILPs have bounded variables; unbounded LP indicates a model bug");

  const double root_bound =
      (lp_status == lp::SolveStatus::kOptimal) ? engine.objective()
                                               : -std::numeric_limits<double>::infinity();
  if (aud != nullptr) {
    aud->root_bound = root_bound;
    if (lp_status != lp::SolveStatus::kOptimal) aud->nodes[0].disp = NodeDisp::kLimit;
  }

  // Root reduced-cost fixing: with an incumbent in hand, a nonbasic integer
  // variable whose reduced cost alone would push the objective past the
  // incumbent can be frozen at its bound for the whole tree.
  if (have_incumbent && lp_status == lp::SolveStatus::kOptimal) {
    const double slack = incumbent_obj - root_bound;
    int fixed = 0;
    for (int j = 0; j < model.num_vars(); ++j) {
      if (!model.is_integer(j)) continue;
      const double lo = engine.bound_lo(j);
      const double hi = engine.bound_hi(j);
      if (hi - lo < 0.5) continue;
      const double d = engine.reduced_cost(j);
      const auto st = engine.var_status(j);
      if (st == lp::VarStatus::kAtLower && d > slack + 1e-9) {
        engine.set_bound(j, lo, lo);
        ++fixed;
        if (aud != nullptr) aud->root_fixings.push_back({j, true, lo, lo});
      } else if (st == lp::VarStatus::kAtUpper && -d > slack + 1e-9) {
        engine.set_bound(j, hi, hi);
        ++fixed;
        if (aud != nullptr) aud->root_fixings.push_back({j, false, hi, hi});
      }
    }
    if (opt.verbose && fixed > 0) {
      std::printf("[bnb] reduced-cost fixing froze %d integer variable(s) at the root\n", fixed);
    }
  }

  std::vector<Frame> stack;
  bool hit_limit = (lp_status == lp::SolveStatus::kIterLimit);
  bool node_solved = (lp_status == lp::SolveStatus::kOptimal);

#if ND_INVARIANTS_ENABLED
  // The incumbent may only ever strictly improve, and every promoted point
  // must be MIP-feasible (the cheap checks happen at promotion time; this
  // re-verifies after the fact so a corrupted promotion path cannot slip by).
  double last_incumbent = std::numeric_limits<double>::infinity();
  const auto check_incumbent = [&]() {
    ND_INVARIANT(incumbent_obj < last_incumbent, "incumbent objective failed to improve");
    ND_INVARIANT(model.is_mip_feasible(res.x, std::max(1e-5, opt.int_tol)),
                 "incumbent is not MIP-feasible");
    last_incumbent = incumbent_obj;
  };
  if (have_incumbent) check_incumbent();
  // A child's LP bound can never beat its parent's: the child feasible
  // region is a subset of the parent's.
  const auto check_child_bound = [&](double parent_obj) {
    ND_INVARIANT(engine.objective() >= parent_obj - 1e-5 * (1.0 + std::abs(parent_obj)),
                 "child LP bound better than its parent node's");
  };
#endif

  auto cutoff = [&]() {
    if (!have_incumbent) return std::numeric_limits<double>::infinity();
    return incumbent_obj - std::max(opt.abs_gap, opt.rel_gap * std::abs(incumbent_obj));
  };

  while (!hit_limit) {
    // Per-node latency distribution; covers every exit path of the iteration.
    const obs::HistTimer node_timer("bnb.node_ns", opt.telemetry);
    ++res.nodes;
    if (aud != nullptr) {
      // Processing stamp: overwrites the creation stamp so the node's time
      // reflects when it was disposed (what time-to-incumbent replays need).
      aud->nodes[static_cast<std::size_t>(cur_node)].t_ns = obs::now_ns() - solve_start_ns;
    }
    if (clock.seconds() > opt.time_limit_s || res.nodes > opt.node_limit) {
      if (aud != nullptr) aud->nodes[static_cast<std::size_t>(cur_node)].disp = NodeDisp::kLimit;
      ND_OBS_LOG(obs::LogLevel::kWarn, "bnb-limit",
                 {"nodes", static_cast<long long>(res.nodes)},
                 {"seconds", clock.seconds()},
                 {"incumbent", have_incumbent ? incumbent_obj : 0.0});
      hit_limit = true;
      break;
    }
    if (opt.verbose && res.nodes % 5000 == 0) {
      std::printf("[bnb] nodes=%lld depth=%zu incumbent=%s\n",
                  static_cast<long long>(res.nodes), stack.size(),
                  have_incumbent ? std::to_string(incumbent_obj).c_str() : "-");
    }

    bool prune = !node_solved;  // LP infeasible at this node
    double node_obj = 0.0;
    if (node_solved) {
      node_obj = engine.objective();
      if (node_obj >= cutoff()) prune = true;
    }
    if (!node_solved) {
      ++tally.pruned_infeasible;
    } else if (prune) {
      ++tally.pruned_bound;
    }
    if (aud != nullptr) {
      AuditNode& node = aud->nodes[static_cast<std::size_t>(cur_node)];
      // The engine still holds this node's LP: its basis gives the proof
      // vector (root fixings since the root solve moved bounds only).
      node.proof = detail::record_proof(engine);
      if (node_solved) {
        node.lp_solved = true;
        node.bound = node_obj;
        if (prune) node.disp = NodeDisp::kPrunedBound;
      } else {
        node.disp = NodeDisp::kPrunedInfeasible;
      }
    }

    if (!prune && opt.completion) {
      // Problem-specific completion: may both improve the incumbent and
      // close this node when it matches the LP bound.
      std::vector<double> candidate;
      if (opt.completion(engine.solution(), &candidate) &&
          model.is_mip_feasible(candidate, std::max(1e-5, opt.int_tol))) {
        const double cand_obj = model.lp().objective_value(candidate);
        if (aud != nullptr) {
          AuditNode& node = aud->nodes[static_cast<std::size_t>(cur_node)];
          node.has_completion = true;
          node.completion_obj = cand_obj;
        }
        if (cand_obj < incumbent_obj) {
          incumbent_obj = cand_obj;
          res.x = std::move(candidate);
          have_incumbent = true;
          ++tally.incumbent_updates;
          if (opt.telemetry) ND_OBS_INSTANT("bnb.incumbent", incumbent_obj);
          if (aud != nullptr) {
            AuditNode& node = aud->nodes[static_cast<std::size_t>(cur_node)];
            node.incumbent_update = true;
            node.incumbent_obj = incumbent_obj;
          }
#if ND_INVARIANTS_ENABLED
          check_incumbent();
#endif
        }
        if (cand_obj <= node_obj + std::max(opt.abs_gap, opt.rel_gap * std::abs(cand_obj))) {
          prune = true;  // subtree cannot beat this candidate
          ++tally.completion_closed;
          if (aud != nullptr) {
            aud->nodes[static_cast<std::size_t>(cur_node)].disp = NodeDisp::kCompletionClosed;
          }
        }
      }
    }

    int branch_var = -1;
    if (!prune) {
      branch_var = pick_branch_var(model, engine, opt.int_tol);
      if (branch_var < 0) {
        // Integral point: round and promote to incumbent.
        std::vector<double> x = engine.solution();
        for (int j = 0; j < model.num_vars(); ++j) {
          if (model.is_integer(j)) {
            const auto ju = static_cast<std::size_t>(j);
            x[ju] = std::round(x[ju]);
          }
        }
        if (node_obj < incumbent_obj &&
            model.is_mip_feasible(x, std::max(1e-5, opt.int_tol))) {
          incumbent_obj = node_obj;
          res.x = std::move(x);
          have_incumbent = true;
          ++tally.incumbent_updates;
          if (opt.telemetry) ND_OBS_INSTANT("bnb.incumbent", incumbent_obj);
          if (aud != nullptr) {
            AuditNode& node = aud->nodes[static_cast<std::size_t>(cur_node)];
            node.incumbent_update = true;
            node.incumbent_obj = incumbent_obj;
          }
#if ND_INVARIANTS_ENABLED
          check_incumbent();
#endif
        }
        prune = true;
        ++tally.integral;
        if (aud != nullptr) {
          aud->nodes[static_cast<std::size_t>(cur_node)].disp = NodeDisp::kIntegral;
        }
      }
    }

    if (!prune) {
      // Split on branch_var; explore the child nearest the LP value first.
      Frame f;
      f.var = branch_var;
      f.old_lo = engine.bound_lo(branch_var);
      f.old_hi = engine.bound_hi(branch_var);
      if (f.old_hi - f.old_lo < 0.5) {
        // A fixed variable with a fractional LP value means the engine lost
        // primal feasibility beyond repair — stop with what we have.
        if (aud != nullptr) aud->nodes[static_cast<std::size_t>(cur_node)].disp = NodeDisp::kLimit;
        hit_limit = true;
        break;
      }
      // Clamp against tolerance-level bound violations so both children get
      // non-empty domains.
      const double v = std::clamp(engine.value(branch_var), f.old_lo, f.old_hi);
      double fl = std::floor(v);
      fl = std::clamp(fl, f.old_lo, f.old_hi - 1.0);
      f.node_obj = node_obj;
      double first_lo, first_hi;
      if (v - fl <= 0.5) {  // down child first
        first_lo = f.old_lo;
        first_hi = fl;
        f.second_lo = fl + 1.0;
        f.second_hi = f.old_hi;
      } else {  // up child first
        first_lo = fl + 1.0;
        first_hi = f.old_hi;
        f.second_lo = f.old_lo;
        f.second_hi = fl;
      }
      f.audit_id = cur_node;
      ++tally.branched;
      if (opt.telemetry) ND_OBS_VALUE("bnb.stack_depth", static_cast<double>(stack.size() + 1));
      if (aud != nullptr) {
        AuditNode& node = aud->nodes[static_cast<std::size_t>(cur_node)];
        node.disp = NodeDisp::kBranched;
        node.branch_var = branch_var;
      }
      stack.push_back(f);
      engine.set_bound(branch_var, first_lo, first_hi);
      cur_node = new_audit_node(f.audit_id, branch_var, first_lo, first_hi);
      const lp::SolveStatus s = engine.dual_resolve();
      if (s == lp::SolveStatus::kIterLimit) {
        if (aud != nullptr) aud->nodes[static_cast<std::size_t>(cur_node)].disp = NodeDisp::kLimit;
        hit_limit = true;
        break;
      }
      node_solved = (s == lp::SolveStatus::kOptimal);
#if ND_INVARIANTS_ENABLED
      if (node_solved) check_child_bound(f.node_obj);
#endif
      continue;
    }

    // Backtrack to the next pending child.
    bool descended = false;
    while (!stack.empty()) {
      Frame& f = stack.back();
      if (!f.second_done) {
        f.second_done = true;
        engine.set_bound(f.var, f.second_lo, f.second_hi);
        const int sibling = new_audit_node(f.audit_id, f.var, f.second_lo, f.second_hi);
        // Parent bound may already prune the sibling subtree.
        if (f.node_obj >= cutoff()) {
          ++tally.skipped_parent_bound;
          if (aud != nullptr) {
            aud->nodes[static_cast<std::size_t>(sibling)].disp = NodeDisp::kSkippedParentBound;
          }
          continue;
        }
        cur_node = sibling;
        const lp::SolveStatus s = engine.dual_resolve();
        if (s == lp::SolveStatus::kIterLimit) {
          if (aud != nullptr) aud->nodes[static_cast<std::size_t>(cur_node)].disp = NodeDisp::kLimit;
          hit_limit = true;
          break;
        }
        node_solved = (s == lp::SolveStatus::kOptimal);
#if ND_INVARIANTS_ENABLED
        if (node_solved) check_child_bound(f.node_obj);
#endif
        descended = true;
        break;
      }
      engine.set_bound(f.var, f.old_lo, f.old_hi);
      stack.pop_back();
    }
    if (hit_limit) break;
    if (!descended && stack.empty()) break;  // tree exhausted
  }

  // Final bookkeeping.
  res.seconds = clock.seconds();
  res.lp_iterations = engine.iterations();
  double open_bound = std::numeric_limits<double>::infinity();
  for (const Frame& f : stack) open_bound = std::min(open_bound, f.node_obj);
  if (hit_limit) {
    res.best_bound = std::min({open_bound, root_bound,
                               have_incumbent ? incumbent_obj : open_bound});
    res.status = have_incumbent ? MipStatus::kFeasible : MipStatus::kUnknown;
  } else {
    res.best_bound = have_incumbent ? incumbent_obj : std::numeric_limits<double>::infinity();
    res.status = have_incumbent ? MipStatus::kOptimal : MipStatus::kInfeasible;
  }
  if (have_incumbent) res.obj = incumbent_obj;
  emit_telemetry();
  finalize_audit();
  return res;
}

}  // namespace nd::milp
