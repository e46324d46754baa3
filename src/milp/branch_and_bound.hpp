// Branch-and-bound MILP solver.
//
// Strategy: one work-sharing tree search for every thread count. Each worker
// dives depth-first (the child nearest the fractional LP value first) with
// most-fractional branching on one simplex engine reused across its nodes
// (branching = bound change + dual re-solve); workers share open subtrees,
// the incumbent and the node count. Warm-start incumbents, wall-clock/node
// limits. This stands in for the commercial solver (Gurobi) used in the
// paper; see DESIGN.md and docs/parallelism.md.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "lp/presolve.hpp"
#include "milp/model.hpp"

namespace nd::milp {

enum class MipStatus : std::uint8_t {
  kOptimal,     ///< proved optimal within gap tolerances
  kFeasible,    ///< limit hit with an incumbent in hand
  kInfeasible,  ///< proved infeasible
  kUnknown,     ///< limit hit with no incumbent
};

const char* to_string(MipStatus s);

struct AuditLog;  // milp/audit.hpp

struct MipOptions {
  double time_limit_s = 120.0;
  std::int64_t node_limit = 50'000'000;
  double int_tol = 1e-6;
  double abs_gap = 1e-9;
  double rel_gap = 1e-6;
  /// Workers in the tree search (branch_and_bound.cpp): the calling thread
  /// plus num_threads - 1 pool threads, pulling open subtrees from a shared
  /// best-bound queue, sharing the incumbent, and writing per-worker audit
  /// shards that are merged by node id at the end. 1 (default) starts no
  /// thread and is a sequential depth-first search. 0 means
  /// ThreadPool::default_threads(). The proved optimum is identical for
  /// every thread count; the tree shape (and therefore the audit log) is
  /// not, but every log certifies.
  int num_threads = 1;
  /// Optional integer-feasible starting point (e.g. from the heuristic);
  /// silently ignored if it fails feasibility validation.
  const std::vector<double>* warm_start = nullptr;
  /// Optional problem-specific completion heuristic: given a node's LP point,
  /// try to produce a full integer-feasible point (e.g. complete integral
  /// placement decisions with a constructive schedule). If the returned
  /// point's objective matches the node's LP bound within the gap
  /// tolerances, the node is solved exactly and pruned.
  std::function<bool(const std::vector<double>& lp_point, std::vector<double>* out)>
      completion;
  /// Optional audit sink: when set, the solver overwrites it with a complete
  /// replayable trace of the tree (see milp/audit.hpp and
  /// analysis/certify_bnb.hpp). Costs one extra root-certificate extraction
  /// and O(1) bookkeeping per node.
  AuditLog* audit = nullptr;
  /// Run the proof-carrying root presolve (milp/presolve.hpp) before the
  /// tree search: activity-based bound propagation, coefficient tightening,
  /// redundant-row and empty-column elimination, to a fixpoint. The tree is
  /// then searched on the REDUCED model; the result (and the audit log, when
  /// requested) is lifted back, and the audit carries the full reduction log
  /// so certify_bnb can re-prove every reduction independently.
  bool presolve = true;
  /// Optional instance-level reductions (dominance / symmetry fixings from
  /// analysis/presolve) to prepend to the root presolve. Must be proved
  /// against THIS model; borrowed pointer, not owned. Ignored when
  /// `presolve` is false. For the deployment MILP,
  /// analysis::solve_deployment is the one place that sets it.
  const lp::ReductionLog* instance_reductions = nullptr;
  /// Emit counters/spans into the obs telemetry layer (node dispositions,
  /// queue depth, donations, cold vs warm re-solves, the incumbent timeline,
  /// per-worker busy time). Only observable while an obs session is
  /// collecting, and free when NOCDEPLOY_OBS is compiled out; set false to
  /// keep a solve out of an enclosing session's numbers.
  bool telemetry = true;
};

struct MipResult {
  MipStatus status = MipStatus::kUnknown;
  double obj = 0.0;         ///< incumbent objective (valid unless kUnknown/kInfeasible)
  double best_bound = 0.0;  ///< proved lower bound on the optimum
  std::vector<double> x;    ///< incumbent point
  std::int64_t nodes = 0;
  double seconds = 0.0;
  int lp_iterations = 0;
  /// Root presolve tallies from the proof-carrying reduction log that
  /// produced the reduced model (all zero when MipOptions::presolve is off).
  lp::PresolveStats presolve_stats;

  [[nodiscard]] bool has_solution() const {
    return status == MipStatus::kOptimal || status == MipStatus::kFeasible;
  }
  [[nodiscard]] double gap() const;
};

MipResult solve(const Model& model, const MipOptions& opt = {});

}  // namespace nd::milp
