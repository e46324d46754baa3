// The decomposition-based heuristic of §III: the deployment problem P1 is
// split into three subproblems solved in sequence —
//   P2 (Algorithm 1): frequency assignment + task duplication,
//   P3 (Algorithm 2): task allocation + scheduling (with placeholder
//                     average communication costs),
//   P4 (Algorithm 3): per-pair routing path selection (real costs).
// Each phase is exposed separately for unit tests and the ablation bench.
#pragma once

#include <string>

#include "deploy/problem.hpp"
#include "deploy/solution.hpp"

namespace nd::heuristic {

struct Phase2Options {
  /// Algorithm 2 sorts by layer, then by descending WCEC. Disabling uses
  /// plain index order (ablation).
  bool layered_sort = true;
  /// Use the paper's fixed per-processor average communication-energy
  /// placeholder when ranking processors. Disabling ignores communication
  /// during allocation (ablation).
  bool comm_placeholder = true;
};

struct HeuristicOptions {
  Phase2Options phase2;
  /// Algorithm 3 greedy path choice; false freezes every pair to path 0
  /// (ablation / single-path baseline).
  bool select_paths = true;
};

struct HeuristicResult {
  bool feasible = false;
  deploy::DeploymentSolution solution;
  std::string why;      ///< first failure reason when infeasible
  double seconds = 0.0;
};

/// Algorithm 1. Fills solution.exists and solution.level. Returns false (with
/// `why`) when some task has no deadline- or reliability-feasible level.
bool phase1_frequency_and_duplication(const deploy::DeploymentProblem& p,
                                      deploy::DeploymentSolution& s, std::string* why = nullptr);

/// Algorithm 2. Requires phase 1 output; fills solution.proc and a schedule
/// based on placeholder communication times.
bool phase2_allocation_and_scheduling(const deploy::DeploymentProblem& p,
                                      deploy::DeploymentSolution& s,
                                      const Phase2Options& opt = {}, std::string* why = nullptr);

/// Algorithm 3. Requires phases 1–2; fills solution.path_choice and the final
/// schedule with real per-path communication times.
bool phase3_path_selection(const deploy::DeploymentProblem& p, deploy::DeploymentSolution& s,
                           std::string* why = nullptr);

/// Task processing order used by Algorithm 2 (layer, then WCEC descending,
/// then index) over existing tasks only.
std::vector<int> allocation_order(const deploy::DeploymentProblem& p,
                                  const deploy::DeploymentSolution& s, bool layered_sort);

/// List scheduler shared by phases 2 and 3: keeps exists/level/proc and the
/// allocation order, recomputes start/end with the given communication time
/// per task (start_j = max(max_pred end, proc available) + comm_j).
/// Returns the makespan.
double reschedule(const deploy::DeploymentProblem& p, deploy::DeploymentSolution& s,
                  const std::vector<double>& comm_into_task);

/// Full three-phase heuristic.
HeuristicResult solve_heuristic(const deploy::DeploymentProblem& p,
                                const HeuristicOptions& opt = {});

}  // namespace nd::heuristic
