// Simulated-annealing baseline for the deployment problem.
//
// The task-mapping literature the paper positions against (Table I) commonly
// uses metaheuristics; this module provides one as an independent baseline
// and as a cross-check on the decomposition heuristic: it explores the SAME
// decision space (levels, allocation, path choice — duplication is derived
// from eq. (4), schedules from the list scheduler) under a Metropolis
// acceptance rule with geometric cooling.
//
// Determinism: fully driven by the seeded PRNG in the options.
#pragma once

#include <cstdint>

#include "deploy/problem.hpp"
#include "deploy/solution.hpp"

namespace nd::heuristic {

struct AnnealOptions {
  int iterations = 30000;
  double initial_temp_frac = 0.10;  ///< T0 as a fraction of the initial objective
  double cooling = 0.9995;          ///< geometric factor per iteration
  double infeasibility_weight = 4.0;  ///< penalty scale for horizon overshoot
  std::uint64_t seed = 1;
};

struct AnnealResult {
  bool feasible = false;              ///< a horizon-feasible state was found
  deploy::DeploymentSolution solution;  ///< best feasible (or least-infeasible) state
  double objective = 0.0;             ///< BE objective of `solution`
  int accepted_moves = 0;
  double seconds = 0.0;
};

AnnealResult solve_annealing(const deploy::DeploymentProblem& p, const AnnealOptions& opt = {});

}  // namespace nd::heuristic
