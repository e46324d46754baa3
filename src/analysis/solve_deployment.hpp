// The deployment MILP solve: the paper's one optimal solve per instance
// (Gurobi there, milp::solve here) with everything the deployment model adds
// around it.
//
// Every caller that solves the deployment MILP goes through this one
// function, so the CLI, the cross-check harness, the sweep and the figure
// benches search the same tree for the same instance and options. It lives
// in `analysis` because the instance passes it seeds the root presolve with
// (analysis/presolve) need the deployment instance, which `model` cannot see.
#pragma once

#include "analysis/presolve/instance_presolve.hpp"
#include "deploy/solution.hpp"
#include "milp/branch_and_bound.hpp"
#include "model/formulation.hpp"

namespace nd::analysis {

struct DeploymentSolveResult {
  milp::MipResult mip;
  /// The instance passes that seeded the root presolve; empty when
  /// MipOptions::presolve is off.
  InstancePresolveResult instance;
  deploy::DeploymentSolution solution;  ///< valid when mip.has_solution()
};

/// Solve the deployment MILP of `f`. `warm`, when given, is encoded once and
/// serves both as the branch-and-bound incumbent and as the point the
/// instance passes keep reachable. With `mopt.presolve` on, the warm-aware
/// instance reductions seed the root presolve. Formulation::complete is the
/// completion hook.
///
/// This function sets `warm_start`, `completion` and `instance_reductions`;
/// every other field of `mopt` (limits, threads, presolve, audit, telemetry)
/// is the caller's.
DeploymentSolveResult solve_deployment(const model::Formulation& f, milp::MipOptions mopt,
                                       const deploy::DeploymentSolution* warm = nullptr);

}  // namespace nd::analysis
