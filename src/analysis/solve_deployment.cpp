#include "analysis/solve_deployment.hpp"

#include <vector>

namespace nd::analysis {

DeploymentSolveResult solve_deployment(const model::Formulation& f, milp::MipOptions mopt,
                                       const deploy::DeploymentSolution* warm) {
  std::vector<double> warm_point;
  if (warm != nullptr) warm_point = f.encode(*warm);
  mopt.warm_start = warm != nullptr ? &warm_point : nullptr;
  mopt.completion = [&f](const std::vector<double>& lp_point, std::vector<double>* out) {
    return f.complete(lp_point, out);
  };
  DeploymentSolveResult res;
  if (mopt.presolve) {
    InstancePresolveOptions iopt;
    iopt.warm = mopt.warm_start;
    res.instance = instance_reductions(f, iopt);
    mopt.instance_reductions = &res.instance.log;
  }
  res.mip = milp::solve(f.model(), mopt);
  if (res.mip.has_solution()) res.solution = f.decode(res.mip.x);
  return res;
}

}  // namespace nd::analysis
