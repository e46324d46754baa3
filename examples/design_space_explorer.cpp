// Design-space exploration: how do mesh size and horizon tightness (α)
// trade off against deployment feasibility and balanced energy? Also shows
// the exact-MILP API (analysis::solve_deployment) on the smallest
// configuration, warm started by the heuristic.
//
//   $ ./examples/design_space_explorer
#include <cstdio>
#include <vector>

#include "analysis/solve_deployment.hpp"
#include "common/prng.hpp"
#include "deploy/evaluate.hpp"
#include "deploy/problem.hpp"
#include "heuristic/phases.hpp"
#include "model/formulation.hpp"
#include "task/generator.hpp"

using namespace nd;  // NOLINT

namespace {
std::unique_ptr<deploy::DeploymentProblem> make(int rows, int cols, double alpha,
                                                int num_tasks, std::uint64_t seed) {
  Prng prng(seed);
  task::GenParams gen;
  gen.num_tasks = num_tasks;
  gen.width = 3;
  noc::MeshParams mesh;
  mesh.rows = rows;
  mesh.cols = cols;
  auto p = std::make_unique<deploy::DeploymentProblem>(
      task::generate_layered(prng, gen), mesh, dvfs::VfTable::typical6(),
      reliability::FaultParams{2e-5, 3.0}, 0.995, 1.0);
  p->set_horizon(p->horizon_for_alpha(alpha));
  return p;
}
}  // namespace

int main() {
  std::printf("heuristic deployments of a 12-task workload across mesh sizes and alpha\n\n");
  const std::vector<std::pair<int, int>> meshes{{1, 2}, {2, 2}, {2, 4}, {4, 4}};
  const std::vector<double> alphas{0.6, 1.0, 1.5, 2.5};

  std::printf("%-8s", "mesh");
  for (const double a : alphas) std::printf("alpha=%-8.1f", a);
  std::printf("\n");
  for (const auto& [rows, cols] : meshes) {
    std::printf("%dx%-6d", rows, cols);
    for (const double a : alphas) {
      auto p = make(rows, cols, a, 12, 77);
      const auto res = heuristic::solve_heuristic(*p);
      if (res.feasible) {
        std::printf("%-14.3f", deploy::evaluate_energy(*p, res.solution).max_proc());
      } else {
        std::printf("%-14s", "infeasible");
      }
    }
    std::printf("\n");
  }
  std::printf("(cells: BE objective max_k E_k in joules; more processors spread load,\n"
              " larger alpha admits slower/cheaper levels)\n\n");

  std::printf("exact MILP on the smallest viable config (2x2 mesh, 4 tasks):\n");
  auto p = make(2, 2, 1.5, 4, 99);
  const auto h = heuristic::solve_heuristic(*p);
  if (!h.feasible) {
    std::printf("  heuristic infeasible: %s\n", h.why.c_str());
    return 0;
  }
  milp::MipOptions mopt;
  mopt.time_limit_s = 20.0;
  const auto opt = analysis::solve_deployment(model::Formulation(*p), mopt, &h.solution);
  const double eh = deploy::evaluate_energy(*p, h.solution).max_proc();
  std::printf("  heuristic BE objective: %.4f J (%.0f us)\n", eh, h.seconds * 1e6);
  if (opt.mip.has_solution()) {
    std::printf("  optimal   BE objective: %.4f J (status %s, %.1f s, %lld nodes, gap %.2f%%)\n",
                opt.mip.obj, to_string(opt.mip.status), opt.mip.seconds,
                static_cast<long long>(opt.mip.nodes), 100.0 * opt.mip.gap());
    std::printf("  heuristic overhead: %.2f %%\n", 100.0 * (eh - opt.mip.obj) / opt.mip.obj);
  } else {
    std::printf("  MILP returned %s within the time limit\n", to_string(opt.mip.status));
  }
  return 0;
}
