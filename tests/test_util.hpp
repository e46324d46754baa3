// Shared test helpers: small, fast deployment instances and the golden MILP
// corpus.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/prng.hpp"
#include "deploy/problem.hpp"
#include "milp/model.hpp"

namespace nd::test {

struct TinySpec {
  int num_tasks = 4;
  int mesh_rows = 2;
  int mesh_cols = 2;
  int levels = 3;            ///< 3-level table keeps MILPs small
  double r_th = 0.995;
  double alpha = 3.0;
  double lambda0 = 2e-5;     ///< strong enough that low levels need duplication
  double d = 3.0;
  std::uint64_t seed = 1;
  double deadline_slack = 1.6;
};

/// Random layered instance on a small mesh with a reduced V/F table.
inline std::unique_ptr<deploy::DeploymentProblem> tiny_problem(const TinySpec& spec) {
  Prng prng(spec.seed);
  task::GenParams gen;
  gen.num_tasks = spec.num_tasks;
  gen.width = 2;
  gen.deadline_slack = spec.deadline_slack;
  task::TaskGraph graph = task::generate_layered(prng, gen);

  noc::MeshParams mesh;
  mesh.rows = spec.mesh_rows;
  mesh.cols = spec.mesh_cols;
  mesh.seed = spec.seed + 99;

  std::vector<dvfs::VfLevel> levels;
  for (int l = 0; l < spec.levels; ++l) {
    const double t = (spec.levels == 1) ? 1.0 : static_cast<double>(l) / (spec.levels - 1);
    levels.push_back({0.70 + 0.5 * t, 1.0e9 + 2.0e9 * t});
  }

  auto p = std::make_unique<deploy::DeploymentProblem>(
      std::move(graph), mesh, dvfs::VfTable(std::move(levels)),
      reliability::FaultParams{spec.lambda0, spec.d}, spec.r_th, /*horizon=*/1.0);
  p->set_horizon(p->horizon_for_alpha(spec.alpha));
  return p;
}

/// Seeded random binary program: n binaries with objective coefficients in
/// [-5, 5] and m LE rows of nonnegative coefficients.
inline milp::Model random_binary_mip(int n, int m, std::uint64_t seed) {
  Prng g(seed);
  milp::Model mod;
  for (int j = 0; j < n; ++j) {
    mod.add_bin(g.uniform(-5.0, 5.0), "b" + std::to_string(j));
  }
  for (int r = 0; r < m; ++r) {
    std::vector<std::pair<int, double>> coef;
    for (int j = 0; j < n; ++j) {
      if (g.bernoulli(0.6)) coef.emplace_back(j, g.uniform(0.1, 2.0));
    }
    if (coef.empty()) coef.emplace_back(0, 1.0);
    mod.add_row(coef, lp::Sense::LE, g.uniform(1.0, static_cast<double>(n)));
  }
  return mod;
}

/// The golden MILP corpus: golden_milp(seed) proved optimal at these
/// objectives, for every thread count.
inline constexpr std::pair<std::uint64_t, double> kGoldenMilp[] = {
    {1, -18.971896743000119}, {2, -1.3461441928048643}, {3, -12.849125554900967},
    {4, -8.9188369891902877}, {5, -9.8473137155276014},
};
inline milp::Model golden_milp(std::uint64_t seed) { return random_binary_mip(10, 6, seed * 733); }

}  // namespace nd::test
