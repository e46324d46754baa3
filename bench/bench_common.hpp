// Shared instance builders for the figure-reproduction benches.
//
// Two scales are used (see DESIGN.md, substitutions):
//  * paper scale  — 4×4 mesh, M = 20, L = 6: heuristic experiments run here.
//  * reduced scale — 2×2 mesh, L = 3, task count M pinned per bench (table
//    below): experiments that need the exact MILP optimum run here, because
//    the from-scratch branch-and-bound replaces Gurobi. Warm starts come
//    from the heuristic.
//
// Per-bench task counts M — this table is authoritative; DESIGN.md and
// EXPERIMENTS.md reference it rather than restating values:
//
//   | bench                 | M          | scale   |
//   |-----------------------|------------|---------|
//   | fig2a_multipath       | 4          | reduced |
//   | fig2b_alloc_vs_mu     | 5          | reduced |
//   | fig2c_dup_vs_eps      | 4          | reduced |
//   | fig2de_be_vs_me       | 4          | reduced |
//   | fig2fg_opt_vs_heur    | 2–6 sweep  | reduced |
//   | fig2h_feasibility     | 4          | reduced |
//   | baseline_comparison   | 4          | reduced |
//   | ablation_heuristic    | 20         | paper   |
//   | micro_solvers         | 20 (paper-scale cases; M=4 for SA) | both |
#pragma once

#include <cstdio>
#include <memory>
#include <string>

#include "deploy/problem.hpp"

namespace nd::bench {

struct Scale {
  int num_tasks = 20;
  int rows = 4, cols = 4;
  int levels = 6;
  double alpha = 0.8;
  double r_th = 0.995;
  double lambda0 = 2e-5;
  double d = 3.0;
  double comm_energy_scale = 1.0;  ///< multiplies router+link energy (μ sweeps)
  double vf_spread = 0.0;          ///< >0: use VfTable::with_spread(levels, spread)
  /// Per-link heterogeneity of the mesh (noc::MeshParams::variation). 0 makes
  /// the link tensors exactly uniform, which turns the grid's dihedral maps
  /// into provable mesh automorphisms (analysis/presolve symmetry detection).
  double mesh_variation = 0.35;
  std::uint64_t seed = 1;
};

inline Scale paper_scale() { return Scale{}; }

inline Scale reduced_scale() {
  Scale s;
  s.num_tasks = 4;
  s.rows = 2;
  s.cols = 2;
  s.levels = 3;
  return s;
}

/// Sweep corpus scale: reduced scale on a UNIFORM mesh, so the instance-level
/// symmetry reductions provably fire on every seed and BENCH_sweep.json shows
/// a non-trivial presolve footprint (rows/cols removed) to regress against.
/// One task fewer than reduced_scale: B&B enumerates far more of a uniform
/// mesh's equal-objective solutions, and at 3 tasks every sweep seed is still
/// PROVED optimal well inside the cap — which is what makes the sweep's
/// serial/pooled and presolve on/off equality checks non-vacuous.
inline Scale sweep_scale() {
  Scale s = reduced_scale();
  s.num_tasks = 3;
  s.mesh_variation = 0.0;
  return s;
}

/// Stress corpus scale: a 3×3 mesh with six tasks and four V/F levels. The
/// MILP's LP relaxations have thousands of rows and columns, so FTRAN/BTRAN,
/// refactorization and per-node LP time dominate. At this size the B&B does
/// not prove optimality inside a sweep cap, so the preset is a FIXED-BUDGET
/// benchmark: every seed runs to the time limit and a change shows up in
/// node throughput, per-node LP time (`bnb.node_ns` — a time histogram
/// `bench diff` gates on) and wall-clock overshoot (a run can only stop
/// between node LP solves). Heterogeneous mesh (the default variation), so
/// symmetry reductions don't collapse the instance the way sweep_scale does.
inline Scale sweep_stress() {
  Scale s;
  s.num_tasks = 6;
  s.rows = 3;
  s.cols = 3;
  s.levels = 4;
  return s;
}

inline std::unique_ptr<deploy::DeploymentProblem> make_instance(const Scale& sc) {
  Prng prng(sc.seed);
  task::GenParams gen;
  gen.num_tasks = sc.num_tasks;
  gen.width = std::max(2, sc.num_tasks / 5);
  task::TaskGraph graph = task::generate_layered(prng, gen);

  noc::MeshParams mesh;
  mesh.rows = sc.rows;
  mesh.cols = sc.cols;
  mesh.seed = sc.seed + 7777;
  mesh.variation = sc.mesh_variation;
  mesh.router_energy_per_byte *= sc.comm_energy_scale;
  mesh.link_energy_per_byte *= sc.comm_energy_scale;

  dvfs::VfTable vf = (sc.vf_spread > 0.0)
                         ? dvfs::VfTable::with_spread(sc.levels, sc.vf_spread)
                         : [&] {
                             if (sc.levels == 6) return dvfs::VfTable::typical6();
                             return dvfs::VfTable::with_spread(sc.levels, 1.0);
                           }();

  auto p = std::make_unique<deploy::DeploymentProblem>(
      std::move(graph), mesh, std::move(vf),
      reliability::FaultParams{sc.lambda0, sc.d}, sc.r_th, /*horizon=*/1.0);
  p->set_horizon(p->horizon_for_alpha(sc.alpha));
  return p;
}

inline void print_header(const std::string& fig, const std::string& what) {
  std::printf("==========================================================\n");
  std::printf("%s — %s\n", fig.c_str(), what.c_str());
  std::printf("==========================================================\n");
}

}  // namespace nd::bench
