// Fig. 2(a): energy consumption and feasibility of multi-path routing (the
// full problem P1) versus single-path routing (path choice frozen to ρ=0),
// as the horizon scale α grows.
//
// The paper solves both optimally with Gurobi at N=16, M=20. With the
// from-scratch branch-and-bound this bench runs at reduced scale (2×2 mesh,
// M=4, L=3) with per-solve time limits and heuristic warm starts; see
// DESIGN.md. Expected shape (paper): low α infeasible, feasibility and
// energy improve with α, multi-path ≥ single-path on feasibility and ≤ on
// energy.
#include <cstdio>
#include <limits>
#include <vector>

#include "bench_common.hpp"
#include "analysis/solve_deployment.hpp"
#include "common/table.hpp"
#include "deploy/evaluate.hpp"
#include "heuristic/phases.hpp"
#include "model/formulation.hpp"

using namespace nd;  // NOLINT

int main() {
  bench::print_header("Fig. 2(a)", "multi-path vs single-path: energy and feasibility vs alpha");
  std::printf("reduced scale: 2x2 mesh, M=4, L=3, per-solve time limit 10 s, 5 seeds per alpha\n\n");

  const std::vector<double> alphas{0.2, 0.4, 0.6, 0.8, 1.0, 1.2};
  const int seeds = 5;

  Table table({"alpha", "feas_multi", "feas_single", "E_multi[J]", "E_single[J]", "saving[%]"});
  for (const double alpha : alphas) {
    int feas_multi = 0, feas_single = 0;
    double e_multi = 0.0, e_single = 0.0;
    int both = 0;
    for (int s = 0; s < seeds; ++s) {
      bench::Scale sc = bench::reduced_scale();
      sc.alpha = alpha;
      sc.seed = 100 + static_cast<std::uint64_t>(s);
      auto p = bench::make_instance(sc);
      // Warm starts: the fixed-path heuristic variant seeds the single-path
      // model; the better of (full heuristic, single-path incumbent) seeds
      // the multi-path model. Single-path solutions are feasible for the
      // multi-path model by inclusion, which keeps the comparison exact even
      // when the time limit bites.
      heuristic::HeuristicOptions fixed;
      fixed.select_paths = false;
      const auto h_fixed = heuristic::solve_heuristic(*p, fixed);
      const auto h_multi = heuristic::solve_heuristic(*p);

      milp::MipOptions mopt;
      mopt.time_limit_s = 10.0;
      const auto single = analysis::solve_deployment(
          model::Formulation(*p, {model::Objective::kBalanceEnergy, false}), mopt,
          h_fixed.feasible ? &h_fixed.solution : nullptr);
      const deploy::DeploymentSolution* warm_multi = nullptr;
      double warm_obj = std::numeric_limits<double>::infinity();
      if (h_multi.feasible) {
        warm_multi = &h_multi.solution;
        warm_obj = deploy::evaluate_energy(*p, h_multi.solution).max_proc();
      }
      if (single.mip.has_solution() &&
          deploy::evaluate_energy(*p, single.solution).max_proc() < warm_obj) {
        warm_multi = &single.solution;
      }
      const auto multi = analysis::solve_deployment(
          model::Formulation(*p, {model::Objective::kBalanceEnergy, true}), mopt, warm_multi);

      const bool fm = multi.mip.has_solution();
      const bool fs = single.mip.has_solution();
      feas_multi += fm ? 1 : 0;
      feas_single += fs ? 1 : 0;
      if (fm && fs) {
        e_multi += deploy::evaluate_energy(*p, multi.solution).max_proc();
        e_single += deploy::evaluate_energy(*p, single.solution).max_proc();
        ++both;
      }
    }
    const double em = both > 0 ? e_multi / both : 0.0;
    const double es = both > 0 ? e_single / both : 0.0;
    table.add_row({fmt_f(alpha, 2), fmt_i(feas_multi) + "/" + fmt_i(seeds),
                   fmt_i(feas_single) + "/" + fmt_i(seeds), both ? fmt_f(em, 4) : "-",
                   both ? fmt_f(es, 4) : "-",
                   both && es > 0 ? fmt_f(100.0 * (es - em) / es, 2) : "-"});
  }
  std::printf("%s\n%s", table.to_ascii().c_str(), table.to_csv("fig2a").c_str());
  std::printf("\npaper shape: feasibility grows with alpha; multi-path dominates single-path\n");
  return 0;
}
