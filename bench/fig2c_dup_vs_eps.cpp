// Fig. 2(c): influence of the V/F-table energy gap
//   ε = max_l(P_l/f_l) / min_l(P_l/f_l)
// on the number of duplicated tasks M_d. Small ε: one copy at a high
// (reliable) frequency is energy-competitive, so the optimizer avoids
// duplication. Large ε: high frequencies cost disproportionally much, so two
// cheap low-frequency copies win — M_d grows with ε.
//
// The tradeoff is resolved by the *optimizer* (eq. (4) forces a duplicate
// exactly when the chosen level is unreliable, so the decision is the level
// choice): this bench runs the MILP at reduced scale (2×2, M=4, L=3 with a
// swept voltage spread; Gurobi → own B&B per DESIGN.md). The heuristic's
// M_d is reported as a baseline: Algorithm 1 greedily picks the cheapest
// deadline-feasible level, so its duplication count barely reacts to ε.
// Frequencies are held fixed across the sweep, so reliability (and hence the
// duplication *trigger* per level) is identical — only energy shifts.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "analysis/solve_deployment.hpp"
#include "common/table.hpp"
#include "deploy/solution.hpp"
#include "heuristic/phases.hpp"
#include "model/formulation.hpp"

using namespace nd;  // NOLINT

int main() {
  bench::print_header("Fig. 2(c)", "duplicated tasks M_d vs energy-gap index eps");
  std::printf(
      "reduced scale: 2x2 mesh, M=4, L=3 (voltage spread swept), optimal B&B 10 s limit, "
      "5 seeds per point\n\n");

  const std::vector<double> spreads{0.4, 0.8, 1.2, 1.6, 2.0};
  const int seeds = 5;

  Table table({"spread", "eps", "Md_opt", "Md_heur", "solved"});
  for (const double spread : spreads) {
    double eps = 0.0, md_opt = 0.0, md_heu = 0.0;
    int solved = 0;
    for (int s = 0; s < seeds; ++s) {
      bench::Scale sc = bench::reduced_scale();
      sc.vf_spread = spread;
      sc.lambda0 = 5e-5;  // reliability pressure so duplication is in play
      sc.alpha = 3.0;     // room for the extra copies
      sc.seed = 500 + static_cast<std::uint64_t>(s);
      auto p = bench::make_instance(sc);
      const auto h = heuristic::solve_heuristic(*p);
      if (!h.feasible) continue;
      milp::MipOptions mopt;
      mopt.time_limit_s = 10.0;
      const auto opt = analysis::solve_deployment(model::Formulation(*p), mopt, &h.solution);
      if (!opt.mip.has_solution()) continue;
      ++solved;
      eps += p->vf().energy_gap_eps();
      md_opt += opt.solution.num_duplicates(p->num_tasks());
      md_heu += h.solution.num_duplicates(p->num_tasks());
    }
    table.add_row({fmt_f(spread, 2), solved ? fmt_f(eps / solved, 3) : "-",
                   solved ? fmt_f(md_opt / solved, 2) : "-",
                   solved ? fmt_f(md_heu / solved, 2) : "-",
                   fmt_i(solved) + "/" + fmt_i(seeds)});
  }
  std::printf("%s\n%s", table.to_ascii().c_str(), table.to_csv("fig2c").c_str());
  std::printf("\npaper shape: M_d increases with eps\n");
  return 0;
}
