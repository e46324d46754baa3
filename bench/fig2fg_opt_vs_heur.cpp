// Fig. 2(f,g): computation time and solution energy of the optimal method
// (MILP, Gurobi in the paper → own branch-and-bound here, see DESIGN.md)
// versus the three-phase heuristic, as the task count M grows.
//
// Paper findings: optimal solve time explodes with M while the heuristic
// stays negligible (Fig. 2(f)); the heuristic costs on average 26.05% more
// energy (Fig. 2(g)).
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "analysis/solve_deployment.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"
#include "deploy/evaluate.hpp"
#include "heuristic/phases.hpp"
#include "model/formulation.hpp"

using namespace nd;  // NOLINT

int main() {
  bench::print_header("Fig. 2(f,g)", "solve time and energy: optimal vs heuristic, vs M");
  std::printf(
      "reduced scale: 2x2 mesh, L=3, 3 seeds per M; optimal B&B limited to 30 s per solve "
      "(entries at the limit report the incumbent + gap)\n\n");

  const std::vector<int> task_counts{2, 3, 4, 5, 6};
  Table table({"M", "t_opt[s]", "t_heur[s]", "E_opt[J]", "E_heur[J]", "heur_overhead[%]",
               "gap[%]", "solved"});
  double overhead_sum = 0.0;
  int overhead_n = 0;
  for (const int m : task_counts) {
    double t_opt = 0.0, t_heu = 0.0, e_opt = 0.0, e_heu = 0.0, gap = 0.0;
    int solved = 0;
    for (int s = 0; s < 3; ++s) {
      bench::Scale sc = bench::reduced_scale();
      sc.num_tasks = m;
      sc.alpha = 1.5;
      sc.seed = 900 + static_cast<std::uint64_t>(s);
      auto p = bench::make_instance(sc);
      const auto h = heuristic::solve_heuristic(*p);
      if (!h.feasible) continue;
      milp::MipOptions mopt;
      mopt.time_limit_s = 30.0;
      const auto opt = analysis::solve_deployment(model::Formulation(*p), mopt, &h.solution);
      if (!opt.mip.has_solution()) continue;
      ++solved;
      t_opt += opt.mip.seconds;
      t_heu += h.seconds;
      const double eo = deploy::evaluate_energy(*p, opt.solution).max_proc();
      const double eh = deploy::evaluate_energy(*p, h.solution).max_proc();
      e_opt += eo;
      e_heu += eh;
      gap += 100.0 * opt.mip.gap();
      if (eo > 0.0) {
        overhead_sum += 100.0 * (eh - eo) / eo;
        ++overhead_n;
      }
    }
    table.add_row({fmt_i(m), solved ? fmt_f(t_opt / solved, 3) : "-",
                   solved ? fmt_e(t_heu / solved, 2) : "-",
                   solved ? fmt_f(e_opt / solved, 4) : "-",
                   solved ? fmt_f(e_heu / solved, 4) : "-",
                   solved && e_opt > 0 ? fmt_f(100.0 * (e_heu - e_opt) / e_opt, 2) : "-",
                   solved ? fmt_f(gap / solved, 2) : "-", fmt_i(solved) + "/3"});
  }
  std::printf("%s\n%s", table.to_ascii().c_str(), table.to_csv("fig2fg").c_str());
  if (overhead_n > 0) {
    std::printf("\naverage heuristic energy overhead vs optimal: %.2f %%  (paper: 26.05 %%)\n",
                overhead_sum / overhead_n);
  }
  std::printf("paper shape: optimal time explodes with M, heuristic stays negligible\n");
  return 0;
}
