// Extension bench (not a paper figure): the decomposition heuristic vs a
// simulated-annealing baseline vs the exact MILP on shared instances.
// Table-I-style metaheuristics are the usual alternative in this literature;
// this quantifies where the paper's heuristic stands between SA and optimal.
#include <cstdio>

#include "bench_common.hpp"
#include "analysis/solve_deployment.hpp"
#include "common/table.hpp"
#include "deploy/evaluate.hpp"
#include "heuristic/annealing.hpp"
#include "heuristic/phases.hpp"
#include "model/formulation.hpp"

using namespace nd;  // NOLINT

int main() {
  bench::print_header("Baselines", "decomposition heuristic vs simulated annealing vs optimal");
  std::printf("reduced scale: 2x2 mesh, M=4, L=3, SA 30k iters, optimal B&B 20 s limit\n\n");

  Table table({"seed", "E_heur[J]", "E_sa[J]", "E_opt[J]", "t_heur[s]", "t_sa[s]", "t_opt[s]",
               "opt_status"});
  double sum_h = 0.0, sum_s = 0.0, sum_o = 0.0;
  int solved = 0;
  for (int s = 0; s < 8; ++s) {
    bench::Scale sc = bench::reduced_scale();
    sc.alpha = 2.0;
    sc.seed = 2100 + static_cast<std::uint64_t>(s);
    auto p = bench::make_instance(sc);
    const auto h = heuristic::solve_heuristic(*p);
    if (!h.feasible) continue;
    heuristic::AnnealOptions aopt;
    aopt.seed = sc.seed;
    const auto sa = heuristic::solve_annealing(*p, aopt);
    milp::MipOptions mopt;
    mopt.time_limit_s = 20.0;
    // Warm-start the MILP with the best feasible point either method found,
    // so its incumbent dominates both even when the time limit bites.
    const deploy::DeploymentSolution* warm = &h.solution;
    if (sa.feasible &&
        sa.objective < deploy::evaluate_energy(*p, h.solution).max_proc()) {
      warm = &sa.solution;
    }
    const auto opt = analysis::solve_deployment(model::Formulation(*p), mopt, warm);
    if (!sa.feasible || !opt.mip.has_solution()) continue;
    const double eh = deploy::evaluate_energy(*p, h.solution).max_proc();
    const double es = sa.objective;
    const double eo = deploy::evaluate_energy(*p, opt.solution).max_proc();
    ++solved;
    sum_h += eh;
    sum_s += es;
    sum_o += eo;
    table.add_row({fmt_i(static_cast<long long>(sc.seed)), fmt_f(eh, 4), fmt_f(es, 4),
                   fmt_f(eo, 4), fmt_e(h.seconds, 1), fmt_f(sa.seconds, 2),
                   fmt_f(opt.mip.seconds, 2), to_string(opt.mip.status)});
  }
  std::printf("%s\n%s", table.to_ascii().c_str(), table.to_csv("baselines").c_str());
  if (solved > 0) {
    std::printf("\naverages: heuristic %.4f J, annealing %.4f J, optimal %.4f J\n",
                sum_h / solved, sum_s / solved, sum_o / solved);
    std::printf("expected ordering: optimal <= annealing <= heuristic (SA refines the\n"
                "heuristic seed; the MILP bounds both)\n");
  }
  return 0;
}
