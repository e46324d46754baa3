// Fig. 2(b): influence of the communication/computation energy ratio
//   μ = e^comm / e^comp
// on the allocation decision, measured as M_max = max_k |{tasks on θ_k}|.
// Larger μ ⇒ dependent tasks cluster on fewer processors to avoid paying
// for NoC transfers.
//
// The clustering is an *optimizer* effect, so this bench runs the MILP at
// reduced scale (2×2 mesh, M=5, L=3; Gurobi → own B&B, see DESIGN.md) with
// heuristic warm starts. The heuristic's own M_max is reported as a
// baseline: its allocation phase uses the paper's constant communication
// placeholder, so it reacts only weakly to μ — visible in the table.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "analysis/solve_deployment.hpp"
#include "common/table.hpp"
#include "deploy/evaluate.hpp"
#include "heuristic/annealing.hpp"
#include "heuristic/phases.hpp"
#include "model/formulation.hpp"

using namespace nd;  // NOLINT

int main() {
  bench::print_header("Fig. 2(b)", "M_max vs mu (comm/comp energy ratio)");
  std::printf(
      "reduced scale: 2x2 mesh, M=5, L=3, optimal (B&B, 10 s limit) with heuristic warm "
      "start, 5 seeds per point\n\n");

  const std::vector<double> scales{1.0, 16.0, 128.0, 512.0, 2048.0};
  const int seeds = 5;

  Table table({"comm_scale", "mu", "Mmax_opt", "Mmax_heur", "solved"});
  for (const double scale : scales) {
    double mu_sum = 0.0, mmax_opt = 0.0, mmax_heu = 0.0;
    int solved = 0;
    for (int s = 0; s < seeds; ++s) {
      bench::Scale sc = bench::reduced_scale();
      sc.num_tasks = 5;
      sc.comm_energy_scale = scale;
      sc.alpha = 2.5;  // room to co-locate (serialization needs horizon slack)
      sc.seed = 300 + static_cast<std::uint64_t>(s);
      auto p = bench::make_instance(sc);
      // At extreme μ the paper's constant comm placeholder overwhelms
      // Algorithm 2 and the heuristic over-clusters into infeasibility; fall
      // back to the placeholder-free variant for the warm start then.
      auto h = heuristic::solve_heuristic(*p);
      if (!h.feasible) {
        heuristic::HeuristicOptions no_placeholder;
        no_placeholder.phase2.comm_placeholder = false;
        h = heuristic::solve_heuristic(*p, no_placeholder);
      }
      if (!h.feasible) continue;
      // Refine with simulated annealing: at high μ the clustering payoff is
      // found by search, and the MILP then starts from (and proves around)
      // the better incumbent.
      heuristic::AnnealOptions aopt;
      aopt.seed = sc.seed;
      const auto sa = heuristic::solve_annealing(*p, aopt);
      const deploy::DeploymentSolution* warm = &h.solution;
      if (sa.feasible &&
          sa.objective < deploy::evaluate_energy(*p, h.solution).max_proc()) {
        warm = &sa.solution;
      }
      milp::MipOptions mopt;
      mopt.time_limit_s = 10.0;
      const auto opt = analysis::solve_deployment(model::Formulation(*p), mopt, warm);
      if (!opt.mip.has_solution()) continue;
      ++solved;
      mu_sum += p->mu_index();
      mmax_opt += opt.solution.max_tasks_per_proc(p->num_procs());
      mmax_heu += h.solution.max_tasks_per_proc(p->num_procs());
    }
    table.add_row({fmt_f(scale, 2), solved ? fmt_f(mu_sum / solved, 4) : "-",
                   solved ? fmt_f(mmax_opt / solved, 2) : "-",
                   solved ? fmt_f(mmax_heu / solved, 2) : "-",
                   fmt_i(solved) + "/" + fmt_i(seeds)});
  }
  std::printf("%s\n%s", table.to_ascii().c_str(), table.to_csv("fig2b").c_str());
  std::printf("\npaper shape: M_max increases with mu (co-location saves NoC energy)\n");
  return 0;
}
