// Fig. 2(d,e): Balancing Energy (BE, the paper's P1: min max_k E_k) versus
// Minimizing Energy (ME: min Σ_k E_k). Paper findings: ME's total energy is
// lower (avg 13.62%), but BE achieves a much smaller balance index
// φ = max_k E_k / min_k E_k (over processors with E_k ≠ 0).
//
// Reduced scale (2×2, M=4, L=3) with the own B&B (see DESIGN.md),
// heuristic warm starts and per-solve time limits.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "analysis/solve_deployment.hpp"
#include "common/table.hpp"
#include "deploy/evaluate.hpp"
#include "heuristic/phases.hpp"
#include "model/formulation.hpp"

using namespace nd;  // NOLINT

int main() {
  bench::print_header("Fig. 2(d,e)", "BE vs ME: total energy and balance index phi");
  std::printf("reduced scale: 2x2 mesh, M=4, L=3, alpha=1.8, lambda0=2e-6, comm x16, optimal B&B 10 s limit, 8 seeds\n\n");

  Table table({"seed", "E_total_BE[J]", "E_total_ME[J]", "ME_saving[%]", "phi_BE", "phi_ME"});
  double sum_saving = 0.0, sum_phi_be = 0.0, sum_phi_me = 0.0;
  int solved = 0;
  for (int s = 0; s < 8; ++s) {
    bench::Scale sc = bench::reduced_scale();
    // alpha = 1.8 keeps the heuristic warm start feasible (Algorithm 1 runs
    // everything at the slowest level); lambda small (no duplicates) and a
    // 16x communication scale so the BE/ME tension is about where comm is
    // paid, matching the regime of the paper's Fig. 2(d,e).
    sc.alpha = 1.8;
    sc.lambda0 = 2e-6;
    sc.comm_energy_scale = 16.0;
    sc.seed = 700 + static_cast<std::uint64_t>(s);
    auto p = bench::make_instance(sc);
    auto h = heuristic::solve_heuristic(*p);
    if (!h.feasible) {
      heuristic::HeuristicOptions no_placeholder;
      no_placeholder.phase2.comm_placeholder = false;
      h = heuristic::solve_heuristic(*p, no_placeholder);
    }
    if (!h.feasible) continue;
    milp::MipOptions mopt;
    mopt.time_limit_s = 10.0;
    const auto be = analysis::solve_deployment(
        model::Formulation(*p, {model::Objective::kBalanceEnergy, true}), mopt, &h.solution);
    // ME gets the BE incumbent as an extra warm candidate: any BE-feasible
    // deployment is ME-feasible, and a good one speeds the min-sum search.
    const deploy::DeploymentSolution* warm_me = &h.solution;
    if (be.mip.has_solution() &&
        deploy::evaluate_energy(*p, be.solution).total() <
            deploy::evaluate_energy(*p, h.solution).total()) {
      warm_me = &be.solution;
    }
    const auto me = analysis::solve_deployment(
        model::Formulation(*p, {model::Objective::kMinimizeEnergy, true}), mopt, warm_me);
    if (!be.mip.has_solution() || !me.mip.has_solution()) continue;
    const auto rep_be = deploy::evaluate_energy(*p, be.solution);
    const auto rep_me = deploy::evaluate_energy(*p, me.solution);
    const double saving = 100.0 * (rep_be.total() - rep_me.total()) / rep_be.total();
    ++solved;
    sum_saving += saving;
    sum_phi_be += rep_be.phi();
    sum_phi_me += rep_me.phi();
    table.add_row({fmt_i(static_cast<long long>(sc.seed)), fmt_f(rep_be.total(), 4),
                   fmt_f(rep_me.total(), 4), fmt_f(saving, 2), fmt_f(rep_be.phi(), 3),
                   fmt_f(rep_me.phi(), 3)});
  }
  std::printf("%s\n%s", table.to_ascii().c_str(), table.to_csv("fig2de").c_str());
  if (solved > 0) {
    std::printf("\naverages over %d solved instances:\n", solved);
    std::printf("  ME total-energy saving vs BE : %.2f %%  (paper: 13.62 %%)\n",
                sum_saving / solved);
    std::printf("  phi BE : %.3f   phi ME : %.3f  (paper shape: phi_BE < phi_ME)\n",
                sum_phi_be / solved, sum_phi_me / solved);
  }
  return 0;
}
