// Fig. 2(h): problem feasibility ratio δ = n_f / n_a versus the horizon
// scale α, for the optimal method and the heuristic, over n_a = 30 random
// task graphs per point (as in the paper).
//
// Paper findings: δ grows with α; the optimal method's δ dominates the
// heuristic's, because the heuristic fixes variables phase by phase.
// Reduced scale (2×2 mesh, M=4, L=3). For the optimal column, a heuristic-
// feasible instance is feasible by inclusion (no MILP run needed); otherwise
// the B&B runs with a short limit and reports found/proved-infeasible/
// unknown (unknowns are counted as infeasible, which only underestimates
// the optimal curve).
//
// The n_a seeds of each point are independent, so they run across a
// ThreadPool (NOCDEPLOY_THREADS overrides the width). Every seed writes only
// its own slot of a pre-sized result vector and the counts are reduced after
// the pool drains, so the printed table is identical for any thread count.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "analysis/solve_deployment.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "heuristic/phases.hpp"
#include "model/formulation.hpp"

using namespace nd;  // NOLINT

namespace {

enum class SeedOutcome { kBothFeasible, kMilpOnly, kInfeasible, kUnknown };

SeedOutcome run_seed(double alpha, int s) {
  bench::Scale sc = bench::reduced_scale();
  sc.alpha = alpha;
  sc.seed = 1100 + static_cast<std::uint64_t>(s);
  auto p = bench::make_instance(sc);
  const auto h = heuristic::solve_heuristic(*p);
  if (h.feasible) return SeedOutcome::kBothFeasible;  // heuristic ⊂ MILP-feasible
  milp::MipOptions mopt;
  mopt.time_limit_s = 5.0;
  const auto opt = analysis::solve_deployment(model::Formulation(*p), mopt);
  if (opt.mip.has_solution()) return SeedOutcome::kMilpOnly;
  if (opt.mip.status == milp::MipStatus::kUnknown) return SeedOutcome::kUnknown;
  return SeedOutcome::kInfeasible;
}

}  // namespace

int main() {
  bench::print_header("Fig. 2(h)", "feasibility ratio delta vs alpha, optimal vs heuristic");
  const int n_a = 30;
  ThreadPool pool(0);  // machine default; NOCDEPLOY_THREADS overrides
  std::printf("reduced scale: 2x2 mesh, M=4, L=3, n_a=%d task graphs per point\n\n", n_a);

  const std::vector<double> alphas{0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.5, 2.0, 2.5};
  Table table({"alpha", "delta_opt", "delta_heur", "milp_unknown"});
  for (const double alpha : alphas) {
    std::vector<SeedOutcome> outcomes(static_cast<std::size_t>(n_a));
    parallel_for(pool, n_a,
                 [&](int s) { outcomes[static_cast<std::size_t>(s)] = run_seed(alpha, s); });
    int feas_opt = 0, feas_heu = 0, unknown = 0;
    for (const SeedOutcome o : outcomes) {
      if (o == SeedOutcome::kBothFeasible) ++feas_heu;
      if (o == SeedOutcome::kBothFeasible || o == SeedOutcome::kMilpOnly) ++feas_opt;
      if (o == SeedOutcome::kUnknown) ++unknown;
    }
    table.add_row({fmt_f(alpha, 2), fmt_f(static_cast<double>(feas_opt) / n_a, 3),
                   fmt_f(static_cast<double>(feas_heu) / n_a, 3), fmt_i(unknown)});
  }
  std::printf("%s\n%s", table.to_ascii().c_str(), table.to_csv("fig2h").c_str());
  std::printf("\npaper shape: delta grows with alpha; optimal >= heuristic\n");
  return 0;
}
