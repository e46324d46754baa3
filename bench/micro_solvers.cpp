// Micro-benchmarks (google-benchmark) for the substrate hot paths: simplex
// solve and dual re-solve, MILP branch-and-bound, mesh routing, duplication
// transform, heuristic phases, the event simulator and MILP construction.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "common/prng.hpp"
#include "deploy/evaluate.hpp"
#include "heuristic/phases.hpp"
#include "lp/simplex.hpp"
#include "milp/branch_and_bound.hpp"
#include "model/formulation.hpp"
#include "sim/event_sim.hpp"
#include "common/json.hpp"
#include "deploy/serialize.hpp"
#include "heuristic/annealing.hpp"
#include "task/workloads.hpp"

using namespace nd;  // NOLINT

namespace {

lp::Problem random_lp(int n, int m, std::uint64_t seed) {
  Prng g(seed);
  lp::Problem p;
  for (int j = 0; j < n; ++j) p.add_var(0.0, 1.0, g.uniform(-1.0, 1.0));
  for (int r = 0; r < m; ++r) {
    std::vector<std::pair<int, double>> coef;
    for (int j = 0; j < n; ++j) coef.emplace_back(j, g.uniform(-1.0, 1.0));
    p.add_row(coef, lp::Sense::LE, g.uniform(0.5, static_cast<double>(n) / 4));
  }
  return p;
}

// Counters expose the work profile per iteration — pivots,
// refactorizations, FTRAN/BTRAN solves — so a bench diff shows WHERE the
// engine spends, not just how long.
void report_lp_counters(benchmark::State& state, const lp::Simplex::Counters& c) {
  state.counters["pivots"] = static_cast<double>(c.pivots);
  state.counters["refactor"] = static_cast<double>(c.refactorizations);
  state.counters["ftran"] = static_cast<double>(c.ftrans);
  state.counters["btran"] = static_cast<double>(c.btrans);
}

void BM_SimplexSolve(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const lp::Problem p = random_lp(n, n / 2, 42);
  lp::Simplex::Counters last;
  for (auto _ : state) {
    lp::Simplex eng(p);
    benchmark::DoNotOptimize(eng.solve());
    last = eng.counters();
  }
  report_lp_counters(state, last);
  state.SetLabel(std::to_string(n) + " vars");
}
BENCHMARK(BM_SimplexSolve)->Arg(20)->Arg(60)->Arg(150)->Arg(400)->Unit(benchmark::kMicrosecond);

void BM_SimplexDualResolve(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const lp::Problem p = random_lp(n, n / 2, 43);
  lp::Simplex eng(p);
  if (eng.solve() != lp::SolveStatus::kOptimal) state.SkipWithError("base LP not optimal");
  Prng g(7);
  for (auto _ : state) {
    const int j = static_cast<int>(g.uniform_int(0, n - 1));
    const double fix = g.bernoulli(0.5) ? 1.0 : 0.0;
    eng.set_bound(j, fix, fix);
    benchmark::DoNotOptimize(eng.dual_resolve());
    eng.set_bound(j, 0.0, 1.0);
    benchmark::DoNotOptimize(eng.dual_resolve());
  }
  report_lp_counters(state, eng.counters());
  state.SetLabel(std::to_string(n) + " vars");
}
BENCHMARK(BM_SimplexDualResolve)->Arg(60)->Arg(150)->Unit(benchmark::kMicrosecond);

void BM_BranchAndBoundKnapsack(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Prng g(11);
  milp::Model m;
  std::vector<std::pair<int, double>> cap;
  for (int j = 0; j < n; ++j) {
    m.add_bin(-g.uniform(1.0, 10.0));
    cap.emplace_back(j, g.uniform(1.0, 5.0));
  }
  m.add_row(cap, lp::Sense::LE, 0.3 * 3.0 * n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(milp::solve(m));
  }
}
BENCHMARK(BM_BranchAndBoundKnapsack)->Arg(12)->Arg(18)->Unit(benchmark::kMillisecond);

void BM_MeshConstruction(benchmark::State& state) {
  noc::MeshParams mp;
  mp.rows = static_cast<int>(state.range(0));
  mp.cols = static_cast<int>(state.range(0));
  for (auto _ : state) {
    noc::Mesh mesh(mp);
    benchmark::DoNotOptimize(mesh.max_time_per_byte());
  }
  state.SetLabel(std::to_string(mp.rows) + "x" + std::to_string(mp.cols));
}
BENCHMARK(BM_MeshConstruction)->Arg(4)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_DuplicationTransform(benchmark::State& state) {
  Prng g(5);
  task::GenParams gen;
  gen.num_tasks = static_cast<int>(state.range(0));
  const task::TaskGraph graph = task::generate_layered(g, gen);
  for (auto _ : state) {
    task::DuplicatedTaskSet dup(graph);
    benchmark::DoNotOptimize(dup.edges().size());
  }
}
BENCHMARK(BM_DuplicationTransform)->Arg(20)->Arg(100)->Unit(benchmark::kMicrosecond);

void BM_HeuristicFull(benchmark::State& state) {
  bench::Scale sc = bench::paper_scale();
  sc.num_tasks = static_cast<int>(state.range(0));
  sc.alpha = 2.0;
  auto p = bench::make_instance(sc);
  for (auto _ : state) {
    benchmark::DoNotOptimize(heuristic::solve_heuristic(*p));
  }
  state.SetLabel("M=" + std::to_string(sc.num_tasks) + " on 4x4");
}
BENCHMARK(BM_HeuristicFull)->Arg(10)->Arg(20)->Arg(40)->Unit(benchmark::kMillisecond);

void BM_EventSim(benchmark::State& state) {
  bench::Scale sc = bench::paper_scale();
  sc.alpha = 2.0;
  auto p = bench::make_instance(sc);
  const auto h = heuristic::solve_heuristic(*p);
  if (!h.feasible) {
    state.SkipWithError("instance infeasible");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::simulate(*p, h.solution));
  }
}
BENCHMARK(BM_EventSim)->Unit(benchmark::kMicrosecond);

void BM_FormulationBuild(benchmark::State& state) {
  bench::Scale sc = bench::reduced_scale();
  sc.num_tasks = static_cast<int>(state.range(0));
  auto p = bench::make_instance(sc);
  for (auto _ : state) {
    model::Formulation f(*p);
    benchmark::DoNotOptimize(f.model().num_rows());
  }
}
BENCHMARK(BM_FormulationBuild)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_AnnealingIteration(benchmark::State& state) {
  bench::Scale sc = bench::reduced_scale();
  sc.alpha = 2.0;
  auto p = bench::make_instance(sc);
  heuristic::AnnealOptions opt;
  opt.iterations = 1000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(heuristic::solve_annealing(*p, opt));
  }
  state.SetLabel("1000 SA iterations, M=4 on 2x2");
}
BENCHMARK(BM_AnnealingIteration)->Unit(benchmark::kMillisecond);

void BM_JsonRoundTrip(benchmark::State& state) {
  bench::Scale sc = bench::paper_scale();
  auto p = bench::make_instance(sc);
  const std::string doc = deploy::problem_to_json(*p).dump();
  for (auto _ : state) {
    benchmark::DoNotOptimize(json::parse(doc).dump());
  }
  state.SetLabel(std::to_string(doc.size()) + " byte problem document");
}
BENCHMARK(BM_JsonRoundTrip)->Unit(benchmark::kMicrosecond);

void BM_WorkloadDeployment(benchmark::State& state) {
  const auto all = task::all_workloads();
  const auto& w = all[static_cast<std::size_t>(state.range(0))];
  noc::MeshParams mesh;
  task::TaskGraph g = w.graph;
  deploy::DeploymentProblem p(std::move(g), mesh, dvfs::VfTable::typical6(),
                              reliability::FaultParams{2e-5, 3.0}, 0.995, 1.0);
  p.set_horizon(p.horizon_for_alpha(3.0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(heuristic::solve_heuristic(p));
  }
  state.SetLabel(w.name);
}
BENCHMARK(BM_WorkloadDeployment)->DenseRange(0, 3);

}  // namespace

BENCHMARK_MAIN();
