#include <gtest/gtest.h>

#include <cmath>

#include <algorithm>

#include "analysis/solve_deployment.hpp"
#include "deploy/evaluate.hpp"
#include "deploy/validate.hpp"
#include "heuristic/annealing.hpp"
#include "heuristic/phases.hpp"
#include "model/formulation.hpp"
#include "test_util.hpp"

namespace {

using nd::analysis::solve_deployment;
using nd::deploy::DeploymentSolution;
using nd::model::Formulation;
using nd::model::FormulationOptions;
using nd::model::Objective;
using nd::test::tiny_problem;
using nd::test::TinySpec;

using namespace nd;  // NOLINT: tests read better fully qualified from nd::

milp::MipOptions quick_opts(double seconds = 20.0) {
  milp::MipOptions o;
  o.time_limit_s = seconds;
  return o;
}

TEST(Formulation, HeuristicWarmStartIsRowFeasible) {
  // The encoded heuristic point must satisfy EVERY row of the MILP — this is
  // the strongest single consistency check between the two solver paths.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    auto spec = TinySpec{};
    spec.seed = seed;
    spec.num_tasks = 3 + static_cast<int>(seed % 3);
    spec.lambda0 = (seed % 2 == 0) ? 5e-5 : 2e-6;  // with/without duplicates
    auto p = tiny_problem(spec);
    const auto h = heuristic::solve_heuristic(*p);
    if (!h.feasible) continue;
    const Formulation f(*p);
    const auto point = f.encode(h.solution);
    std::string why;
    EXPECT_TRUE(f.model().is_mip_feasible(point, 1e-6, &why))
        << "seed " << seed << ": " << why;
  }
}

TEST(Formulation, EncodeDecodeRoundTrip) {
  auto spec = TinySpec{};
  spec.lambda0 = 5e-5;
  auto p = tiny_problem(spec);
  const auto h = heuristic::solve_heuristic(*p);
  ASSERT_TRUE(h.feasible) << h.why;
  const Formulation f(*p);
  const auto s2 = f.decode(f.encode(h.solution));
  EXPECT_EQ(s2.exists, h.solution.exists);
  EXPECT_EQ(s2.level, h.solution.level);
  EXPECT_EQ(s2.proc, h.solution.proc);
  EXPECT_EQ(s2.path_choice, h.solution.path_choice);
}

TEST(Formulation, ObjectiveMatchesEvaluatorOnEncodedPoint) {
  auto spec = TinySpec{};
  spec.lambda0 = 5e-5;
  auto p = tiny_problem(spec);
  const auto h = heuristic::solve_heuristic(*p);
  ASSERT_TRUE(h.feasible) << h.why;
  const auto rep = deploy::evaluate_energy(*p, h.solution);
  {
    const Formulation f(*p, {Objective::kBalanceEnergy, true});
    const double obj = f.model().lp().objective_value(f.encode(h.solution));
    EXPECT_NEAR(obj, rep.max_proc(), 1e-9 * std::max(1.0, rep.max_proc()));
  }
  {
    const Formulation f(*p, {Objective::kMinimizeEnergy, true});
    const double obj = f.model().lp().objective_value(f.encode(h.solution));
    EXPECT_NEAR(obj, rep.total(), 1e-9 * std::max(1.0, rep.total()));
  }
}

TEST(Formulation, CompletionAcceptsIntegralPlacements) {
  auto spec = TinySpec{};
  spec.lambda0 = 5e-5;
  auto p = tiny_problem(spec);
  const auto h = heuristic::solve_heuristic(*p);
  ASSERT_TRUE(h.feasible) << h.why;
  const Formulation f(*p);
  const auto point = f.encode(h.solution);
  std::vector<double> candidate;
  ASSERT_TRUE(f.complete(point, &candidate));
  std::string why;
  EXPECT_TRUE(f.model().is_mip_feasible(candidate, 1e-6, &why)) << why;
  // The constructive schedule can only tighten the point, never change the
  // energy objective.
  EXPECT_NEAR(f.model().lp().objective_value(candidate),
              f.model().lp().objective_value(point), 1e-9);
}

TEST(Formulation, CompletionRejectsFractionalPlacements) {
  auto p = tiny_problem(TinySpec{});
  const Formulation f(*p);
  std::vector<double> point(static_cast<std::size_t>(f.model().num_vars()), 0.5);
  std::vector<double> candidate;
  EXPECT_FALSE(f.complete(point, &candidate));
}

TEST(Optimal, SolutionValidatesAndBeatsHeuristic) {
  auto spec = TinySpec{};
  spec.num_tasks = 3;
  spec.seed = 5;
  auto p = tiny_problem(spec);
  const auto h = heuristic::solve_heuristic(*p);
  ASSERT_TRUE(h.feasible) << h.why;
  const auto opt = solve_deployment(Formulation(*p), quick_opts(), &h.solution);
  ASSERT_TRUE(opt.mip.has_solution()) << to_string(opt.mip.status);
  const auto val = deploy::validate(*p, opt.solution);
  EXPECT_TRUE(val.ok()) << val.summary();
  const double e_opt = deploy::evaluate_energy(*p, opt.solution).max_proc();
  const double e_heu = deploy::evaluate_energy(*p, h.solution).max_proc();
  EXPECT_LE(e_opt, e_heu + 1e-9) << "optimal cannot be worse than the heuristic";
  EXPECT_NEAR(e_opt, opt.mip.obj, 1e-6 * std::max(1.0, e_opt))
      << "decoded energy must match the MILP objective";
}

TEST(Optimal, MatchesExhaustiveCheckOnTwoTaskChain) {
  // Hand-sized instance where the MILP optimum is easy to reason about:
  // two dependent tasks, reliability trivial, horizon generous. The optimum
  // splits them across processors (BE minimizes the max) unless comm
  // dominates.
  task::TaskGraph g;
  g.add_task(1'000'000'000ull, 10.0);
  g.add_task(1'000'000'000ull, 10.0);
  g.add_edge(0, 1, 1.0e5);  // small payload → splitting wins
  noc::MeshParams mesh;
  mesh.rows = 1;
  mesh.cols = 2;
  mesh.variation = 0.0;
  deploy::DeploymentProblem p(std::move(g), mesh, dvfs::VfTable::typical6(),
                              reliability::FaultParams{1e-9, 1.0}, 0.9, 100.0);
  const auto opt = solve_deployment(Formulation(p), quick_opts());
  ASSERT_EQ(opt.mip.status, milp::MipStatus::kOptimal);
  EXPECT_NE(opt.solution.proc[0], opt.solution.proc[1]) << "BE should split the chain";
  const auto val = deploy::validate(p, opt.solution);
  EXPECT_TRUE(val.ok()) << val.summary();
  // Expected objective: the bigger side = one task at the cheapest level
  // plus its share of the communication energy.
  const auto rep = deploy::evaluate_energy(p, opt.solution);
  EXPECT_NEAR(opt.mip.obj, rep.max_proc(), 1e-6);
}

TEST(Optimal, CommDominatedChainColocates) {
  task::TaskGraph g;
  g.add_task(1'000'000'000ull, 10.0);
  g.add_task(1'000'000'000ull, 10.0);
  g.add_edge(0, 1, 5.0e8);  // 500 MB — communication dwarfs computation
  noc::MeshParams mesh;
  mesh.rows = 1;
  mesh.cols = 2;
  mesh.variation = 0.0;
  deploy::DeploymentProblem p(std::move(g), mesh, dvfs::VfTable::typical6(),
                              reliability::FaultParams{1e-9, 1.0}, 0.9, 1000.0);
  const auto opt = solve_deployment(Formulation(p), quick_opts());
  ASSERT_EQ(opt.mip.status, milp::MipStatus::kOptimal);
  EXPECT_EQ(opt.solution.proc[0], opt.solution.proc[1])
      << "with huge payloads the chain must co-locate";
}

TEST(Optimal, MultiPathNeverWorseThanSinglePath) {
  // Without duplication and on a 2-level table these 3-task instances prove
  // optimal in under a second each way, so both optima are compared on
  // every run.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    auto spec = TinySpec{};
    spec.seed = seed;
    spec.num_tasks = 3;
    spec.lambda0 = 2e-6;
    spec.levels = 2;
    auto p = tiny_problem(spec);
    const auto h = heuristic::solve_heuristic(*p);
    const auto* warm = h.feasible ? &h.solution : nullptr;
    const auto multi =
        solve_deployment(Formulation(*p, {Objective::kBalanceEnergy, true}), quick_opts(), warm);
    const auto single =
        solve_deployment(Formulation(*p, {Objective::kBalanceEnergy, false}), quick_opts());
    ASSERT_EQ(multi.mip.status, milp::MipStatus::kOptimal) << "seed " << seed;
    ASSERT_EQ(single.mip.status, milp::MipStatus::kOptimal) << "seed " << seed;
    EXPECT_LE(multi.mip.obj, single.mip.obj + 1e-9) << "seed " << seed;
  }
}

TEST(Optimal, MinimizeEnergyTotalBelowBalance) {
  auto spec = TinySpec{};
  spec.num_tasks = 3;
  spec.seed = 3;
  auto p = tiny_problem(spec);
  const auto h = heuristic::solve_heuristic(*p);
  const auto* warm = h.feasible ? &h.solution : nullptr;
  const auto be =
      solve_deployment(Formulation(*p, {Objective::kBalanceEnergy, true}), quick_opts(), warm);
  const auto me =
      solve_deployment(Formulation(*p, {Objective::kMinimizeEnergy, true}), quick_opts(), warm);
  ASSERT_TRUE(be.mip.has_solution());
  ASSERT_TRUE(me.mip.has_solution());
  const double total_be = deploy::evaluate_energy(*p, be.solution).total();
  const double total_me = deploy::evaluate_energy(*p, me.solution).total();
  EXPECT_LE(total_me, total_be + 1e-9) << "ME optimizes exactly the total";
  // And ME's decoded total must equal its objective.
  EXPECT_NEAR(total_me, me.mip.obj, 1e-6 * std::max(1.0, total_me));
}

TEST(Formulation, AnnealingSolutionsEncodeRowFeasible) {
  // The SA baseline explores the same decision space; its feasible outputs
  // must encode into row-feasible MILP points too.
  auto spec = TinySpec{};
  spec.lambda0 = 5e-5;
  auto p = tiny_problem(spec);
  heuristic::AnnealOptions aopt;
  aopt.iterations = 3000;
  const auto sa = heuristic::solve_annealing(*p, aopt);
  if (!sa.feasible) {
    SUCCEED();
    return;
  }
  const Formulation f(*p);
  std::string why;
  EXPECT_TRUE(f.model().is_mip_feasible(f.encode(sa.solution), 1e-6, &why)) << why;
}

TEST(Formulation, SinglePathModeDecodesAllZeroPaths) {
  auto p = tiny_problem(TinySpec{});
  // A cold search, so the decoded incumbent is one the single-path model
  // found itself. It holds one within a few dozen nodes; the node budget
  // stops the search long before the time cap.
  milp::MipOptions o = quick_opts(10.0);
  o.node_limit = 50;
  const auto opt =
      solve_deployment(Formulation(*p, {Objective::kBalanceEnergy, false}), o, nullptr);
  ASSERT_TRUE(opt.mip.has_solution()) << to_string(opt.mip.status);
  ASSERT_FALSE(opt.solution.path_choice.empty());
  for (const int rho : opt.solution.path_choice) EXPECT_EQ(rho, 0);
}

TEST(Optimal, InfeasibleHorizonDetected) {
  auto spec = TinySpec{};
  spec.num_tasks = 3;
  spec.alpha = 0.01;
  auto p = tiny_problem(spec);
  const auto opt = solve_deployment(Formulation(*p), quick_opts());
  EXPECT_EQ(opt.mip.status, milp::MipStatus::kInfeasible);
}

TEST(Optimal, DuplicationForcedWhenReliabilityLow) {
  auto spec = TinySpec{};
  spec.num_tasks = 2;
  spec.lambda0 = 5e-5;
  spec.alpha = 2.0;
  auto p = tiny_problem(spec);
  const auto h = heuristic::solve_heuristic(*p);
  const auto* warm = h.feasible ? &h.solution : nullptr;
  const auto opt = solve_deployment(Formulation(*p), quick_opts(), warm);
  ASSERT_TRUE(opt.mip.has_solution());
  const auto val = deploy::validate(*p, opt.solution);
  EXPECT_TRUE(val.ok()) << val.summary();
  // Every original task must end up effectively reliable.
  for (int i = 0; i < p->num_tasks(); ++i) {
    EXPECT_GE(deploy::effective_reliability(*p, opt.solution, i), p->r_th() - 1e-12);
  }
}

}  // namespace
