// Tests for the work-sharing branch-and-bound (milp/branch_and_bound.cpp)
// at one and more threads, and the audit-shard merge
// (milp::merge_audit_shards) followed by the audit replay
// (analysis::certify_bnb_exact).
//
// The determinism contract under test: for every thread count the solver
// proves the SAME optimal objective, and every audit log it emits — whatever
// tree shape the schedule produced — replays cleanly through
// analysis::certify_bnb_exact, root certificate and root fixings included.
// The single-thread result is the reference; it is itself validated against
// brute force in test_milp.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "analysis/exact/certify_bnb_exact.hpp"
#include "analysis/diagnostics.hpp"
#include "common/prng.hpp"
#include "milp/audit.hpp"
#include "milp/branch_and_bound.hpp"
#include "milp/model.hpp"
#include "obs/obs.hpp"

namespace {

using nd::analysis::Report;
using nd::lp::Sense;
using nd::milp::AuditLog;
using nd::milp::MipOptions;
using nd::milp::MipStatus;
using nd::milp::Model;
using nd::milp::NodeDisp;

// minimize -x0 - 0.9 x1  s.t.  x0 + x1 <= 7.5,  x0, x1 in [0,10] integer.
// Fractional LP relaxation, so every thread count has to branch.
Model staircase_model() {
  Model m;
  const int x0 = m.add_int(0.0, 10.0, -1.0, "x0");
  const int x1 = m.add_int(0.0, 10.0, -0.9, "x1");
  m.add_row({{x0, 1.0}, {x1, 1.0}}, Sense::LE, 7.5);
  return m;
}

/// Seeded random binary program with a handful of mixed-sense rows — the
/// same family the one-thread search is brute-force-validated on.
Model random_binary_model(int seed) {
  nd::Prng g(static_cast<std::uint64_t>(seed) * 104729 + 17);
  const int n = static_cast<int>(g.uniform_int(6, 12));
  const int rows = static_cast<int>(g.uniform_int(2, 6));
  Model m;
  for (int j = 0; j < n; ++j) m.add_bin(g.uniform(-5.0, 5.0));
  for (int r = 0; r < rows; ++r) {
    std::vector<std::pair<int, double>> coef;
    for (int j = 0; j < n; ++j) {
      if (g.bernoulli(0.7)) coef.emplace_back(j, g.uniform(-3.0, 3.0));
    }
    if (coef.empty()) coef.emplace_back(0, 1.0);
    const auto sense = static_cast<Sense>(g.uniform_int(0, 1));
    m.add_row(coef, sense, g.uniform(-2.0, 4.0));
  }
  return m;
}

/// Seeded two-row knapsack over integers in [0, 3] with integer objective
/// and row coefficients: ties between node bounds and integer points are
/// common, so even one thread skips siblings under their parent's bound.
Model integer_knapsack_model(int seed) {
  nd::Prng g(static_cast<std::uint64_t>(seed) * 7919 + 3);
  const int n = static_cast<int>(g.uniform_int(5, 9));
  Model m;
  std::vector<std::pair<int, double>> a, b;
  for (int j = 0; j < n; ++j) {
    m.add_int(0.0, 3.0, -static_cast<double>(g.uniform_int(1, 4)));
    a.emplace_back(j, static_cast<double>(g.uniform_int(1, 6)));
    b.emplace_back(j, static_cast<double>(g.uniform_int(1, 6)));
  }
  m.add_row(a, Sense::LE, static_cast<double>(g.uniform_int(8, 20)));
  m.add_row(b, Sense::LE, static_cast<double>(g.uniform_int(8, 20)));
  return m;
}

struct SolveOut {
  nd::milp::MipResult res;
  AuditLog audit;
};

SolveOut solve_with_threads(const Model& m, int threads, MipOptions opt = {}) {
  SolveOut out;
  opt.num_threads = threads;
  opt.audit = &out.audit;
  out.res = nd::milp::solve(m, opt);
  return out;
}

/// A solve plus the obs counter totals of a session opened around it (empty
/// when telemetry is compiled out).
struct CountedSolve {
  SolveOut out;
  std::map<std::string, long long> counters;
};

CountedSolve solve_counted(const Model& m, int threads, MipOptions opt = {}) {
  CountedSolve c;
  const bool own_session = nd::obs::start();
  c.out = solve_with_threads(m, threads, std::move(opt));
  if (own_session) c.counters = nd::obs::stop().counters;
  return c;
}

long long counter_of(const std::map<std::string, long long>& counters, const char* name) {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

// ---------------------------------------------------------------------------
// Determinism: same proved objective at 1, 2 and 4 threads; every audit
// certifies.

TEST(ParallelBnb, StaircaseSameObjectiveEveryThreadCount) {
  const Model m = staircase_model();
  const SolveOut ref = solve_with_threads(m, 1);
  ASSERT_EQ(ref.res.status, MipStatus::kOptimal);
  EXPECT_NEAR(ref.res.obj, -7.0, 1e-6);
  for (const int threads : {2, 4}) {
    const SolveOut par = solve_with_threads(m, threads);
    ASSERT_EQ(par.res.status, MipStatus::kOptimal) << "threads " << threads;
    EXPECT_NEAR(par.res.obj, ref.res.obj, 1e-6) << "threads " << threads;
    EXPECT_TRUE(m.is_mip_feasible(par.res.x, 1e-6)) << "threads " << threads;
    const Report rep = nd::analysis::certify_bnb_exact(m, par.audit).report;
    EXPECT_EQ(rep.num_errors(), 0) << "threads " << threads << "\n" << rep.to_table();
  }
}

class ParallelBnbSeeds : public ::testing::TestWithParam<int> {};

TEST_P(ParallelBnbSeeds, SameProvedOptimumAndCertifiableAudit) {
  const Model m = random_binary_model(GetParam());
  const SolveOut ref = solve_with_threads(m, 1);
  {
    const Report rep = nd::analysis::certify_bnb_exact(m, ref.audit).report;
    EXPECT_EQ(rep.num_errors(), 0) << "1 thread\n" << rep.to_table();
  }
  for (const int threads : {2, 4}) {
    const SolveOut par = solve_with_threads(m, threads);
    ASSERT_EQ(par.res.status, ref.res.status)
        << "threads " << threads << " seed " << GetParam();
    if (ref.res.status == MipStatus::kOptimal) {
      const double scale = 1.0 + std::abs(ref.res.obj);
      EXPECT_NEAR(par.res.obj, ref.res.obj, 1e-5 * scale)
          << "threads " << threads << " seed " << GetParam();
      EXPECT_TRUE(m.is_mip_feasible(par.res.x, 1e-6));
    }
    const Report rep = nd::analysis::certify_bnb_exact(m, par.audit).report;
    EXPECT_EQ(rep.num_errors(), 0)
        << "threads " << threads << " seed " << GetParam() << "\n" << rep.to_table();
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ParallelBnbSeeds, ::testing::Range(0, 5));

// ---------------------------------------------------------------------------
// The optional hooks at several threads.

TEST(ParallelBnb, WarmStartSeedsTheSharedIncumbent) {
  const Model m = staircase_model();
  const std::vector<double> warm = {7.0, 0.0};  // feasible, obj -7.0: optimal
  MipOptions opt;
  opt.warm_start = &warm;
  const SolveOut par = solve_with_threads(m, 4, opt);
  ASSERT_EQ(par.res.status, MipStatus::kOptimal);
  EXPECT_NEAR(par.res.obj, -7.0, 1e-6);
  EXPECT_TRUE(par.audit.warm_accepted);
  const Report rep = nd::analysis::certify_bnb_exact(m, par.audit).report;
  EXPECT_EQ(rep.num_errors(), 0) << rep.to_table();
}

TEST(ParallelBnb, CompletionHeuristicRunsOnWorkers) {
  // Knapsack with positive weights: flooring any LP point stays feasible, so
  // a floor-completion is a valid (if weak) heuristic on every node.
  Model m;
  const std::vector<double> w = {3.0, 5.0, 7.0, 4.0, 6.0};
  for (std::size_t j = 0; j < w.size(); ++j) {
    m.add_int(0.0, 3.0, -1.0 - 0.1 * static_cast<double>(j));
  }
  std::vector<std::pair<int, double>> coef;
  for (std::size_t j = 0; j < w.size(); ++j) {
    coef.emplace_back(static_cast<int>(j), w[j]);
  }
  m.add_row(coef, Sense::LE, 21.0);

  MipOptions opt;
  opt.completion = [](const std::vector<double>& lp, std::vector<double>* out) {
    out->resize(lp.size());
    for (std::size_t j = 0; j < lp.size(); ++j) {
      (*out)[j] = std::floor(lp[j] + 1e-9);
    }
    return true;
  };
  const SolveOut ref = solve_with_threads(m, 1, opt);
  ASSERT_EQ(ref.res.status, MipStatus::kOptimal);
  const SolveOut par = solve_with_threads(m, 4, opt);
  ASSERT_EQ(par.res.status, MipStatus::kOptimal);
  EXPECT_NEAR(par.res.obj, ref.res.obj, 1e-6);
  const Report rep = nd::analysis::certify_bnb_exact(m, par.audit).report;
  EXPECT_EQ(rep.num_errors(), 0) << rep.to_table();
}

TEST(ParallelBnb, InfeasibleModelProvedOnEveryThreadCount) {
  Model m;
  const int x0 = m.add_bin(1.0);
  const int x1 = m.add_bin(1.0);
  m.add_row({{x0, 1.0}, {x1, 1.0}}, Sense::GE, 3.0);  // two binaries can't sum to 3
  for (const int threads : {1, 2, 4}) {
    const SolveOut out = solve_with_threads(m, threads);
    EXPECT_EQ(out.res.status, MipStatus::kInfeasible) << "threads " << threads;
    const Report rep = nd::analysis::certify_bnb_exact(m, out.audit).report;
    EXPECT_EQ(rep.num_errors(), 0) << "threads " << threads << "\n" << rep.to_table();
  }
}

TEST(ParallelBnb, NodeLimitYieldsHonestNonOptimalAudit) {
  const Model m = random_binary_model(1);
  MipOptions opt;
  opt.node_limit = 3;
  // This test targets the raw tree-limit path: root presolve shrinks the
  // model enough that three nodes can prove optimality, so turn it off.
  opt.presolve = false;
  for (const int threads : {1, 2, 4}) {
    const SolveOut out = solve_with_threads(m, threads, opt);
    EXPECT_NE(out.res.status, MipStatus::kOptimal) << "threads " << threads;
    if (out.res.has_solution()) {
      EXPECT_LE(out.res.best_bound, out.res.obj + 1e-9) << "threads " << threads;
    }
    // A truncated tree (limit / unprocessed leaves) must still replay cleanly
    // for its claimed non-proved status.
    const Report rep = nd::analysis::certify_bnb_exact(m, out.audit).report;
    EXPECT_EQ(rep.num_errors(), 0) << "threads " << threads << "\n" << rep.to_table();
    if (threads != 1) continue;
    // One thread: the node that trips the limit is counted, and every
    // sibling still pending on the depth-first stack is recorded unreached.
    EXPECT_EQ(out.res.nodes, opt.node_limit + 1);
    std::vector<int> children(out.audit.nodes.size(), 0);
    int unprocessed = 0;
    for (const auto& n : out.audit.nodes) {
      if (n.parent >= 0) ++children[static_cast<std::size_t>(n.parent)];
      if (n.disp == NodeDisp::kUnprocessed) ++unprocessed;
    }
    EXPECT_GE(unprocessed, 1);
    for (const auto& n : out.audit.nodes) {
      if (n.disp == NodeDisp::kBranched) {
        EXPECT_EQ(children[static_cast<std::size_t>(n.id)], 2) << "node " << n.id;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// One driver: one thread is the degenerate case of the work-sharing search.

TEST(ParallelBnb, OneThreadSolvesOnlyTheRootCold) {
  if (!nd::obs::compiled_in()) {
    SUCCEED() << "telemetry compiled out: no bnb.par.* counters to read";
    return;
  }
  const CountedSolve c = solve_counted(staircase_model(), 1);
  ASSERT_EQ(c.out.res.status, MipStatus::kOptimal);
  ASSERT_GT(c.out.res.nodes, 1);
  // Every pop after the root is on the engine's path, so it is warm.
  EXPECT_EQ(counter_of(c.counters, "bnb.par.cold_solves"), 1);
  EXPECT_EQ(counter_of(c.counters, "bnb.par.warm_resolves"), c.out.res.nodes - 1);
  EXPECT_EQ(counter_of(c.counters, "bnb.par.donations"), 0);
}

// The counting rule: a node whose parent bound already clears the cutoff is
// skipped before it is counted, a node left unreached by a limit is never
// counted, and every other node (the one a limit cuts off included) is.
TEST(ParallelBnb, NodeCountIsEveryAdmittedNode) {
  std::vector<std::pair<std::string, Model>> models;
  for (int seed = 0; seed < 5; ++seed) {
    models.emplace_back("binary " + std::to_string(seed), random_binary_model(seed));
  }
  // One thread skips siblings on these two (3 and 5 skips).
  for (const int seed : {22, 55}) {
    models.emplace_back("knapsack " + std::to_string(seed), integer_knapsack_model(seed));
  }
  long long skipped = 0;
  long long limit_cut = 0;
  for (const auto& [name, m] : models) {
    for (const std::int64_t node_limit : {std::int64_t{3}, MipOptions{}.node_limit}) {
      for (const int threads : {1, 2, 4}) {
        MipOptions opt;
        opt.node_limit = node_limit;
        opt.presolve = false;
        const CountedSolve c = solve_counted(m, threads, opt);
        long long counted = 0;
        for (const auto& n : c.out.audit.nodes) {
          if (n.disp == NodeDisp::kSkippedParentBound) {
            ++skipped;
          } else if (n.disp != NodeDisp::kUnprocessed) {
            ++counted;
          }
          if (n.disp == NodeDisp::kLimit) ++limit_cut;
        }
        const std::string where = name + " limit " + std::to_string(node_limit) +
                                  " threads " + std::to_string(threads);
        EXPECT_EQ(c.out.res.nodes, counted) << where;
        if (nd::obs::compiled_in()) {
          EXPECT_EQ(counter_of(c.counters, "bnb.nodes"), c.out.res.nodes) << where;
        }
      }
    }
  }
  // Both sides of the rule were exercised.
  EXPECT_GT(skipped, 0);
  EXPECT_GT(limit_cut, 0);
}

TEST(ParallelBnb, ThreadCountZeroUsesDefaultAndSolves) {
  const Model m = staircase_model();
  MipOptions opt;
  opt.num_threads = 0;  // ThreadPool::default_threads(), whatever that is here
  AuditLog audit;
  opt.audit = &audit;
  const auto res = nd::milp::solve(m, opt);
  ASSERT_EQ(res.status, MipStatus::kOptimal);
  EXPECT_NEAR(res.obj, -7.0, 1e-6);
  const Report rep = nd::analysis::certify_bnb_exact(m, audit).report;
  EXPECT_EQ(rep.num_errors(), 0) << rep.to_table();
}

// ---------------------------------------------------------------------------
// Shard merge unit behaviour.

TEST(AuditShards, MergeRestoresIdOrderAndRefiltersIncumbents) {
  using nd::milp::AuditNode;
  using nd::milp::AuditShard;
  // Worker A processed nodes 0 and 2; worker B processed node 1. Wall-clock
  // order was 2 before 1: node 2 recorded the first update (-3), then node 1
  // beat it (-5). Both were genuine improvements when recorded, but in id
  // order node 2's -3 follows node 1's -5 and is no longer improving — the
  // merge must drop its flag.
  AuditNode n0, n1, n2;
  n0.id = 0;
  n1.id = 1;
  n1.incumbent_update = true;
  n1.incumbent_obj = -5.0;
  n2.id = 2;
  n2.incumbent_update = true;
  n2.incumbent_obj = -3.0;
  AuditShard a, b;
  a.nodes = {n0, n2};
  b.nodes = {n1};
  AuditLog log;
  ASSERT_TRUE(nd::milp::merge_audit_shards({a, b}, &log));
  ASSERT_EQ(log.nodes.size(), 3u);
  EXPECT_EQ(log.nodes[0].id, 0);
  EXPECT_EQ(log.nodes[1].id, 1);
  EXPECT_EQ(log.nodes[2].id, 2);
  EXPECT_TRUE(log.nodes[1].incumbent_update);
  EXPECT_NEAR(log.nodes[1].incumbent_obj, -5.0, 0.0);
  EXPECT_FALSE(log.nodes[2].incumbent_update);  // -3 after -5: dropped
}

TEST(AuditShards, MergeKeepsStrictlyImprovingTrajectory) {
  using nd::milp::AuditNode;
  using nd::milp::AuditShard;
  AuditNode n0, n1;
  n0.id = 0;
  n0.incumbent_update = true;
  n0.incumbent_obj = -2.0;
  n1.id = 1;
  n1.incumbent_update = true;
  n1.incumbent_obj = -4.0;
  AuditLog log;
  log.warm_accepted = true;
  log.warm_obj = -1.0;
  ASSERT_TRUE(nd::milp::merge_audit_shards({AuditShard{{n0, n1}}}, &log));
  EXPECT_TRUE(log.nodes[0].incumbent_update);
  EXPECT_TRUE(log.nodes[1].incumbent_update);
}

TEST(AuditShards, MergeRejectsNonContiguousIds) {
  using nd::milp::AuditNode;
  using nd::milp::AuditShard;
  AuditNode n0, n2;
  n0.id = 0;
  n2.id = 2;  // id 1 missing
  AuditLog log;
  EXPECT_FALSE(nd::milp::merge_audit_shards({AuditShard{{n0, n2}}}, &log));
  EXPECT_TRUE(log.nodes.empty());
}

TEST(AuditShards, CertifyShardsReportsCorruptRecording) {
  using nd::milp::AuditNode;
  using nd::milp::AuditShard;
  AuditNode n0, n0dup;
  n0.id = 0;
  n0dup.id = 0;  // duplicate id
  AuditLog log;
  EXPECT_FALSE(nd::milp::merge_audit_shards({AuditShard{{n0}}, AuditShard{{n0dup}}}, &log));
  EXPECT_TRUE(log.nodes.empty());
}

TEST(AuditShards, CertifyShardsAcceptsRealisticSplit) {
  // Split a genuine single-thread log into two interleaved shards and check
  // the merge + replay pipeline reassembles and accepts it.
  const Model m = random_binary_model(2);
  const SolveOut ref = solve_with_threads(m, 1);
  using nd::milp::AuditShard;
  AuditShard even, odd;
  for (const auto& n : ref.audit.nodes) {
    (n.id % 2 == 0 ? even : odd).nodes.push_back(n);
  }
  AuditLog skeleton = ref.audit;
  skeleton.nodes.clear();
  ASSERT_TRUE(nd::milp::merge_audit_shards({even, odd}, &skeleton));
  const Report rep = nd::analysis::certify_bnb_exact(m, skeleton).report;
  EXPECT_EQ(rep.num_errors(), 0) << rep.to_table();
}

}  // namespace
