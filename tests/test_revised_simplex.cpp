// Revised-simplex engine tests: sparse storage round-trips, LU
// factorization/solves against known matrices, product-form eta updates vs
// fresh factorization, refactorization triggers, and a seeded corpus checked
// against committed golden objectives at the LP layer (cold solves and warm
// dual re-solves) and the MILP layer (across thread counts), with every
// cold-solve certificate and audit re-proved by the exact layer.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "analysis/certify_lp.hpp"
#include "analysis/exact/certify_bnb_exact.hpp"
#include "analysis/exact/certify_lp_exact.hpp"
#include "common/prng.hpp"
#include "lp/basis_lu.hpp"
#include "lp/problem.hpp"
#include "lp/simplex.hpp"
#include "lp/sparse.hpp"
#include "milp/audit.hpp"
#include "milp/branch_and_bound.hpp"
#include "milp/model.hpp"

namespace {

using nd::Prng;
using nd::lp::BasisLu;
using nd::lp::kInf;
using nd::lp::Problem;
using nd::lp::Sense;
using nd::lp::Simplex;
using nd::lp::SolveStatus;
using nd::lp::SparseMatrix;
using nd::lp::Triplet;
using nd::milp::MipOptions;
using nd::milp::MipStatus;
using nd::milp::Model;

// ---------------------------------------------------------------------------
// Sparse storage
// ---------------------------------------------------------------------------

TEST(Sparse, TripletRoundTripSumsDuplicatesAndDropsZeros) {
  // Duplicate (1,1) entries sum to 5; the (0,2) pair cancels to exact zero
  // and must be dropped from storage.
  const std::vector<Triplet> ts = {
      {0, 0, 1.0}, {1, 1, 2.0}, {1, 1, 3.0}, {2, 0, -4.0},
      {0, 2, 7.5}, {0, 2, -7.5},
  };
  const SparseMatrix a = SparseMatrix::from_triplets(3, 3, ts);
  EXPECT_EQ(a.rows(), 3);
  EXPECT_EQ(a.cols(), 3);
  EXPECT_EQ(a.nnz(), 3);
  EXPECT_EQ(a.col_nnz(0), 2);
  EXPECT_EQ(a.col_nnz(1), 1);
  EXPECT_EQ(a.col_nnz(2), 0);
  const SparseMatrix::ColView c0 = a.col(0);
  ASSERT_EQ(c0.len, 2);
  EXPECT_EQ(c0.idx[0], 0);  // sorted by row index
  EXPECT_EQ(c0.idx[1], 2);
  EXPECT_DOUBLE_EQ(c0.val[0], 1.0);
  EXPECT_DOUBLE_EQ(c0.val[1], -4.0);
  const SparseMatrix::ColView c1 = a.col(1);
  ASSERT_EQ(c1.len, 1);
  EXPECT_DOUBLE_EQ(c1.val[0], 5.0);
}

TEST(Sparse, TransposeIsAnInvolutionAndMatchesDenseProducts) {
  Prng g(11);
  std::vector<Triplet> ts;
  const int m = 7, n = 5;
  for (int r = 0; r < m; ++r) {
    for (int c = 0; c < n; ++c) {
      if (g.bernoulli(0.4)) ts.push_back({r, c, g.uniform(-2.0, 2.0)});
    }
  }
  const SparseMatrix a = SparseMatrix::from_triplets(m, n, ts);
  const SparseMatrix at = a.transpose();
  const SparseMatrix att = at.transpose();
  EXPECT_EQ(at.rows(), n);
  EXPECT_EQ(at.cols(), m);
  EXPECT_EQ(att.nnz(), a.nnz());

  std::vector<double> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = g.uniform(-1.0, 1.0);
  const std::vector<double> ax = a.multiply(x);
  const std::vector<double> atx = at.multiply_transpose(x);  // (Aᵀ)ᵀ x = A x
  const std::vector<double> attx = att.multiply(x);
  ASSERT_EQ(ax.size(), static_cast<std::size_t>(m));
  for (int r = 0; r < m; ++r) {
    const auto ru = static_cast<std::size_t>(r);
    EXPECT_NEAR(ax[ru], atx[ru], 1e-12);
    EXPECT_NEAR(ax[ru], attx[ru], 1e-12);
  }
}

TEST(Sparse, ScatterAndDotAgreeWithDenseMultiply) {
  Prng g(12);
  const int m = 6, n = 4;
  std::vector<Triplet> ts;
  for (int r = 0; r < m; ++r)
    for (int c = 0; c < n; ++c)
      if (g.bernoulli(0.5)) ts.push_back({r, c, g.uniform(-3.0, 3.0)});
  const SparseMatrix a = SparseMatrix::from_triplets(m, n, ts);

  std::vector<double> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = g.uniform(-1.0, 1.0);
  const std::vector<double> ref = a.multiply(x);

  std::vector<double> acc(static_cast<std::size_t>(m), 0.0);
  for (int j = 0; j < n; ++j) a.scatter_col(j, x[static_cast<std::size_t>(j)], acc);
  std::vector<double> y(static_cast<std::size_t>(m));
  for (auto& v : y) v = g.uniform(-1.0, 1.0);
  for (int r = 0; r < m; ++r) {
    EXPECT_NEAR(acc[static_cast<std::size_t>(r)], ref[static_cast<std::size_t>(r)], 1e-12);
  }
  // col_dot(j, y) = column j against y = (Aᵀ y)_j.
  const std::vector<double> aty = a.multiply_transpose(y);
  for (int j = 0; j < n; ++j) {
    EXPECT_NEAR(a.col_dot(j, y), aty[static_cast<std::size_t>(j)], 1e-12);
  }
}

// ---------------------------------------------------------------------------
// LU factorization
// ---------------------------------------------------------------------------

TEST(BasisLuTest, SolvesKnownSystemBothDirections) {
  // B = [[2,1,0],[1,3,1],[0,1,4]]; solutions checked against hand elimination.
  const std::vector<Triplet> ts = {
      {0, 0, 2.0}, {1, 0, 1.0}, {0, 1, 1.0}, {1, 1, 3.0},
      {2, 1, 1.0}, {1, 2, 1.0}, {2, 2, 4.0},
  };
  const SparseMatrix a = SparseMatrix::from_triplets(3, 3, ts);
  BasisLu lu;
  ASSERT_TRUE(lu.factorize(a, {0, 1, 2}));
  EXPECT_TRUE(lu.factorized());
  EXPECT_EQ(lu.dim(), 3);

  // ftran: B x = b. Output is basis-position-indexed; with the identity
  // basis order the positions coincide with rows.
  std::vector<double> b = {3.0, 5.0, 5.0};
  lu.ftran(b);
  std::vector<double> x(3);
  for (int k = 0; k < 3; ++k) x[static_cast<std::size_t>(k)] = b[static_cast<std::size_t>(k)];
  // Verify B x = rhs by direct multiplication.
  const std::vector<double> bx = a.multiply(x);
  EXPECT_NEAR(bx[0], 3.0, 1e-12);
  EXPECT_NEAR(bx[1], 5.0, 1e-12);
  EXPECT_NEAR(bx[2], 5.0, 1e-12);

  // btran: Bᵀ y = c.
  std::vector<double> c = {1.0, -2.0, 0.5};
  std::vector<double> cin = c;
  lu.btran(cin);
  const std::vector<double> bty = a.multiply_transpose(cin);
  for (int k = 0; k < 3; ++k) {
    EXPECT_NEAR(bty[static_cast<std::size_t>(k)], c[static_cast<std::size_t>(k)], 1e-12);
  }
}

TEST(BasisLuTest, RefusesSingularBasis) {
  // Column 2 = column 0 + column 1: rank 2.
  const std::vector<Triplet> ts = {
      {0, 0, 1.0}, {1, 0, 2.0}, {0, 1, 3.0}, {2, 1, 1.0},
      {0, 2, 4.0}, {1, 2, 2.0}, {2, 2, 1.0},
  };
  const SparseMatrix a = SparseMatrix::from_triplets(3, 3, ts);
  BasisLu lu;
  EXPECT_FALSE(lu.factorize(a, {0, 1, 2}));
  EXPECT_FALSE(lu.factorized());
}

TEST(BasisLuTest, PivotFloorRejectsMarginalBasisOnlyWhenAsked) {
  // Diagonal basis with one tiny-but-real pivot between the envelope margin
  // and an engine-style decision threshold: accepted at the default floor,
  // refused when the caller's floor is supplied.
  const double tiny = 1e-10;
  const std::vector<Triplet> ts = {{0, 0, 1.0}, {1, 1, tiny}, {2, 2, 1.0}};
  const SparseMatrix a = SparseMatrix::from_triplets(3, 3, ts);
  BasisLu relaxed;
  EXPECT_TRUE(relaxed.factorize(a, {0, 1, 2}));
  BasisLu strict;
  EXPECT_FALSE(strict.factorize(a, {0, 1, 2}, 1e-9));
}

// Random sparse nonsingular-ish matrix over [cols], diagonally dominated so
// factorization always succeeds.
SparseMatrix random_square(int m, int extra_cols, std::uint64_t seed) {
  Prng g(seed);
  std::vector<Triplet> ts;
  for (int j = 0; j < m + extra_cols; ++j) {
    const int diag = j % m;
    ts.push_back({diag, j, g.uniform(2.0, 4.0)});
    for (int r = 0; r < m; ++r) {
      if (r != diag && g.bernoulli(0.3)) ts.push_back({r, j, g.uniform(-1.0, 1.0)});
    }
  }
  return SparseMatrix::from_triplets(m, m + extra_cols, ts);
}

TEST(BasisLuTest, EtaUpdateMatchesFreshFactorizationOfExchangedBasis) {
  const int m = 12;
  const SparseMatrix a = random_square(m, 6, 77);
  std::vector<int> basis(static_cast<std::size_t>(m));
  for (int r = 0; r < m; ++r) basis[static_cast<std::size_t>(r)] = r;

  BasisLu lu;
  ASSERT_TRUE(lu.factorize(a, basis));

  // Exchange: column q = m + 2 enters at position r = 4.
  const int q = m + 2, r = 4;
  std::vector<double> w(static_cast<std::size_t>(m), 0.0);
  a.scatter_col(q, 1.0, w);
  lu.ftran(w);  // w = B⁻¹ a_q, basis-position indexed
  ASSERT_TRUE(lu.update(w, r));
  EXPECT_EQ(lu.eta_count(), 1);
  basis[static_cast<std::size_t>(r)] = q;

  BasisLu fresh;
  ASSERT_TRUE(fresh.factorize(a, basis));

  Prng g(5);
  std::vector<double> rhs(static_cast<std::size_t>(m));
  for (auto& v : rhs) v = g.uniform(-1.0, 1.0);

  std::vector<double> via_eta = rhs;
  lu.ftran(via_eta);
  std::vector<double> via_fresh = rhs;
  fresh.ftran(via_fresh);
  for (int k = 0; k < m; ++k) {
    EXPECT_NEAR(via_eta[static_cast<std::size_t>(k)],
                via_fresh[static_cast<std::size_t>(k)], 1e-9);
  }

  std::vector<double> bt_eta = rhs;
  lu.btran(bt_eta);
  std::vector<double> bt_fresh = rhs;
  fresh.btran(bt_fresh);
  for (int k = 0; k < m; ++k) {
    EXPECT_NEAR(bt_eta[static_cast<std::size_t>(k)],
                bt_fresh[static_cast<std::size_t>(k)], 1e-9);
  }
}

TEST(BasisLuTest, NeedsRefactorTripsOnEtaBudget) {
  const int m = 8;
  const SparseMatrix a = random_square(m, 0, 99);
  std::vector<int> basis(static_cast<std::size_t>(m));
  for (int r = 0; r < m; ++r) basis[static_cast<std::size_t>(r)] = r;
  BasisLu lu;
  ASSERT_TRUE(lu.factorize(a, basis));
  EXPECT_FALSE(lu.needs_refactor());

  // Degenerate self-exchanges (column r re-enters at position r) keep the
  // basis valid while growing the eta file one entry per update.
  int updates = 0;
  while (!lu.needs_refactor()) {
    const int r = updates % m;
    std::vector<double> w(static_cast<std::size_t>(m), 0.0);
    a.scatter_col(r, 1.0, w);
    lu.ftran(w);
    ASSERT_TRUE(lu.update(w, r)) << "self-exchange eta refused at update " << updates;
    ++updates;
    ASSERT_LT(updates, 10000) << "eta budget never tripped";
  }
  EXPECT_GT(updates, 0);
  EXPECT_EQ(lu.eta_count(), updates);

  // A fresh factorization clears the eta file and the trigger.
  ASSERT_TRUE(lu.factorize(a, basis));
  EXPECT_EQ(lu.eta_count(), 0);
  EXPECT_FALSE(lu.needs_refactor());
}

// ---------------------------------------------------------------------------
// Golden corpus: statuses and objectives printed with %.17g while a second,
// dense-tableau engine still existed and agreed on every entry. The exact
// layer re-proves every certificate and audit on top.
// ---------------------------------------------------------------------------

nd::lp::Problem random_lp(int n, int m, std::uint64_t seed) {
  Prng g(seed);
  Problem p;
  for (int j = 0; j < n; ++j) p.add_var(0.0, 1.0, g.uniform(-1.0, 1.0));
  for (int r = 0; r < m; ++r) {
    std::vector<std::pair<int, double>> coef;
    for (int j = 0; j < n; ++j) {
      if (g.bernoulli(0.7)) coef.emplace_back(j, g.uniform(-1.0, 1.0));
    }
    if (coef.empty()) coef.emplace_back(0, 1.0);
    // Mostly-feasible mix: x = 0 satisfies LE rows with nonnegative rhs and
    // GE rows with nonpositive rhs; the occasional positive GE rhs keeps a
    // few genuinely infeasible instances (Farkas path) in the corpus.
    const Sense s = g.bernoulli(0.3) ? Sense::GE : Sense::LE;
    const double rhs = (s == Sense::LE) ? g.uniform(0.2, static_cast<double>(n) / 4)
                                        : g.uniform(-1.0, 0.5);
    p.add_row(coef, s, rhs);
  }
  return p;
}

struct GoldenLp {
  std::uint64_t seed;
  SolveStatus status;
  double obj;
};

// random_lp(14, 10, seed * 101).
const GoldenLp kGoldenLp[] = {
    {1, SolveStatus::kOptimal, -1.0999898944421054},
    {2, SolveStatus::kOptimal, -0.64325989265027883},
    {3, SolveStatus::kOptimal, -3.4857661594121829},
    {4, SolveStatus::kOptimal, -2.7934974897690976},
    {5, SolveStatus::kOptimal, -2.6105094918819702},
    {6, SolveStatus::kOptimal, -2.3134107528552388},
    {7, SolveStatus::kOptimal, -5.123667088926628},
    {8, SolveStatus::kOptimal, -1.6648006853173574},
    {9, SolveStatus::kOptimal, -0.8765125631955879},
    {10, SolveStatus::kOptimal, -1.4258157108853067},
};

TEST(EngineDifferential, LpStatusObjectiveAndCertificatesAgree) {
  for (const GoldenLp& g : kGoldenLp) {
    const Problem p = random_lp(14, 10, g.seed * 101);
    Simplex eng(p);
    ASSERT_EQ(eng.solve(), g.status) << "status mismatch on seed " << g.seed;
    if (g.status != SolveStatus::kOptimal) continue;
    EXPECT_NEAR(eng.objective(), g.obj, 1e-6 * (1.0 + std::abs(g.obj)))
        << "objective mismatch on seed " << g.seed;
    const nd::lp::Certificate cert = eng.extract_certificate();
    const auto rep = nd::analysis::certify_lp(p, cert);
    EXPECT_EQ(rep.num_errors(), 0) << "float certify failed on seed " << g.seed;
    const auto exact = nd::analysis::certify_lp_exact(p, cert);
    EXPECT_TRUE(exact.accepted()) << "exact certify failed on seed " << g.seed;
  }
}

struct GoldenWarm {
  std::uint64_t seed;
  double root;      ///< optimum before, and after each release
  double fixed[8];  ///< optimum after each fixing drawn from Prng(seed)
};

// random_lp(12, 8, seed * 313); every entry is optimal.
const GoldenWarm kGoldenWarm[] = {
    {1,
     -2.489314266346998,
     {-1.9737017123142577, -2.489314266346998, -2.1990450911631791, -2.489314266346998,
      -1.9737017123142577, -1.9737017123142577, -2.4698165765141336, -2.0263289342956838}},
    {2,
     -2.396595003924562,
     {-2.2470289572665965, -1.9073342370500737, -1.2472451762382553, -2.396595003924562,
      -2.3716701095163817, -2.396595003924562, -1.6109718635175414, -2.3965950039245625}},
    {3,
     -2.8762643181666419,
     {-2.8762643181666419, -2.8762643181666419, -2.4045604968713334, -2.8762643181666419,
      -1.8501089364294758, -2.8762643181666419, -2.5851794751797512, -2.0684900456150417}},
    {4,
     -2.9938591971629109,
     {-2.9938591971629109, -2.0688802892256648, -2.5487441831409057, -2.9938591971629109,
      -2.9938591971629109, -2.9938591971629109, -2.9938591971629109, -2.4055666422845698}},
    {5,
     -2.2798703692007747,
     {-2.2798703692007747, -2.2456982847148854, -2.2378814941005389, -2.2798703692007747,
      -2.0667282177036963, -2.2798703692007747, -1.390579576089318, -2.0221966486966556}},
    {6,
     -2.5160639609794764,
     {-1.9709182656575741, -2.088618215928161, -2.4946647577797627, -2.5087365985966814,
      -2.5160639609794764, -2.5160639609794764, -2.5160639609794764, -1.7270559098528764}},
};

TEST(EngineDifferential, WarmDualResolveAgreesAfterBoundChanges) {
  for (const GoldenWarm& g : kGoldenWarm) {
    const Problem p = random_lp(12, 8, g.seed * 313);
    const double tol = 1e-6 * (1.0 + std::abs(g.root));
    Simplex eng(p);
    ASSERT_EQ(eng.solve(), SolveStatus::kOptimal) << "seed " << g.seed;
    EXPECT_NEAR(eng.objective(), g.root, tol) << "seed " << g.seed;
    Prng fixings(g.seed);
    for (int step = 0; step < 8; ++step) {
      const int j = static_cast<int>(fixings.uniform_int(0, 11));
      const double fix = fixings.bernoulli(0.5) ? 1.0 : 0.0;
      eng.set_bound(j, fix, fix);
      ASSERT_EQ(eng.dual_resolve(), SolveStatus::kOptimal) << "seed " << g.seed << " step " << step;
      EXPECT_NEAR(eng.objective(), g.fixed[step], 1e-6 * (1.0 + std::abs(g.fixed[step])))
          << "seed " << g.seed << " step " << step;
      eng.set_bound(j, 0.0, 1.0);
      ASSERT_EQ(eng.dual_resolve(), SolveStatus::kOptimal) << "seed " << g.seed << " step " << step;
      EXPECT_NEAR(eng.objective(), g.root, tol) << "release, seed " << g.seed << " step " << step;
    }
  }
}

TEST(EngineDifferential, PricingRulesAgreeOnTheOptimum) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Problem p = random_lp(14, 10, seed * 517);
    Simplex::Options devex;
    devex.pricing = nd::lp::Pricing::kDevex;
    Simplex::Options dantzig;
    dantzig.pricing = nd::lp::Pricing::kDantzig;
    Simplex a(p, devex);
    Simplex b(p, dantzig);
    const SolveStatus sa = a.solve();
    const SolveStatus sb = b.solve();
    ASSERT_EQ(sa, sb);
    if (sa == SolveStatus::kOptimal) {
      EXPECT_NEAR(a.objective(), b.objective(), 1e-6 * (1.0 + std::abs(a.objective())));
    }
  }
}

Model random_binary_mip(int n, int m, std::uint64_t seed) {
  Prng g(seed);
  Model mod;
  for (int j = 0; j < n; ++j) {
    mod.add_bin(g.uniform(-5.0, 5.0), "b" + std::to_string(j));
  }
  for (int r = 0; r < m; ++r) {
    std::vector<std::pair<int, double>> coef;
    for (int j = 0; j < n; ++j) {
      if (g.bernoulli(0.6)) coef.emplace_back(j, g.uniform(0.1, 2.0));
    }
    if (coef.empty()) coef.emplace_back(0, 1.0);
    mod.add_row(coef, Sense::LE, g.uniform(1.0, static_cast<double>(n)));
  }
  return mod;
}

// random_binary_mip(10, 6, seed * 733), proved optimal.
const std::pair<std::uint64_t, double> kGoldenMilp[] = {
    {1, -18.971896743000119}, {2, -1.3461441928048643}, {3, -12.849125554900967},
    {4, -8.9188369891902877}, {5, -9.8473137155276014},
};

TEST(EngineDifferential, MilpEngineEqualityAcrossThreadCounts) {
  for (const auto& [seed, golden] : kGoldenMilp) {
    const Model mod = random_binary_mip(10, 6, seed * 733);
    for (const int threads : {1, 2, 4}) {
      MipOptions opt;
      opt.num_threads = threads;
      nd::milp::AuditLog audit;
      opt.audit = &audit;
      const auto res = nd::milp::solve(mod, opt);
      ASSERT_EQ(res.status, MipStatus::kOptimal) << "seed " << seed << " threads " << threads;
      EXPECT_NEAR(res.obj, golden, 1e-6 * (1.0 + std::abs(golden)))
          << "seed " << seed << " threads " << threads;
      EXPECT_TRUE(nd::analysis::certify_bnb_exact(mod, audit).accepted())
          << "exact audit replay failed, seed " << seed << " threads " << threads;
    }
  }
}

}  // namespace
