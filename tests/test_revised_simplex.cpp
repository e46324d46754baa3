// Revised-simplex engine tests: sparse storage round-trips, LU
// factorization/solves against known matrices and, bit for bit, against the
// dense left-looking loop in the same column order on deployment-shaped
// bases, product-form eta updates vs fresh factorization, solve residuals on
// random sparse bases after eta updates, refactorization triggers, and a
// seeded corpus checked against committed golden objectives at the LP layer
// (cold solves and warm dual re-solves) and the MILP layer (across thread
// counts), with every cold-solve certificate and audit re-proved by the
// exact layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "analysis/certify_lp.hpp"
#include "analysis/exact/certify_bnb_exact.hpp"
#include "analysis/exact/certify_lp_exact.hpp"
#include "analysis/exact/envelope.hpp"
#include "common/prng.hpp"
#include "lp/basis_lu.hpp"
#include "lp/problem.hpp"
#include "lp/simplex.hpp"
#include "lp/sparse.hpp"
#include "milp/audit.hpp"
#include "milp/branch_and_bound.hpp"
#include "milp/model.hpp"
#include "test_util.hpp"

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
// LU factors against the dense left-looking loop
// ---------------------------------------------------------------------------

// BasisLu's column order, computed independently of its counting sort:
// basis positions by ascending nonzero count, ties in basis order.
std::vector<int> sparsest_first(const SparseMatrix& a, const std::vector<int>& basis) {
  std::vector<int> order(basis.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int p, int q) {
    return a.col_nnz(basis[static_cast<std::size_t>(p)]) <
           a.col_nnz(basis[static_cast<std::size_t>(q)]);
  });
  return order;
}

// Reference for the tests below: the dense left-looking LU, which takes the
// basis positions in a given order and for each column applies every earlier
// pivot and scans all m rows twice, with BasisLu's FTRAN and BTRAN minus the
// eta file. In BasisLu's order (sparsest_first, the default), its
// reach-limited elimination promises the same factors bit for bit, so fill
// and every solve must agree exactly.
class DenseLuReference {
 public:
  bool factorize(const SparseMatrix& a, const std::vector<int>& basis,
                 double pivot_floor = 0.0) {
    return factorize_in_order(a, basis, sparsest_first(a, basis), pivot_floor);
  }

  bool factorize_in_order(const SparseMatrix& a, const std::vector<int>& basis,
                          std::vector<int> order, double pivot_floor = 0.0) {
    m_ = static_cast<int>(basis.size());
    const auto mu = static_cast<std::size_t>(m_);
    order_ = std::move(order);
    prow_.assign(mu, -1);
    ipos_.assign(mu, -1);
    udiag_.assign(mu, 0.0);
    lcols_.assign(mu, {});
    ucols_.assign(mu, {});
    long long lu_nnz = 0;
    long long basis_nnz = 0;
    std::vector<double> x(mu, 0.0);
    for (int j = 0; j < m_; ++j) {
      const auto ju = static_cast<std::size_t>(j);
      const SparseMatrix::ColView bj = a.col(basis[static_cast<std::size_t>(order_[ju])]);
      basis_nnz += bj.len;
      double colmax = 0.0;
      for (int k = 0; k < bj.len; ++k) {
        x[static_cast<std::size_t>(bj.idx[k])] = bj.val[k];
        colmax = std::max(colmax, std::abs(bj.val[k]));
      }
      for (int k = 0; k < j; ++k) {
        const auto ku = static_cast<std::size_t>(k);
        const double ukj = x[static_cast<std::size_t>(prow_[ku])];
        if (ukj == 0.0) continue;  // fp-exact: structural zero
        ucols_[ju].push_back({k, ukj});
        for (const Entry& e : lcols_[ku]) {
          double& xi = x[static_cast<std::size_t>(e.idx)];
          xi -= e.val * ukj;
          colmax = std::max(colmax, std::abs(xi));
        }
      }
      int p = -1;
      double pv = 0.0;
      for (int i = 0; i < m_; ++i) {
        if (ipos_[static_cast<std::size_t>(i)] >= 0) continue;
        const double v = std::abs(x[static_cast<std::size_t>(i)]);
        if (v > pv) {
          pv = v;
          p = i;
        }
      }
      if (p < 0 || pv <= std::max(nd::analysis::presolve_margin(1, colmax), pivot_floor)) {
        return false;
      }
      prow_[ju] = p;
      ipos_[static_cast<std::size_t>(p)] = j;
      const double piv = x[static_cast<std::size_t>(p)];
      udiag_[ju] = piv;
      for (int i = 0; i < m_; ++i) {
        if (ipos_[static_cast<std::size_t>(i)] >= 0) continue;
        const double v = x[static_cast<std::size_t>(i)];
        if (v == 0.0) continue;  // fp-exact: structural zero stays out of L
        lcols_[ju].push_back({i, v / piv});
      }
      lu_nnz += static_cast<long long>(lcols_[ju].size() + ucols_[ju].size()) + 1;
      std::fill(x.begin(), x.end(), 0.0);
    }
    fill_ = std::max<long long>(0, lu_nnz - basis_nnz);
    return true;
  }

  void ftran(std::vector<double>& x) const {
    for (int k = 0; k < m_; ++k) {
      const double yk = x[static_cast<std::size_t>(prow_[static_cast<std::size_t>(k)])];
      if (yk == 0.0) continue;  // fp-exact: zero propagates nothing
      for (const Entry& e : lcols_[static_cast<std::size_t>(k)]) {
        x[static_cast<std::size_t>(e.idx)] -= e.val * yk;
      }
    }
    std::vector<double> z(static_cast<std::size_t>(m_));
    for (int k = 0; k < m_; ++k) {
      z[static_cast<std::size_t>(k)] = x[static_cast<std::size_t>(prow_[static_cast<std::size_t>(k)])];
    }
    for (int j = m_ - 1; j >= 0; --j) {
      const double zj = z[static_cast<std::size_t>(j)] / udiag_[static_cast<std::size_t>(j)];
      z[static_cast<std::size_t>(j)] = zj;
      if (zj == 0.0) continue;  // fp-exact: zero scatters nothing
      for (const Entry& e : ucols_[static_cast<std::size_t>(j)]) {
        z[static_cast<std::size_t>(e.idx)] -= e.val * zj;
      }
    }
    for (int k = 0; k < m_; ++k) {
      x[static_cast<std::size_t>(order_[static_cast<std::size_t>(k)])] =
          z[static_cast<std::size_t>(k)];
    }
  }

  void btran(std::vector<double>& x) const {
    std::vector<double> v(static_cast<std::size_t>(m_));
    for (int k = 0; k < m_; ++k) {
      v[static_cast<std::size_t>(k)] = x[static_cast<std::size_t>(order_[static_cast<std::size_t>(k)])];
    }
    for (int j = 0; j < m_; ++j) {
      double acc = v[static_cast<std::size_t>(j)];
      for (const Entry& e : ucols_[static_cast<std::size_t>(j)]) {
        acc -= e.val * v[static_cast<std::size_t>(e.idx)];
      }
      v[static_cast<std::size_t>(j)] = acc / udiag_[static_cast<std::size_t>(j)];
    }
    std::vector<double> y(static_cast<std::size_t>(m_), 0.0);
    for (int k = m_ - 1; k >= 0; --k) {
      double acc = v[static_cast<std::size_t>(k)];
      for (const Entry& e : lcols_[static_cast<std::size_t>(k)]) {
        acc -= e.val * y[static_cast<std::size_t>(e.idx)];
      }
      y[static_cast<std::size_t>(prow_[static_cast<std::size_t>(k)])] = acc;
    }
    x = std::move(y);
  }

  [[nodiscard]] long long fill() const { return fill_; }

 private:
  struct Entry {
    int idx = 0;
    double val = 0.0;
  };
  int m_ = 0;
  std::vector<int> order_, prow_, ipos_;
  std::vector<double> udiag_;
  std::vector<std::vector<Entry>> lcols_, ucols_;
  long long fill_ = 0;
};

// A deployment-shaped basis: about 95% single-entry ±1 columns in distinct
// rows (slacks and artificials) and the rest structural columns with 2–8
// entries, each with a dominant entry on a row no single-entry column holds
// (so the basis is nonsingular) and the others on random rows, half of them
// rows of other structural columns. In basis order, structural columns
// pivoted before the single-entry column of one of their rows push that
// column's pivot elsewhere, so the reach runs through chains of L columns.
// Sparsest first, the single-entry columns pivot first and the chains run
// through the structural columns' L entries on each other's rows. Basis
// order is shuffled.
struct ShapedBasis {
  std::vector<Triplet> triplets;
  std::vector<int> basis;  ///< column indices 0..m-1, shuffled
  int structural = 0;      ///< columns 0..structural-1 are the multi-entry ones
};

ShapedBasis deployment_shaped_basis(int m, std::uint64_t seed) {
  Prng g(seed);
  ShapedBasis sb;
  std::vector<int> rows(static_cast<std::size_t>(m));
  for (int r = 0; r < m; ++r) rows[static_cast<std::size_t>(r)] = r;
  g.shuffle(rows);
  sb.structural = std::max(2, m / 20);
  for (int c = 0; c < m; ++c) {
    const int home = rows[static_cast<std::size_t>(c)];
    const double sign = g.bernoulli(0.5) ? 1.0 : -1.0;
    if (c >= sb.structural) {
      sb.triplets.push_back({home, c, sign});
      continue;
    }
    sb.triplets.push_back({home, c, sign * g.uniform(2.0, 4.0)});
    std::vector<int> used = {home};
    const auto extra = g.uniform_int(1, 7);
    while (static_cast<std::int64_t>(used.size()) <= extra) {
      // Half the entries land on other structural columns' rows, so the
      // L columns overlap and a row can take updates from several pivots.
      const int r = g.bernoulli(0.5)
                        ? rows[static_cast<std::size_t>(g.uniform_int(0, sb.structural - 1))]
                        : static_cast<int>(g.uniform_int(0, m - 1));
      if (std::find(used.begin(), used.end(), r) != used.end()) continue;
      used.push_back(r);
      sb.triplets.push_back({r, c, g.uniform(-1.0, 1.0)});
    }
  }
  sb.basis.resize(static_cast<std::size_t>(m));
  for (int c = 0; c < m; ++c) sb.basis[static_cast<std::size_t>(c)] = c;
  g.shuffle(sb.basis);
  return sb;
}

// Right-hand sides for the solves: dense, unit and sparse vectors.
std::vector<std::vector<double>> solve_inputs(int m, std::uint64_t seed) {
  Prng g(seed);
  const auto mu = static_cast<std::size_t>(m);
  std::vector<std::vector<double>> out;
  for (int t = 0; t < 3; ++t) {
    std::vector<double> v(mu);
    for (auto& e : v) e = g.uniform(-1.0, 1.0);
    out.push_back(std::move(v));
  }
  for (int t = 0; t < 3; ++t) {
    std::vector<double> v(mu, 0.0);
    v[static_cast<std::size_t>(g.uniform_int(0, m - 1))] = 1.0;
    out.push_back(std::move(v));
  }
  std::vector<double> v(mu, 0.0);
  for (int t = 0; t < 8; ++t) v[static_cast<std::size_t>(g.uniform_int(0, m - 1))] = g.uniform(-2.0, 2.0);
  out.push_back(std::move(v));
  return out;
}

// Reports the first entry where `got` and `want` differ in any bit that ==
// sees; one report per vector keeps a failure readable.
void expect_same_doubles(const std::vector<double>& got, const std::vector<double>& want,
                         const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i] == want[i]) continue;
    EXPECT_EQ(got[i], want[i]) << what << ", entry " << i;
    return;
  }
}

void expect_same_solves(const BasisLu& lu, const DenseLuReference& ref, int m,
                        std::uint64_t seed, const std::string& what) {
  int t = 0;
  for (const std::vector<double>& rhs : solve_inputs(m, seed)) {
    std::vector<double> got = rhs;
    std::vector<double> want = rhs;
    lu.ftran(got);
    ref.ftran(want);
    expect_same_doubles(got, want, what + " ftran #" + std::to_string(t));
    got = rhs;
    want = rhs;
    lu.btran(got);
    ref.btran(want);
    expect_same_doubles(got, want, what + " btran #" + std::to_string(t));
    ++t;
  }
}

TEST(BasisLuTest, ReachLimitedFactorsMatchDenseLoopBitForBit) {
  const auto check = [&](const SparseMatrix& a, const std::vector<int>& basis,
                         std::uint64_t seed, const std::string& what) {
    DenseLuReference ref;
    BasisLu lu;
    const bool ok = ref.factorize(a, basis) && lu.factorize(a, basis);
    EXPECT_TRUE(ok) << what;
    if (!ok) return -1LL;
    EXPECT_EQ(lu.last_fill(), ref.fill()) << what;
    expect_same_solves(lu, ref, a.rows(), seed, what);
    return lu.last_fill();
  };
  long long total_fill = 0;
  long long basis_order_fill = 0;
  for (const int m : {40, 200, 1000}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      const ShapedBasis sb = deployment_shaped_basis(m, seed);
      const SparseMatrix a = SparseMatrix::from_triplets(m, m, sb.triplets);
      total_fill += check(a, sb.basis, seed * 7919,
                          "m=" + std::to_string(m) + " seed=" + std::to_string(seed));
      DenseLuReference in_basis_order;
      std::vector<int> identity(static_cast<std::size_t>(m));
      std::iota(identity.begin(), identity.end(), 0);
      ASSERT_TRUE(in_basis_order.factorize_in_order(a, sb.basis, identity));
      basis_order_fill += in_basis_order.fill();
    }
  }
  // The corpus must make the elimination do work, not just permute, and
  // sparsest-first must fill less than the basis-order loop it replaced.
  EXPECT_GT(total_fill, 0);
  EXPECT_LT(total_fill, basis_order_fill);

  // A pivot-search tie. Columns 1 and 2 hold two entries each, so they
  // pivot first and in basis order; column 0 holds three and pivots last.
  // After pivot 0 (column 1, row 0), column 2 holds -0.5 in rows 1 and 2.
  // Row 1 (the lowest) must win: then column 0 cancels row 1 exactly and
  // does not reach pivot 1, so the factors hold no fill. Row 2 would give
  // column 0 a second U entry.
  const SparseMatrix tie = SparseMatrix::from_triplets(
      3, 3,
      {{0, 0, 2.0}, {1, 0, 1.0}, {2, 0, 1.0}, {0, 1, 2.0}, {1, 1, 1.0}, {0, 2, 1.0},
       {2, 2, -0.5}});
  EXPECT_EQ(check(tie, {0, 1, 2}, 1, "tie"), 0);
}

TEST(BasisLuTest, ReachLimitedRefusalsOnLargeSparseBasis) {
  const int m = 1000;
  const ShapedBasis sb = deployment_shaped_basis(m, 42);
  // A single-entry column whose row no other basis column touches.
  std::vector<int> row_uses(static_cast<std::size_t>(m), 0);
  for (const Triplet& t : sb.triplets) ++row_uses[static_cast<std::size_t>(t.row)];
  int lone = -1;
  for (const Triplet& t : sb.triplets) {
    if (t.col >= sb.structural && row_uses[static_cast<std::size_t>(t.row)] == 1) {
      lone = t.col;
      break;
    }
  }
  ASSERT_GE(lone, 0);
  int lone_row = -1;
  for (const Triplet& t : sb.triplets) {
    if (t.col == lone) lone_row = t.row;
  }
  // Extra columns: m is a copy of structural column 0, m + 1 the lone
  // single-entry column scaled down to a tiny-but-real pivot.
  std::vector<Triplet> ts = sb.triplets;
  for (const Triplet& t : sb.triplets) {
    if (t.col == 0) ts.push_back({t.row, m, t.val});
  }
  const double tiny = 1e-10;
  ts.push_back({lone_row, m + 1, tiny});
  const SparseMatrix a = SparseMatrix::from_triplets(m, m + 2, ts);
  const auto pos = [&](int col) {
    return static_cast<std::size_t>(std::find(sb.basis.begin(), sb.basis.end(), col) -
                                    sb.basis.begin());
  };

  // The copy of column 0 in place of the lone column: two equal columns.
  std::vector<int> dup = sb.basis;
  dup[pos(lone)] = m;
  BasisLu lu;
  EXPECT_FALSE(lu.factorize(a, dup));
  EXPECT_FALSE(lu.factorized());
  DenseLuReference ref;
  EXPECT_FALSE(ref.factorize(a, dup));

  // The tiny column in place of the lone column: accepted at the envelope
  // floor, with the dense loop's factors; refused under a caller's floor.
  std::vector<int> marginal = sb.basis;
  marginal[pos(lone)] = m + 1;
  ASSERT_TRUE(lu.factorize(a, marginal));
  ASSERT_TRUE(ref.factorize(a, marginal));
  EXPECT_EQ(lu.last_fill(), ref.fill());
  expect_same_solves(lu, ref, m, 3, "marginal basis");
  BasisLu strict;
  EXPECT_FALSE(strict.factorize(a, marginal, 1e-9));
  EXPECT_FALSE(ref.factorize(a, marginal, 1e-9));
}

// Largest |B·x − b| over the rows, relative to the largest row scale
// |b_i| + Σ_r |B_ir·x_r| (at least 1): the residual a backward-stable solve
// keeps near machine epsilon times the pivot growth.
double ftran_residual(const SparseMatrix& a, const std::vector<int>& basis,
                      const std::vector<double>& x, const std::vector<double>& b) {
  std::vector<double> acc(b.size());
  std::vector<double> scale(b.size());
  for (std::size_t i = 0; i < b.size(); ++i) {
    acc[i] = -b[i];
    scale[i] = std::abs(b[i]);
  }
  for (std::size_t r = 0; r < basis.size(); ++r) {
    const SparseMatrix::ColView c = a.col(basis[r]);
    for (int k = 0; k < c.len; ++k) {
      const auto i = static_cast<std::size_t>(c.idx[k]);
      acc[i] += c.val[k] * x[r];
      scale[i] += std::abs(c.val[k] * x[r]);
    }
  }
  double worst = 0.0;
  double top = 1.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    worst = std::max(worst, std::abs(acc[i]));
    top = std::max(top, scale[i]);
  }
  return worst / top;
}

// Largest |Bᵀ·y − c| over the basis positions, relative as above.
double btran_residual(const SparseMatrix& a, const std::vector<int>& basis,
                      const std::vector<double>& y, const std::vector<double>& c) {
  double worst = 0.0;
  double top = 1.0;
  for (std::size_t r = 0; r < basis.size(); ++r) {
    const SparseMatrix::ColView col = a.col(basis[r]);
    double acc = -c[r];
    double scale = std::abs(c[r]);
    for (int k = 0; k < col.len; ++k) {
      const double t = col.val[k] * y[static_cast<std::size_t>(col.idx[k])];
      acc += t;
      scale += std::abs(t);
    }
    worst = std::max(worst, std::abs(acc));
    top = std::max(top, scale);
  }
  return worst / top;
}

// Property: on seeded random sparse bases (deployment-shaped, sizes 20–300)
// with up to five eta updates absorbed, every FTRAN solves B·x = b and every
// BTRAN solves Bᵀ·y = c to a residual near machine epsilon. The entering
// columns are random sparse columns outside the basis, each exchanged at the
// position of its largest FTRAN entry, as a stable ratio test would.
TEST(BasisLuTest, RandomSparseBasisSolvesHaveSmallResidualsAfterEtaUpdates) {
  constexpr int kMaxUpdates = 5;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    Prng g(seed * 104729);
    const int m = static_cast<int>(g.uniform_int(20, 300));
    const ShapedBasis sb = deployment_shaped_basis(m, seed);
    // Columns m .. m + kMaxUpdates - 1 are the candidates to enter.
    std::vector<Triplet> ts = sb.triplets;
    for (int c = m; c < m + kMaxUpdates; ++c) {
      std::vector<int> used;
      const auto len = g.uniform_int(1, 6);
      while (static_cast<std::int64_t>(used.size()) < len) {
        const int r = static_cast<int>(g.uniform_int(0, m - 1));
        if (std::find(used.begin(), used.end(), r) != used.end()) continue;
        used.push_back(r);
        ts.push_back({r, c, g.uniform(-2.0, 2.0)});
      }
    }
    const SparseMatrix a = SparseMatrix::from_triplets(m, m + kMaxUpdates, ts);
    std::vector<int> basis = sb.basis;
    BasisLu lu;
    ASSERT_TRUE(lu.factorize(a, basis)) << "seed " << seed;

    const int updates = static_cast<int>(g.uniform_int(1, kMaxUpdates));
    for (int q = m; q < m + updates; ++q) {
      std::vector<double> w(static_cast<std::size_t>(m), 0.0);
      a.scatter_col(q, 1.0, w);
      lu.ftran(w);
      std::size_t r = 0;
      for (std::size_t i = 1; i < w.size(); ++i) {
        if (std::abs(w[i]) > std::abs(w[r])) r = i;
      }
      ASSERT_TRUE(lu.update(w, static_cast<int>(r))) << "seed " << seed << " column " << q;
      basis[r] = q;
    }
    ASSERT_EQ(lu.eta_count(), updates);

    for (const std::vector<double>& rhs : solve_inputs(m, seed)) {
      std::vector<double> x = rhs;
      lu.ftran(x);
      EXPECT_LT(ftran_residual(a, basis, x, rhs), 1e-12) << "seed " << seed;
      std::vector<double> y = rhs;
      lu.btran(y);
      EXPECT_LT(btran_residual(a, basis, y, rhs), 1e-12) << "seed " << seed;
    }
  }
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

TEST(EngineDifferential, MilpEngineEqualityAcrossThreadCounts) {
  for (const auto& [seed, golden] : nd::test::kGoldenMilp) {
    const Model mod = nd::test::golden_milp(seed);
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
