#include "lp/basis_lu.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "analysis/exact/envelope.hpp"
#include "common/check.hpp"

namespace nd::lp {

namespace {
// Eta-file budget before needs_refactor() trips. Refactorizing is O(sparse
// LU); each eta adds one scatter pass to every subsequent FTRAN/BTRAN, so the
// budget bounds solve cost AND accumulated product-form roundoff. Plain
// integer shape parameters, not numeric tolerances.
constexpr int kMaxEtas = 64;
constexpr long long kEtaNnzFactor = 8;
}  // namespace

bool BasisLu::factorize(const SparseMatrix& a, const std::vector<int>& basis,
                        double pivot_floor) {
  m_ = static_cast<int>(basis.size());
  ND_REQUIRE(a.rows() == m_, "BasisLu: basis size must match row count");
  factorized_ = false;
  etas_.clear();
  eta_nnz_ = 0;
  prow_.assign(static_cast<std::size_t>(m_), -1);
  ipos_.assign(static_cast<std::size_t>(m_), -1);
  udiag_.assign(static_cast<std::size_t>(m_), 0.0);
  lcols_.assign(static_cast<std::size_t>(m_), {});
  ucols_.assign(static_cast<std::size_t>(m_), {});
  lu_nnz_ = 0;
  basis_nnz_ = 0;

  // Sparsest column first: one stable counting sort of the basis positions
  // by nonzero count, so ties keep basis order. Pivot k eliminates basis
  // position order_[k].
  order_.assign(static_cast<std::size_t>(m_), 0);
  std::vector<int> slot(static_cast<std::size_t>(m_) + 2, 0);
  for (int r = 0; r < m_; ++r) {
    ++slot[static_cast<std::size_t>(a.col_nnz(basis[static_cast<std::size_t>(r)])) + 1];
  }
  for (std::size_t c = 1; c < slot.size(); ++c) slot[c] += slot[c - 1];
  for (int r = 0; r < m_; ++r) {
    const int c = a.col_nnz(basis[static_cast<std::size_t>(r)]);
    order_[static_cast<std::size_t>(slot[static_cast<std::size_t>(c)]++)] = r;
  }

  // Left-looking elimination with a dense scatter workspace per column,
  // limited to the work the column needs (Gilbert–Peierls). A row enters
  // `touched` (once, stamped by `seen`) the first time the column writes it;
  // if that row is already pivoted, its pivot joins the min-heap `reach`.
  // L column k holds only rows pivoted after k, so popping the heap applies
  // exactly the pivots reachable from the column's pattern, in ascending
  // order — the order, and therefore every floating-point operation, of the
  // dense loop over all earlier pivots. Pivots the column cannot reach have
  // u_kj == 0 there and were skipped by that loop anyway.
  std::vector<double> x(static_cast<std::size_t>(m_), 0.0);
  std::vector<int> seen(static_cast<std::size_t>(m_), -1);
  std::vector<int> touched;
  std::vector<int> reach;
  std::vector<int> cand;  // unpivoted rows holding a nonzero, ascending
  touched.reserve(static_cast<std::size_t>(m_));
  reach.reserve(static_cast<std::size_t>(m_));
  cand.reserve(static_cast<std::size_t>(m_));
  const std::greater<> min_first;

  for (int j = 0; j < m_; ++j) {
    const auto touch = [&](int i) {
      int& stamp = seen[static_cast<std::size_t>(i)];
      if (stamp == j) return;
      stamp = j;
      touched.push_back(i);
      const int k = ipos_[static_cast<std::size_t>(i)];
      if (k < 0) return;
      reach.push_back(k);
      std::push_heap(reach.begin(), reach.end(), min_first);
    };
    const SparseMatrix::ColView bj =
        a.col(basis[static_cast<std::size_t>(order_[static_cast<std::size_t>(j)])]);
    basis_nnz_ += bj.len;
    double colmax = 0.0;
    for (int k = 0; k < bj.len; ++k) {
      x[static_cast<std::size_t>(bj.idx[k])] = bj.val[k];
      touch(bj.idx[k]);
      colmax = std::max(colmax, std::abs(bj.val[k]));
    }

    // Apply the reached pivots in ascending order: u_kj is the workspace
    // value at the k-th pivot row AFTER the eliminations before k, then
    // pivot k's L column is subtracted.
    std::vector<Entry>& ucol = ucols_[static_cast<std::size_t>(j)];
    while (!reach.empty()) {
      std::pop_heap(reach.begin(), reach.end(), min_first);
      const int k = reach.back();
      reach.pop_back();
      const double ukj = x[static_cast<std::size_t>(prow_[static_cast<std::size_t>(k)])];
      if (ukj == 0.0) continue;  // fp-exact: structural zero, nothing to eliminate
      ucol.push_back({k, ukj});
      for (const Entry& e : lcols_[static_cast<std::size_t>(k)]) {
        touch(e.idx);
        double& xi = x[static_cast<std::size_t>(e.idx)];
        xi -= e.val * ukj;
        colmax = std::max(colmax, std::abs(xi));
      }
    }

    // Partial pivoting over the touched rows not yet claimed by a pivot,
    // scanned in ascending row order so ties go to the lowest row index.
    cand.clear();
    for (const int i : touched) {
      if (ipos_[static_cast<std::size_t>(i)] >= 0) continue;
      if (x[static_cast<std::size_t>(i)] == 0.0) continue;  // fp-exact: structural zero
      cand.push_back(i);
    }
    std::sort(cand.begin(), cand.end());
    int p = -1;
    double pv = 0.0;
    for (const int i : cand) {
      const double v = std::abs(x[static_cast<std::size_t>(i)]);
      if (v > pv) {
        pv = v;
        p = i;
      }
    }
    // Acceptance floor for the partial pivot: the caller's pivot decision
    // threshold (the engines' ratio tests never create an exchange whose
    // pivot is at or below it, so a smaller factorization pivot means the
    // basis is singular at the engine's working resolution) composed with
    // the unit-term envelope margin for the column's scale. Refusing
    // declares the basis numerically singular; the engine's reject/reprice
    // and cold-solve fallbacks own recovery.
    const double margin = std::max(analysis::presolve_margin(1, colmax), pivot_floor);
    if (p < 0 || pv <= margin) {
      for (const int i : touched) x[static_cast<std::size_t>(i)] = 0.0;
      return false;  // numerically singular basis
    }
    prow_[static_cast<std::size_t>(j)] = p;
    ipos_[static_cast<std::size_t>(p)] = j;
    const double piv = x[static_cast<std::size_t>(p)];
    udiag_[static_cast<std::size_t>(j)] = piv;

    // L column in ascending row order: BTRAN's Lᵀ pass sums in stored order.
    std::vector<Entry>& lcol = lcols_[static_cast<std::size_t>(j)];
    for (const int i : cand) {
      if (i == p) continue;
      lcol.push_back({i, x[static_cast<std::size_t>(i)] / piv});
    }
    lu_nnz_ += static_cast<long long>(lcol.size() + ucol.size()) + 1;

    for (const int i : touched) x[static_cast<std::size_t>(i)] = 0.0;
    touched.clear();
  }

  last_fill_ = std::max<long long>(0, lu_nnz_ - basis_nnz_);
  factorized_ = true;
  return true;
}

void BasisLu::ftran(std::vector<double>& x) const {
  ND_REQUIRE(factorized_, "BasisLu::ftran before factorize");
  ND_REQUIRE(static_cast<int>(x.size()) == m_, "BasisLu::ftran size");
  // Forward: L y = b in pivot order, y living at the pivot rows.
  for (int k = 0; k < m_; ++k) {
    const double yk = x[static_cast<std::size_t>(prow_[static_cast<std::size_t>(k)])];
    if (yk == 0.0) continue;  // fp-exact: zero rhs component propagates nothing
    for (const Entry& e : lcols_[static_cast<std::size_t>(k)]) {
      x[static_cast<std::size_t>(e.idx)] -= e.val * yk;
    }
  }
  // Gather into pivot order, then backward: U z = y, column-oriented.
  std::vector<double> z(static_cast<std::size_t>(m_));
  for (int k = 0; k < m_; ++k) {
    z[static_cast<std::size_t>(k)] = x[static_cast<std::size_t>(prow_[static_cast<std::size_t>(k)])];
  }
  for (int j = m_ - 1; j >= 0; --j) {
    const double zj = z[static_cast<std::size_t>(j)] / udiag_[static_cast<std::size_t>(j)];
    z[static_cast<std::size_t>(j)] = zj;
    if (zj == 0.0) continue;  // fp-exact: zero coefficient scatters nothing
    for (const Entry& e : ucols_[static_cast<std::size_t>(j)]) {
      z[static_cast<std::size_t>(e.idx)] -= e.val * zj;
    }
  }
  // Pivot k solved for basis position order_[k].
  for (int k = 0; k < m_; ++k) {
    const auto ku = static_cast<std::size_t>(k);
    x[static_cast<std::size_t>(order_[ku])] = z[ku];
  }
  // Product-form etas in creation order: x ← E⁻¹ x with
  // E⁻¹ = I − (w − e_r) e_rᵀ / w_r.
  for (const Eta& eta : etas_) {
    const double t = x[static_cast<std::size_t>(eta.r)] / eta.pivot;
    x[static_cast<std::size_t>(eta.r)] = t;
    if (t == 0.0) continue;  // fp-exact: zero coefficient scatters nothing
    for (const Entry& e : eta.col) {
      x[static_cast<std::size_t>(e.idx)] -= e.val * t;
    }
  }
}

void BasisLu::btran(std::vector<double>& x) const {
  ND_REQUIRE(factorized_, "BasisLu::btran before factorize");
  ND_REQUIRE(static_cast<int>(x.size()) == m_, "BasisLu::btran size");
  // Etas in REVERSE creation order first: x ← E⁻ᵀ x with
  // E⁻ᵀ c: c_r ← (c_r − Σ_{i≠r} w_i c_i) / w_r, other components unchanged.
  for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
    double acc = x[static_cast<std::size_t>(it->r)];
    for (const Entry& e : it->col) {
      acc -= e.val * x[static_cast<std::size_t>(e.idx)];
    }
    x[static_cast<std::size_t>(it->r)] = acc / it->pivot;
  }
  // Gather basis position order_[k] into pivot k, then Uᵀ v = c ascending
  // (row j of Uᵀ is column j of U — a gather).
  std::vector<double> v(static_cast<std::size_t>(m_));
  for (int k = 0; k < m_; ++k) {
    const auto ku = static_cast<std::size_t>(k);
    v[ku] = x[static_cast<std::size_t>(order_[ku])];
  }
  for (int j = 0; j < m_; ++j) {
    double acc = v[static_cast<std::size_t>(j)];
    for (const Entry& e : ucols_[static_cast<std::size_t>(j)]) {
      acc -= e.val * v[static_cast<std::size_t>(e.idx)];
    }
    v[static_cast<std::size_t>(j)] = acc / udiag_[static_cast<std::size_t>(j)];
  }
  // Lᵀ y = v descending, scattered back to matrix rows via the permutation.
  // L column k holds only rows pivoted after k, so every row it reads was
  // already written by this pass.
  for (int k = m_ - 1; k >= 0; --k) {
    double acc = v[static_cast<std::size_t>(k)];
    for (const Entry& e : lcols_[static_cast<std::size_t>(k)]) {
      acc -= e.val * x[static_cast<std::size_t>(e.idx)];
    }
    x[static_cast<std::size_t>(prow_[static_cast<std::size_t>(k)])] = acc;
  }
}

bool BasisLu::update(const std::vector<double>& w, int r) {
  ND_REQUIRE(factorized_, "BasisLu::update before factorize");
  ND_REQUIRE(r >= 0 && r < m_, "BasisLu::update position out of range");
  ND_REQUIRE(static_cast<int>(w.size()) == m_, "BasisLu::update size");
  double wmax = 0.0;
  for (const double v : w) wmax = std::max(wmax, std::abs(v));
  const double pivot = w[static_cast<std::size_t>(r)];
  // Two refusal grounds: the additive envelope (pivot indistinguishable from
  // accumulated roundoff) and the relative floor (eta would amplify existing
  // roundoff past the engines' pivot decision threshold — see envelope.hpp).
  const double margin =
      std::max(analysis::presolve_margin(static_cast<std::size_t>(m_), wmax),
               analysis::eta_pivot_rel_floor() * wmax);
  if (std::abs(pivot) <= margin) return false;  // unstable eta; refactorize

  Eta eta;
  eta.r = r;
  eta.pivot = pivot;
  for (int i = 0; i < m_; ++i) {
    if (i == r) continue;
    const double v = w[static_cast<std::size_t>(i)];
    if (v == 0.0) continue;  // fp-exact: structural zero stays out of the eta
    eta.col.push_back({i, v});
  }
  eta_nnz_ += static_cast<long long>(eta.col.size()) + 1;
  etas_.push_back(std::move(eta));
  return true;
}

bool BasisLu::needs_refactor() const {
  if (!factorized_) return true;
  if (static_cast<int>(etas_.size()) >= kMaxEtas) return true;
  return eta_nnz_ > kEtaNnzFactor * (lu_nnz_ + m_);
}

long long BasisLu::bytes() const {
  long long b = static_cast<long long>(
      prow_.capacity() * sizeof(int) + ipos_.capacity() * sizeof(int) +
      order_.capacity() * sizeof(int) + udiag_.capacity() * sizeof(double));
  for (const auto& c : lcols_) b += static_cast<long long>(c.capacity() * sizeof(Entry));
  for (const auto& c : ucols_) b += static_cast<long long>(c.capacity() * sizeof(Entry));
  for (const Eta& e : etas_) b += static_cast<long long>(e.col.capacity() * sizeof(Entry));
  return b;
}

}  // namespace nd::lp
