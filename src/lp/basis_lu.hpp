// Sparse LU factorization of a simplex basis with product-form eta updates.
//
// The revised simplex engine (lp/simplex_revised.cpp) keeps the basis matrix
// B factorized instead of maintaining a dense tableau:
//   * factorize() runs a left-looking sparse LU with partial pivoting over
//     the basis columns of the shared SparseMatrix, sparsest column first
//     (ascending nonzero count, ties in basis order), so the slack and
//     artificial columns pivot before the structural ones and fill follows
//     nnz(B). Each column is eliminated only by the earlier pivots reachable
//     from its nonzero pattern through the L columns (Gilbert–Peierls),
//     applied in ascending pivot order, and the pivot search and L
//     extraction visit only the rows the column touched. That is the
//     operation order of the dense loop over every earlier pivot and all m
//     rows, so the factors equal its factors bit for bit with the dense loop
//     in that order, while the cost follows the elimination work and the
//     rows touched instead of m²;
//   * ftran() solves B x = b (the entering column / basic values);
//   * btran() solves Bᵀ y = c (duals, pivot rows, Farkas rays);
//   * update() absorbs one basis exchange as a product-form eta matrix
//     B' = B · E instead of refactorizing, refusing unstable pivots;
//   * needs_refactor() trips when the eta file grows past its budget, which
//     is the engine's cue to refactorize from scratch.
//
// Every numeric acceptance threshold in the implementation is derived from
// the shared claim envelope (analysis/exact/envelope.hpp) — this header/cpp
// pair introduces no hand-rolled tolerance literal (banned-pattern lint
// class 8 enforces that).
#pragma once

#include <vector>

#include "lp/sparse.hpp"

namespace nd::lp {

class BasisLu {
 public:
  BasisLu() = default;

  /// Fresh factorization of B = a[:, basis]. Discards the eta file. Returns
  /// false when the basis is numerically singular (a pivot column has no
  /// acceptable pivot); the factorization is then invalid. `pivot_floor` is
  /// the CALLER's pivot decision threshold: the engine's ratio tests refuse
  /// pivot elements at or below it, so a factorization pivot at or below it
  /// means the basis is singular at the resolution the engine works at. The
  /// floor composes with the derived envelope margin — whichever is larger.
  bool factorize(const SparseMatrix& a, const std::vector<int>& basis,
                 double pivot_floor = 0.0);

  [[nodiscard]] bool factorized() const { return factorized_; }
  [[nodiscard]] int dim() const { return m_; }

  /// Solve B x = b in place. Input indexed by matrix row; output indexed by
  /// basis position (x[r] is the coefficient of basis column r).
  void ftran(std::vector<double>& x) const;

  /// Solve Bᵀ y = c in place. Input indexed by basis position; output
  /// indexed by matrix row.
  void btran(std::vector<double>& x) const;

  /// Absorb the basis exchange that replaces basis position r, where w is
  /// the FTRAN image of the entering column (w = B⁻¹ a_q). Returns false —
  /// leaving the factorization unchanged — when |w[r]| is too small relative
  /// to ‖w‖∞ for a stable product-form eta; the caller must refactorize.
  bool update(const std::vector<double>& w, int r);

  /// True when the eta file has outgrown its stability/size budget and the
  /// caller should refactorize at the next convenient point.
  [[nodiscard]] bool needs_refactor() const;

  [[nodiscard]] int eta_count() const { return static_cast<int>(etas_.size()); }
  /// Fill-in of the CURRENT factorization: nnz(L+U) − nnz(B).
  [[nodiscard]] long long last_fill() const { return last_fill_; }
  /// Heap footprint of the factors and eta file, for the mem.* telemetry.
  [[nodiscard]] long long bytes() const;

 private:
  struct Entry {
    int idx = 0;     // row (L) or pivot position (U)
    double val = 0.0;
  };
  struct Eta {
    int r = 0;                   // replaced basis position
    double pivot = 0.0;          // w[r]
    std::vector<Entry> col;      // nonzeros of w off position r
  };

  int m_ = 0;
  bool factorized_ = false;
  std::vector<int> prow_;   // pivot k -> matrix row
  std::vector<int> ipos_;   // matrix row -> pivot k
  std::vector<int> order_;  // pivot k -> basis position
  std::vector<double> udiag_;               // U diagonal per pivot
  std::vector<std::vector<Entry>> lcols_;   // L column per pivot: (row, l), rows ascending
  std::vector<std::vector<Entry>> ucols_;   // U column per pivot: (k < j, u), k ascending
  std::vector<Eta> etas_;
  long long lu_nnz_ = 0;
  long long basis_nnz_ = 0;
  long long last_fill_ = 0;
  long long eta_nnz_ = 0;
};

}  // namespace nd::lp
