// Sparse LU factorization of a square rational matrix, in exact arithmetic.
//
// The exact LP re-check solves two systems with the same basis core A[T,J]:
// A[T,J]·x_J = b′ for the basic point and A[T,J]ᵀ·y_T = c_J for the duals.
// Deployment cores are sparse — mostly ±1 singleton columns, a few columns
// with 2–8 entries — so one sparse factorization serves both solves.
//
// Elimination follows Markowitz order (Markowitz, Management Sci. 3, 1957;
// the exact LP solver QSopt_ex factors its bases the same way): each step
// takes the active nonzero minimising (r−1)(c−1), with r and c the counts of
// its row and column in the active submatrix. In exact arithmetic any
// nonzero pivot is exact, so the order only decides fill-in and operand
// growth, never correctness. Ties go to a pivot whose magnitude is a power
// of two (its multipliers stay dyadic), then to the lowest column, then to
// the lowest row, so the factorization is deterministic. Exact cancellation
// removes an entry, and the matrix is singular exactly when an active
// column runs out of entries.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "analysis/exact/rat.hpp"

namespace nd::analysis {

class RatLu {
 public:
  struct Entry {
    std::size_t row = 0;
    std::size_t col = 0;
    Rat val;
  };

  /// Factors the k×k matrix M whose nonzeros are `entries` (entries at the
  /// same position add up; zeros are dropped). False when M is singular, in
  /// which case the solves must not be called.
  bool factorize(std::size_t k, const std::vector<Entry>& entries);

  /// x with M·x = b (b indexed by row, x by column).
  [[nodiscard]] std::vector<Rat> solve(std::vector<Rat> b) const;

  /// y with Mᵀ·y = c (c indexed by column, y by row).
  [[nodiscard]] std::vector<Rat> solve_transposed(std::vector<Rat> c) const;

 private:
  // Elimination step p pivots on (row, col): each row i of `lower`
  // subtracts l_i times the pivot row, whose entries right of the pivot
  // (columns eliminated later) are `upper`.
  struct Step {
    std::size_t row = 0;
    std::size_t col = 0;
    Rat pivot;
    std::vector<std::pair<std::size_t, Rat>> lower;  // (row i, l_i)
    std::vector<std::pair<std::size_t, Rat>> upper;  // (col j, u_j)
  };

  std::size_t k_ = 0;
  std::vector<Step> steps_;
};

}  // namespace nd::analysis
