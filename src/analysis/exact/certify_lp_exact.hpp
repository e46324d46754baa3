// Exact-rational LP certificate checker, the only one in the repo.
//
// It re-verifies an lp::Certificate against the ORIGINAL problem data,
// sharing no state with the engine that produced it: it reconstructs the
// claimed basis and solves the basis system in exact rational arithmetic,
// then proves — with zero tolerance — primal feasibility of the exact basic solution, dual
// feasibility of the exact basis duals, complementary slackness and strong
// duality, both of which hold by construction for a basis solution and are
// asserted as internal consistency.
//
// One sparse rational LU of the basis core A[T,J] (exact/rat_lu.hpp,
// Markowitz order) gives both the basic point, from A[T,J]·x_J = b′, and the
// duals, from A[T,J]ᵀ·y_T = c_J. The checks over all m rows and n columns
// then scale x (and y) by the odd part D of their common denominator, which
// makes every row activity and reduced cost a sum of dyadic products
// (analysis::Dyadic): exact with shifts and additions, compared against
// D·b, with no gcd per term. A failing check rebuilds the Rat it reports.
//
// What cannot be zero-tolerance is comparing the engine's *claimed* float
// numbers (objective, duals, point) against the exact values: an honest
// engine rounds. Those comparisons use the derived envelope of
// exact/envelope.hpp — a function of problem size and magnitude only, with
// no tunable knobs. The same envelopes decide whether the claimed basis is
// optimal at all. Its exact duals, with wrong-signed rows projected to zero,
// prove a lower bound L on the LP optimum (`proved_bound`, with the reduced
// costs `proved_d` that go with it); L is the basis objective exactly when
// the basis is dual feasible. Severity policy:
//   * malformed/singular basis, claimed objective, duals or point outside
//     the envelope, failed Farkas proof          → error
//   * basis objective above L by more than the objective envelope, or no
//     finite L                                   → error (lp-exact-dual)
//   * exact vertex violating a bound by more than the point envelope
//     x_env, or row r by more than x_env·Σ_j |a_rj| (no point within x_env
//     of the vertex satisfies it)                → error (lp-exact-primal)
//   * smaller exact primal or dual infeasibility (the float engine stopped
//     at a not-exactly-optimal basis)            → warning, with the exact
//     violation magnitude; `exactly_optimal` records it
//   * claimed point inside the envelope but not exactly the vertex → info
//
// Independent of the basis solve, `exact_safe_dual_bound` turns ANY float
// dual vector into an unconditionally valid exact lower bound on the LP
// optimum (Neumaier/Shcherbina safe bounding: wrong-signed duals are
// projected to zero, d = c − Aᵀy is computed exactly, and the bound is
// yᵀb + Σ_j min(d_j·lo_j, d_j·hi_j)). This is the workhorse of the exact
// B&B replay — it needs no basis and no division: every term is a product
// of doubles, summed as a Dyadic, and one Rat is built at the end.
#pragma once

#include <string>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "analysis/exact/rat.hpp"
#include "lp/certificate.hpp"
#include "lp/problem.hpp"

namespace nd::analysis {

struct ExactLpOutcome {
  Report report;

  // kOptimal path: did the basis system solve, and is the exact basic
  // solution exactly primal- and dual-feasible (= exactly optimal)?
  bool basis_solved = false;
  bool primal_exact_feasible = false;
  bool dual_exact_feasible = false;
  bool exactly_optimal = false;
  Rat exact_objective;          ///< cᵀx of the exact basic solution
  std::vector<Rat> exact_x;     ///< exact structural values [n]
  std::vector<Rat> exact_y;     ///< exact row duals [m]

  // Lower bound on the LP optimum proved by exact_y with its wrong-signed
  // rows projected to zero, and the reduced costs c − Aᵀy of that projected
  // vector [n]: the pair root reduced-cost fixings are judged with. Valid
  // whether or not the basis is optimal; absent when a nonzero reduced cost
  // meets an infinite bound.
  bool has_proved_bound = false;
  Rat proved_bound;
  std::vector<Rat> proved_d;

  // kInfeasible path: did the Farkas ray prove infeasibility exactly?
  bool farkas_proved = false;

  [[nodiscard]] bool accepted() const { return report.num_errors() == 0; }
};

/// Re-check `cert` against `p` in exact rational arithmetic.
ExactLpOutcome certify_lp_exact(const lp::Problem& p, const lp::Certificate& cert);

/// Safe lower bound on min cᵀx from an arbitrary float dual vector `y` [m].
/// Wrong-signed components (y > 0 on LE rows, y < 0 on GE rows) are projected
/// to zero so the bound is valid for ANY input. Returns false (no bound) only
/// when some nonzero exact reduced cost meets an infinite variable bound.
bool exact_safe_dual_bound(const lp::Problem& p, const std::vector<double>& y,
                           Rat* bound);

/// Exact Farkas infeasibility proof: true iff the (sign-projected) ray
/// strictly separates — the box-maximum of (Aᵀy)ᵀx plus the slack suprema is
/// strictly below yᵀb. On failure `why` (optional) describes the defect.
bool exact_farkas_proves(const lp::Problem& p, const std::vector<double>& ray,
                         std::string* why = nullptr);

/// Solve the square rational system M·x = rhs exactly with the sparse
/// rational LU certify_lp_exact factors its basis core with (RatLu; zero
/// entries of M are skipped). Returns false when M is singular. Exposed for
/// tests.
bool solve_exact_linear_system(std::vector<std::vector<Rat>> M, std::vector<Rat> rhs,
                               std::vector<Rat>* x);

}  // namespace nd::analysis
