// Bounded-variable two-phase revised simplex.
//
// `Simplex` owns one engine (lp/simplex_revised.cpp): revised simplex over
// the shared sparse CSC/CSR matrix (lp/sparse.hpp) with an LU-factorized
// basis and product-form eta updates (lp/basis_lu.hpp), FTRAN/BTRAN solves,
// and devex pricing with the Bland anti-cycling fallback.
//
// Design (see DESIGN.md §2 and docs/solver.md):
//  * Internal form: every user row becomes an equality `aᵀx + s = rhs` with a
//    slack s bounded by the row sense (LE: [0, +inf), GE: (-inf, 0],
//    EQ: [0, 0]); one artificial column per row provides the phase-1 basis.
//  * A branch-and-bound driver keeps ONE engine alive for the whole tree:
//    branching only changes variable bounds, which keeps the basis
//    dual-feasible, and `dual_resolve()` repairs primal feasibility in a
//    handful of pivots on top of the standing factorization.
//  * Periodic residual checks trigger a refactorization when numerical drift
//    exceeds tolerance.
//
// This is a from-scratch replacement for the commercial MILP/LP stack the
// paper uses (Gurobi); no solver library exists in this environment.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/invariants.hpp"
#include "lp/problem.hpp"

namespace nd::lp {

enum class SolveStatus : std::uint8_t {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterLimit,
};

const char* to_string(SolveStatus s);

/// Variable position relative to the basis.
enum class VarStatus : std::uint8_t { kBasic, kAtLower, kAtUpper };

/// Primal pricing rule. Devex needs fewer pivots on cold solves; Dantzig is
/// what branch-and-bound pins: on a degenerate optimal face the pricing rule
/// decides which vertex the node LP lands on, hence which variable is
/// fractional and the shape of the whole tree (docs/solver.md).
enum class Pricing : std::uint8_t {
  kDevex,    ///< largest d² / reference weight (default)
  kDantzig,  ///< largest |d|, first index on ties
};

struct Certificate;  // lp/certificate.hpp

namespace detail {
class RevisedEngine;  // lp/simplex_revised.cpp
}  // namespace detail

class Simplex {
 public:
  struct Options {
    int max_iters = 200000;             ///< pivot limit per solve call
    Pricing pricing = Pricing::kDevex;  ///< primal pricing rule
  };

  /// Optional wall-clock deadline (checked every 128 pivots); expiry makes
  /// the current loop return kIterLimit, and a default-constructed time
  /// point clears it. Used by branch-and-bound so one pathological LP cannot
  /// overrun the global time limit.
  void set_deadline(std::chrono::steady_clock::time_point t);

  explicit Simplex(const Problem& p);
  Simplex(const Problem& p, Options opt);
  Simplex(Simplex&&) noexcept;
  Simplex& operator=(Simplex&&) noexcept;
  ~Simplex();

  /// Solve from scratch (phase 1 + phase 2).
  SolveStatus solve();

  /// Re-optimize after set_bound() calls, starting from the current basis
  /// (dual simplex, falling back to a fresh solve on numerical trouble).
  SolveStatus dual_resolve();

  /// Change the bounds of structural variable j. Keeps the engine state
  /// consistent; call dual_resolve() afterwards (possibly after several
  /// set_bound calls).
  void set_bound(int j, double lo, double hi);

  [[nodiscard]] double bound_lo(int j) const;
  [[nodiscard]] double bound_hi(int j) const;

  /// Objective value of the last optimal solve.
  [[nodiscard]] double objective() const;

  /// Structural-variable values of the last optimal solve.
  [[nodiscard]] std::vector<double> solution() const;

  /// Value of a single structural variable.
  [[nodiscard]] double value(int j) const;

  /// Reduced cost of a structural variable (valid after an optimal solve).
  [[nodiscard]] double reduced_cost(int j) const;
  [[nodiscard]] VarStatus var_status(int j) const;

  [[nodiscard]] int iterations() const;

  /// Cumulative work tallies since construction. Maintained unconditionally —
  /// they are plain integer increments on paths that already touch the same
  /// cache lines, plus two clock reads per factorization for factorize_ns —
  /// so callers can report them with or without the obs layer;
  /// NOCDEPLOY_OBS only gates the export (see emit_lp_counters).
  struct Counters {
    long long solves = 0;            ///< cold solve() calls
    long long dual_resolves = 0;     ///< warm dual_resolve() entries
    long long pivots = 0;            ///< basis-changing pivots
    long long bound_flips = 0;       ///< nonbasic bound-to-bound moves
    long long bland_activations = 0; ///< devex/Dantzig → Bland pricing switches
    long long refactorizations = 0;  ///< basis refactorizations
    long long phase1_iters = 0;      ///< iterations inside phase-1 loops
    long long phase2_iters = 0;      ///< iterations inside phase-2 loops
    // Factorization work.
    long long ftrans = 0;            ///< FTRAN solves (B x = b)
    long long btrans = 0;            ///< BTRAN solves (Bᵀ y = c)
    long long eta_updates = 0;       ///< product-form basis updates absorbed
    long long refactor_fill = 0;     ///< cumulative LU fill-in (nnz(L+U)−nnz(B))
    long long factorize_ns = 0;      ///< wall time inside BasisLu::factorize
  };
  [[nodiscard]] const Counters& counters() const;

  /// Dominant heap footprint of the engine in bytes: the sparse matrix and
  /// its row view, the LU factors and the eta file. Feeds the
  /// mem.lp.engine_bytes telemetry counter.
  [[nodiscard]] long long memory_bytes() const;

  /// Status of the most recent solve()/dual_resolve() call.
  [[nodiscard]] SolveStatus last_status() const;

  /// The most recent solve's proof vector over the rows [m]: the duals
  /// y = B⁻ᵀc_B after kOptimal; the Farkas ray after kInfeasible (the
  /// phase-1 duals, or ±row of B⁻¹ at a dual-simplex breakdown row); empty
  /// after any other status. One BTRAN, counted in counters().btrans. The
  /// vector depends only on the basis, so bound changes since the solve do
  /// not alter it.
  [[nodiscard]] std::vector<double> proof_vector() const;

  /// Build a certificate for the most recent solve: proof_vector() as the
  /// row duals y plus reduced costs recomputed from the ORIGINAL data
  /// (d = c − Aᵀy) on kOptimal; proof_vector() as the Farkas ray on
  /// kInfeasible. The certificate is relative to the engine's CURRENT
  /// variable bounds — identical to the problem's unless set_bound() was
  /// used.
  [[nodiscard]] Certificate extract_certificate() const;

 private:
  std::unique_ptr<detail::RevisedEngine> impl_;
};

/// One-shot convenience: build one engine on `p` as given and solve it cold;
/// returns (status, obj, x).
struct LpResult {
  SolveStatus status = SolveStatus::kIterLimit;
  double obj = 0.0;
  std::vector<double> x;
  int iterations = 0;
};
LpResult solve_lp(const Problem& p, Simplex::Options opt = {});

/// Flush an engine's cumulative Counters into the obs telemetry layer under
/// the "lp." prefix. Call exactly once per engine, at its end of life —
/// the tallies are cumulative, so a second call would double-count. No-op
/// when no telemetry session is collecting (or the layer is compiled out).
void emit_lp_counters(const Simplex& engine);

}  // namespace nd::lp
