// Proof-carrying presolve for LPs and MILPs.
//
// The presolve engine never hands the solver a transformed model it cannot
// justify: every reduction it performs is a typed `Reduction` record whose
// validity an independent checker (analysis/presolve/certify_presolve) can
// re-prove from the ORIGINAL problem data — in float arithmetic with the
// derived envelope, or in exact rational arithmetic with zero tolerance.
//
// Split of responsibilities:
//   * this file (lp layer): the record types, their JSON round-trip, the
//     purely MECHANICAL application step `apply_reductions` (overlay bounds /
//     coefficients, drop rows, eliminate fixed columns), lifting of points
//     back to the original space, and the
//     model-structure passes (activity-based bound propagation, Savelsbergh
//     coefficient tightening, redundant-row and empty-column elimination);
//   * analysis/presolve (analysis layer): instance-level passes that need the
//     deployment problem (V/F dominance, mesh/task symmetry), and the
//     independent certifier for the whole log.
//
// Exactness discipline: `apply_reductions` is shared verbatim by the solver
// and by every checker, so both sides reconstruct bit-identical reduced
// problems from (problem, log). A fixed column is only substituted out of a
// row when the rhs/objective update is provably EXACT in double arithmetic
// (checked with error-free transformations); otherwise the column stays in
// the reduced problem with a pinned [v, v] box. This keeps the reduced model
// exactly equivalent to the original on the eliminated coordinates, so a
// certificate the zero-tolerance exact checker proves against the reduced
// model (rebuilt from the same log) is a proof about the original.
//
// Float margins used by the passes are derived from the shared claim
// envelope (analysis/exact/envelope.hpp); presolve introduces no tunable
// tolerance of its own (banned-pattern lint class 7 enforces that).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "lp/certificate.hpp"
#include "lp/problem.hpp"

namespace nd::lp {

/// What a reduction does to the problem.
enum class ReductionKind : std::uint8_t {
  kTightenLo,    ///< raise the lower bound of `var` to `value`
  kTightenHi,    ///< lower the upper bound of `var` to `value`
  kFixVar,       ///< pin `var` to `value` (lo = hi = value)
  kDropRow,      ///< delete row `row` (proved redundant over the current box)
  kTightenCoef,  ///< row `row`, var `var`: coefficient := `coef`, rhs := `rhs`
};

/// Which proof obligation justifies the record.
enum class ReductionTag : std::uint8_t {
  kActivity,     ///< provable from row `row`'s activity bounds (plus
                 ///< integrality rounding for integer variables)
  kEmptyColumn,  ///< `var` appears in no surviving row; fixed at the
                 ///< objective-preferred finite bound
  kDominance,    ///< instance proof: V/F level of `var` dominated by the
                 ///< level of witness variable `aux`
  kOrbit,        ///< instance proof: mesh-automorphism orbit fixing with
                 ///< representative variable `aux`
  kTwin,         ///< instance proof: task-twin symmetry breaking against
                 ///< partner variable `aux`
};

const char* to_string(ReductionKind k);
const char* to_string(ReductionTag t);

/// One presolve reduction with its justification payload. Records are
/// ORDERED: each is proved against the bounds/rows state produced by all
/// previous records, and `apply_reductions` replays them in sequence.
struct Reduction {
  ReductionKind kind = ReductionKind::kFixVar;
  ReductionTag tag = ReductionTag::kActivity;
  int var = -1;       ///< structural variable (bound/fix/coef records)
  int row = -1;       ///< row (drop/coef records; justifying row for activity)
  int aux = -1;       ///< witness variable (dominance/orbit/twin)
  double value = 0.0; ///< new bound / fixed value
  double coef = 0.0;  ///< kTightenCoef: new coefficient of `var` in `row`
  double rhs = 0.0;   ///< kTightenCoef: new rhs of `row`
};

/// The full proof-carrying log of one presolve run.
struct ReductionLog {
  std::vector<Reduction> reductions;
  /// Canonical instance hash from the symmetry pass (0 when the log was not
  /// produced by the instance presolve). Purely informational for solving;
  /// ROADMAP item 2's instance cache keys on it.
  std::uint64_t canonical_hash = 0;
};

json::Value reduction_log_to_json(const ReductionLog& log);
ReductionLog reduction_log_from_json(const json::Value& v);

/// Reduction tallies for telemetry / reports.
struct PresolveStats {
  int rows_removed = 0;        ///< rows dropped (redundant or emptied)
  int cols_removed = 0;        ///< columns substituted out of the problem
  int cols_pinned = 0;         ///< fixed columns kept (inexact substitution)
  long long nonzeros_removed = 0;
  int bound_tightenings = 0;   ///< kTightenLo/kTightenHi records applied
  int coef_tightenings = 0;
  int fixings = 0;             ///< kFixVar records applied
  int rounds = 0;              ///< fixpoint rounds the model passes ran
};

/// Result of mechanically applying a ReductionLog to a Problem.
struct PresolvedLp {
  Problem reduced;
  std::vector<int> orig_of_var;     ///< reduced j  -> original j
  std::vector<int> orig_of_row;     ///< reduced r  -> original r
  std::vector<int> red_of_var;      ///< original j -> reduced j, or -1
  std::vector<int> red_of_row;      ///< original r -> reduced r, or -1
  std::vector<double> fixed_value;  ///< original j -> value (eliminated cols)
  double obj_shift = 0.0;           ///< original obj = reduced obj + shift
  bool infeasible = false;          ///< record application crossed a bound or
                                    ///< left an unsatisfiable empty row
  std::string infeasible_why;       ///< first contradiction, for diagnostics
  PresolveStats stats;
};

/// Incremental record replay: the bounds/rows state of `p` after a prefix of
/// a reduction log. This is the same working state the pass engine and
/// `apply_reductions` maintain internally, exposed so the independent
/// certifier (analysis/presolve) can prove record k against the state that
/// records 0..k-1 produced. The PROOFS are the certifier's own; only the
/// mechanical bookkeeping is shared, which is what makes "the problem after
/// a prefix of the log" well-defined on both sides.
class ReductionReplay {
 public:
  explicit ReductionReplay(const Problem& p);
  ReductionReplay(ReductionReplay&&) noexcept;
  ReductionReplay& operator=(ReductionReplay&&) noexcept;
  ~ReductionReplay();

  /// Apply one record mechanically (no proof). Returns false once the state
  /// is contradictory; the first contradiction is kept in why().
  bool apply(const Reduction& rc);

  [[nodiscard]] bool infeasible() const;
  [[nodiscard]] const std::string& why() const;
  [[nodiscard]] int num_vars() const;
  [[nodiscard]] int num_rows() const;
  [[nodiscard]] double lo(int j) const;
  [[nodiscard]] double hi(int j) const;
  /// True when a RECORD pinned column j (a fix, or a bound tighten that
  /// closed the box). Columns the original problem already pins are not
  /// flagged — original boxes are part of the baseline feasible set.
  [[nodiscard]] bool pinned(int j) const;
  [[nodiscard]] bool row_dropped(int r) const;
  /// Current view of row r: tightened coefficients / rhs, original sense.
  [[nodiscard]] Row row(int r) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Replay `log` onto `p` and compact: overlay bounds / coefficients / rhs,
/// drop dropped rows, substitute out fixed columns where the arithmetic is
/// provably exact (see file header), delete rows that became empty and
/// trivially satisfied. Deterministic: solver and checkers share this code
/// and reconstruct bit-identical reduced problems.
PresolvedLp apply_reductions(const Problem& p, const ReductionLog& log);

/// Lift a reduced-space point to original space (eliminated coordinates get
/// their fixed values).
std::vector<double> lift_point(const PresolvedLp& map, const std::vector<double>& xr);

/// Optimal certificate for a fully-eliminated problem (0 variables): empty
/// point, zero objective/duals, every surviving row basic in its own slack.
/// Sets *feasible to false (and returns a kInfeasible certificate without a
/// ray) when a surviving row — necessarily an originally-empty one — is
/// unsatisfiable as a constant constraint.
Certificate trivial_certificate(const Problem& reduced, bool* feasible);

/// Run the model-structure passes over `p` — activity-based bound
/// tightening, Savelsbergh coefficient tightening on binary columns,
/// redundant-row drops and empty-column fixings — to a fixpoint of at most
/// 10 rounds, APPENDING records to `log` (existing records — e.g. from the
/// instance presolve — are replayed into the working state first).
/// `integer[j]` marks integer variables (empty → all continuous): integral
/// bounds are rounded, which is valid for the MILP feasible set but NOT for
/// the LP relaxation, so LP-only callers must leave it empty. Returns the
/// number of fixpoint rounds run.
int presolve_model_passes(const Problem& p, const std::vector<char>& integer,
                          ReductionLog& log);

}  // namespace nd::lp
