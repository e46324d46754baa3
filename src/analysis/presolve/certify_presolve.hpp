// Independent re-prover of a proof-carrying presolve log.
//
// `certify_presolve` replays a lp::ReductionLog record by record against the
// ORIGINAL problem and re-derives every proof obligation from scratch:
//
//   * kTightenLo / kTightenHi (tag kActivity): the justifying row, under the
//     bounds state of the preceding records, must imply the claimed bound —
//     via the activity argument, with integrality rounding for integer
//     columns.
//   * kFixVar / kActivity: the box must already be the claimed point (the
//     record formalises a closed box; it may not invent a value).
//   * kFixVar / kEmptyColumn: the column must be absent from every surviving
//     row and the value must be the objective-preferred finite bound.
//   * kDropRow: the row's activity bound under the current boxes must prove
//     it redundant (LE: max activity ≤ rhs; GE: min activity ≥ rhs).
//   * kTightenCoef: Savelsbergh tightening on a binary column of a LE row —
//     the rhs/coefficient update must be EXACT and the x_j = 0 / x_j = 1
//     cases both remain implied.
//   * kFixVar with an instance tag (kDominance / kOrbit / kTwin): delegated
//     to check_instance_record, which needs `formulation`; these proofs are
//     equality-based on the model's written constants, so they are exact as
//     written.
//
// Every activity, row-drop and coefficient claim is proved in rational
// arithmetic with zero tolerance: the activity sums are exact, so the margin
// the presolve passes back their claims off by (presolve_margin,
// analysis/exact/envelope.hpp) is what lets an honest claim pass.
//
// A record that fails re-proof is an error diagnostic (presolve-bad-*). A
// VALID record whose mechanical application crosses a box is an honest
// infeasibility PROOF of the original instance — reported as the info
// diagnostic presolve-infeasible, with a note for unreachable trailing
// records. The canonical instance hash, when both sides are available, is
// recomputed and compared (presolve-hash on mismatch).
#pragma once

#include <vector>

#include "analysis/diagnostics.hpp"
#include "lp/presolve.hpp"
#include "lp/problem.hpp"
#include "milp/model.hpp"
#include "model/formulation.hpp"

namespace nd::analysis {

struct CertifyPresolveOptions {
  /// Required to re-prove instance-tagged records and the canonical hash;
  /// without it such records are rejected with presolve-needs-instance.
  const model::Formulation* formulation = nullptr;
};

/// Verify `log` against problem `p` with integrality marks `integer` (empty
/// → all continuous; integral rounding in bound proofs is only granted to
/// marked columns). Clean report = every record re-proved.
Report certify_presolve(const lp::Problem& p, const std::vector<char>& integer,
                        const lp::ReductionLog& log, const CertifyPresolveOptions& opt = {});

/// MILP convenience overload: integrality marks taken from the model.
Report certify_presolve(const milp::Model& m, const lp::ReductionLog& log,
                        const CertifyPresolveOptions& opt = {});

}  // namespace nd::analysis
