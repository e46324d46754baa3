// Branch-and-bound audit tree pass: statically re-walks an AuditLog against
// the model its tree searched, without re-solving a single LP, and checks
// the tree logic no exact proof covers:
//   * structure:        ids are creation-ordered, parents precede children,
//                       a branched node has exactly two children and they
//                       carry the branched variable; every branch interval
//                       and root fixing has lo <= hi and a finite end;
//   * bound monotonicity: no child's LP bound beats its parent's;
//   * cover:            each branch's two children partition the parent's
//                       domain of the branch variable (derived from the
//                       nearest ancestor that branched on it, a root fixing,
//                       or the model bounds) with no gap and no overlap;
//   * prune legality:   bound prunes and parent-bound skips clear the FINAL
//                       incumbent cutoff (valid because incumbents only
//                       improve); completion closes match their node bound
//                       within the gap and never beat the final incumbent;
//   * incumbents:       updates strictly improve, integral updates equal the
//                       node bound, the final incumbent matches the claimed
//                       objective, and the returned point is MIP-feasible;
//   * status honesty:   kOptimal is only claimed when every node was fully
//                       disposed (no limit/unprocessed leaves);
//   * timeline (info):  when the first and the best incumbent were found.
// Recorded floats are compared within 1e-6 (docs/certify.md lists each
// check's tolerance).
//
// The pass trusts every recorded number it does not compare: the root
// certificate, the root fixings, each node's LP bound, the objective of the
// returned point and the claimed best bound. The exact replay
// (analysis/exact/certify_bnb_exact) runs this pass first and then re-proves
// all of those in rational arithmetic; it is the audit replay `certify` and
// `crosscheck` run. certify_bnb alone is the tree pass for a caller that
// wants the tree logic without the exact proofs.
//
// A presolved audit's tree searched the reduced model, not `model`;
// searched_model below rebuilds it, and both replays run against what it
// returns.
#pragma once

#include <optional>

#include "analysis/diagnostics.hpp"
#include "milp/audit.hpp"
#include "milp/model.hpp"

namespace nd::model {
class Formulation;
}

namespace nd::analysis {

/// The model an audit's tree search ran on, as searched_model finds it.
struct SearchedModel {
  const milp::Model* original = nullptr;  ///< unpresolved audit: the caller's model
  std::optional<milp::Model> reduced;     ///< presolved audit: rebuilt from its log
  /// The model to replay the tree against; nullptr when the reduction log
  /// alone decided the claim.
  [[nodiscard]] const milp::Model* get() const {
    return reduced.has_value() ? &*reduced : original;
  }
};

/// The front half of every audit replay: which model did `log`'s tree
/// search? Unpresolved, that is `model` itself. Presolved, the reduction
/// log is re-proved against `model` with certify_presolve (`formulation`
/// re-proves its instance-tagged records), the reduced model is rebuilt with
/// the solver's own mechanical code (lp::apply_reductions,
/// milp::reduced_model) and the claimed objective shift must match it
/// exactly. No model comes back when the log itself decides the claim — the
/// shift differs, the log proves infeasibility, or presolve eliminated every
/// variable — and the verdict is in `rep`.
SearchedModel searched_model(const milp::Model& model, const milp::AuditLog& log,
                             const model::Formulation* formulation, Report& rep);

struct CertifyBnbOptions {
  /// Deployment formulation behind `model`, when there is one. Needed to
  /// re-prove instance-tagged presolve reductions (dominance / symmetry) in
  /// a presolved audit; without it such records fail with
  /// presolve-needs-instance. Borrowed pointer, not owned.
  const model::Formulation* formulation = nullptr;
};

/// Run the tree pass on `log` against `model` (through searched_model).
/// Clean report = the tree logic holds; defects are error diagnostics naming
/// the node.
Report certify_bnb(const milp::Model& model, const milp::AuditLog& log,
                   const CertifyBnbOptions& opt = {});

/// The tree pass proper, against `searched`, the model searched_model
/// returned. Appends its diagnostics to `rep`; false when the structure
/// section failed, in which case nothing after it was checked.
bool certify_bnb_tree(const milp::Model& searched, const milp::AuditLog& log, Report& rep);

}  // namespace nd::analysis
