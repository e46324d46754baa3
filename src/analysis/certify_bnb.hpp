// Branch-and-bound audit replayer: statically re-walks an AuditLog against
// the original model and confirms the search was sound without re-solving a
// single LP. Checks:
//   * structure:        ids are creation-ordered, parents precede children,
//                       a branched node has exactly two children and they
//                       carry the branched variable;
//   * root certificate: the root LP bound is certified by an independently
//                       verified optimality certificate (or a Farkas ray for
//                       a root-infeasible claim);
//   * bound monotonicity: no child's LP bound beats its parent's;
//   * cover:            each branch's two children partition the parent's
//                       domain of the branch variable (derived from the
//                       nearest ancestor that branched on it, a root fixing,
//                       or the model bounds) with no gap and no overlap;
//   * prune legality:   bound prunes and parent-bound skips clear the FINAL
//                       incumbent cutoff (valid because incumbents only
//                       improve); completion closes match their node bound
//                       within the gap and never beat the final incumbent;
//   * root fixings:     every reduced-cost fixing is justified by the
//                       certified root duals and the warm-start gap;
//   * incumbents:       updates strictly improve, integral updates equal the
//                       node bound, and the final incumbent matches the
//                       returned solution, which is MIP-feasible;
//   * status honesty:   kOptimal is only claimed when every node was fully
//                       disposed (no limit/unprocessed leaves).
//
// A presolved audit's tree searched the reduced model, not `model`;
// searched_model below rebuilds it, and both this replay and the exact one
// (analysis/exact/certify_bnb_exact) run the tree against what it returns.
#pragma once

#include <optional>

#include "analysis/diagnostics.hpp"
#include "milp/audit.hpp"
#include "milp/model.hpp"

namespace nd::model {
class Formulation;
}

namespace nd::analysis {

struct CertifyPresolveOptions;  // analysis/presolve/certify_presolve.hpp

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
/// log is re-proved against `model` with certify_presolve in `opt`'s mode,
/// the reduced model is rebuilt with the solver's own mechanical code
/// (lp::apply_reductions, milp::reduced_model) and the claimed objective
/// shift must match it exactly. No model comes back when the log itself
/// decides the claim — the shift differs, the log proves infeasibility, or
/// presolve eliminated every variable — and the verdict is in `rep`.
SearchedModel searched_model(const milp::Model& model, const milp::AuditLog& log,
                             const CertifyPresolveOptions& opt, Report& rep);

struct CertifyBnbOptions {
  double tol = 1e-6;  ///< relative tolerance for bound/objective comparisons
  /// Deployment formulation behind `model`, when there is one. Needed to
  /// re-prove instance-tagged presolve reductions (dominance / symmetry) in
  /// a presolved audit; without it such records fail with
  /// presolve-needs-instance. Borrowed pointer, not owned.
  const model::Formulation* formulation = nullptr;
};

/// Replay `log` against `model` (through searched_model, in float mode).
/// Clean report = the tree proves the claimed status/objective; defects are
/// error diagnostics naming the node.
Report certify_bnb(const milp::Model& model, const milp::AuditLog& log,
                   const CertifyBnbOptions& opt = {});

}  // namespace nd::analysis
