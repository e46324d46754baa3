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
#pragma once

#include "analysis/diagnostics.hpp"
#include "milp/audit.hpp"
#include "milp/model.hpp"

namespace nd::model {
class Formulation;
}

namespace nd::analysis {

struct CertifyBnbOptions {
  double tol = 1e-6;  ///< relative tolerance for bound/objective comparisons
  /// Deployment formulation behind `model`, when there is one. Needed to
  /// re-prove instance-tagged presolve reductions (dominance / symmetry) in
  /// a presolved audit; without it such records fail with
  /// presolve-needs-instance. Borrowed pointer, not owned.
  const model::Formulation* formulation = nullptr;
};

/// Replay `log` against `model`. Clean report = the tree proves the claimed
/// status/objective; defects are error diagnostics naming the node.
Report certify_bnb(const milp::Model& model, const milp::AuditLog& log,
                   const CertifyBnbOptions& opt = {});

}  // namespace nd::analysis
