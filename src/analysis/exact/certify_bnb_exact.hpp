// The audit replay: runs certify_bnb's tree pass, then re-proves in exact
// rational arithmetic every number that pass takes on trust.
//
// The tree pass (analysis/certify_bnb) checks the tree logic around each
// node's RECORDED LP bound: structure, cover, bound monotonicity, prune
// legality against the recorded bounds, status honesty, the incumbent
// trajectory and MIP feasibility of the returned point. When its structure
// section fails nothing else runs, so no node domain is ever loaded from a
// malformed log. This replay then trusts nothing numeric: for every node
// whose disposition rests on an LP bound (pruned by bound, proved
// infeasible, completion-closed, or skipped under its parent's bound) it
// takes a proof vector for that node's LP, over the node's exact domain
// reconstructed by milp::node_domain, and turns it into an exact verdict:
// duals into an unconditionally valid rational lower bound via
// exact_safe_dual_bound (wrong-signed duals are projected away, so a sloppy
// vector can only WEAKEN the bound, never forge one), a ray into an exact
// Farkas check via exact_farkas_proves. Both are sound for ANY vector
// (Neumaier & Shcherbina, Math. Prog. 99, 2004). The exact bound must then
// clear the final incumbent cutoff within the derived envelope of
// exact/envelope.hpp.
//
//   * kPrunedBound / kSkippedParentBound  → safe exact bound ≥ cutoff*
//   * kCompletionClosed                   → completion obj ≤ safe bound + gap
//   * kPrunedInfeasible                   → exact Farkas proof of the node LP
//   * root                                → full exact certificate re-check
//                                           (certify_lp_exact) + bound match
//   * root reduced-cost fixings           → the root bound its exact duals
//                                           prove, plus the reduced cost of
//                                           the same duals, closes the
//                                           warm-start gap
//   * final claims                        → exact cᵀx vs claimed objective,
//                                           best_bound ≤ objective
//
// The proof vector comes first from the log: the vector the B&B driver's
// engine held when it solved the node (milp::AuditNode::proof; the parent's
// for a skipped sibling), checked directly the way VIPR certificates verify
// MILP trees (Cheung, Gleixner & Steffy, IPCO 2017). Its verdict is kept
// only when it re-proves the disposition with nothing to report. A node with
// no vector (logs written before the field existed), a malformed one (row out
// of range, repeated row, non-finite value — one kBnbExactResolve warning
// each), or one that falls short is decided by re-solving its LP COLD and
// checking the re-solve's vector; every prune diagnostic comes from that
// path. Replay visits nodes in log order, whose consecutive domains differ
// in many bounds at once, so a warm dual re-solve would be both far slower
// here and exactly the code path whose verdicts this replay exists to
// distrust.
//
// A node LP that fails to re-solve inside the time budget degrades to a
// WARNING (the proof is incomplete, not refuted). A prune whose re-proof
// FAILS is an error when the log claims a proved status (kOptimal or
// kInfeasible) — the proof has a hole — but a warning under kFeasible,
// where the incumbent and best_bound stand regardless of which subtrees
// were discarded.
//
// A presolved audit is replayed against the reduced model its tree searched:
// analysis::searched_model (analysis/certify_bnb.hpp) re-proves the
// reduction log with certify_presolve, in rational arithmetic, and rebuilds
// that model, or decides the claim from the log alone.
//
// Telemetry: exact.time.root_ns (the root certify_lp_exact) and
// exact.time.nodes_ns (the node pass), once per certify_bnb_exact call.
#pragma once

#include "analysis/diagnostics.hpp"
#include "analysis/exact/rat.hpp"
#include "milp/audit.hpp"
#include "milp/model.hpp"

namespace nd::model {
class Formulation;
}

namespace nd::analysis {

struct CertifyBnbExactOptions {
  /// Wall-clock budget for the whole node pass (recorded-vector checks and
  /// LP re-solves together); nodes that miss it degrade to kBnbExactResolve
  /// warnings.
  double lp_time_limit_s = 10.0;
  /// Deployment formulation behind the model, for re-proving instance-tagged
  /// presolve reductions in a presolved audit. Borrowed pointer, not owned.
  const model::Formulation* formulation = nullptr;
};

struct ExactBnbOutcome {
  Report report;
  int bounds_reproved = 0;   ///< node bounds re-proved exactly
  /// ... of which from the vectors the driver recorded (AuditNode::proof),
  /// with no re-solve.
  int reproved_from_vectors = 0;
  /// Cold node LP re-solves run: the node's LP had no usable recorded
  /// vector, or its vector did not prove the disposition.
  int resolves = 0;
  int resolves_failed = 0;   ///< node LPs that could not be re-solved in time

  [[nodiscard]] bool accepted() const { return report.num_errors() == 0; }
};

ExactBnbOutcome certify_bnb_exact(const milp::Model& model, const milp::AuditLog& log,
                                  const CertifyBnbExactOptions& opt = {});

}  // namespace nd::analysis
