// Branch-and-bound audit log: a complete, replayable trace of the search
// tree. When MipOptions::audit is set, the solver records every node it
// creates — the bound interval that spawned it, its LP bound, and how it was
// disposed of (branched, pruned, integral, completion-closed, skipped under
// the parent bound, or cut off by a limit) — plus the root LP certificate,
// every root reduced-cost fixing, and the incumbent trajectory.
//
// The audit replay (analysis/exact/certify_bnb_exact.hpp, whose tree pass is
// analysis/certify_bnb.hpp) re-walks this log against the original model
// and confirms, without trusting the solver: bounds never regress down the
// tree, every branch's children partition the parent's domain, every prune
// was legal against the FINAL incumbent, the incumbent only ever improved
// and matches the returned solution, and a status of kOptimal is only
// claimed for a fully disposed tree.
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "lp/certificate.hpp"
#include "lp/presolve.hpp"
#include "milp/branch_and_bound.hpp"

namespace nd::milp {

/// Sparse row vector: (row, value) nonzeros.
using ProofVector = std::vector<std::pair<int, double>>;

/// How a node left the active set.
enum class NodeDisp : std::uint8_t {
  kUnprocessed,        ///< created but never reached (only legal under a limit)
  kBranched,           ///< split into two children
  kPrunedBound,        ///< LP bound ≥ incumbent cutoff
  kPrunedInfeasible,   ///< node LP infeasible
  kIntegral,           ///< LP point integral (incumbent candidate)
  kCompletionClosed,   ///< completion heuristic matched the LP bound
  kSkippedParentBound, ///< sibling never solved: parent bound ≥ cutoff
  kLimit,              ///< time/node/iteration limit hit at this node
};

const char* to_string(NodeDisp d);

struct AuditNode {
  int id = -1;
  int parent = -1;   ///< -1 for the root
  int var = -1;      ///< bound applied at creation (-1 for the root)
  double lo = 0.0, hi = 0.0;
  bool lp_solved = false;
  double bound = 0.0;         ///< node LP objective (valid iff lp_solved)
  NodeDisp disp = NodeDisp::kUnprocessed;
  int branch_var = -1;        ///< variable split here (kBranched only)
  bool has_completion = false;
  double completion_obj = 0.0;
  bool incumbent_update = false;
  double incumbent_obj = 0.0;  ///< incumbent value right after the update
  /// Monotonic nanoseconds since the solve started, stamped when the node is
  /// processed (disposed). 0 on logs written before this field existed — the
  /// JSON round-trip treats an absent field as 0 — so replays can always
  /// compute a time-to-incumbent trajectory, degenerating to "unknown" on
  /// legacy logs.
  std::int64_t t_ns = 0;
  /// The node LP's proof vector as the solving engine held it
  /// (lp::Simplex::proof_vector): the row duals y = B⁻ᵀc_B when the LP
  /// solved (lp_solved), the Farkas ray when it proved infeasible
  /// (kPrunedInfeasible). Stored as its (row, value) nonzeros in ascending
  /// row order, sized exactly; an all-zero vector is an empty one. Absent
  /// for nodes whose LP was never solved, and on logs written before the
  /// field existed (the JSON round-trip leaves an absent field absent). The
  /// exact replay (analysis/exact/certify_bnb_exact.hpp) checks it before
  /// re-solving anything, and trusts none of it: the exact bound and the
  /// Farkas check are sound for any vector, and a vector that is malformed
  /// or does not prove the node's disposition sends the replay back to a
  /// cold re-solve.
  std::optional<ProofVector> proof;
};

/// One root reduced-cost fixing: variable frozen to a single bound for the
/// whole tree because its reduced cost alone closes the incumbent gap.
struct RootFixing {
  int var = -1;
  bool at_lower = false;  ///< frozen at its lower bound (else upper)
  double lo = 0.0, hi = 0.0;  ///< the frozen interval (lo == hi)
};

struct AuditLog {
  /// Presolve header. When `presolved` is set, EVERY number below — x, obj,
  /// best_bound, warm_obj, node bounds, the root certificate, root fixings
  /// and node var indices — lives in the REDUCED space obtained by applying
  /// `reductions` to the original model (lp::apply_reductions), and the
  /// original-space objective is `obj + presolve_shift`. The replays
  /// rebuild that space through one front half (analysis::searched_model in
  /// analysis/certify_bnb.hpp): it certifies the reduction log itself
  /// against the original model and mechanically rebuilds the reduced model,
  /// and the tree is replayed against THAT — so the audit stays sound
  /// end-to-end without trusting the presolve either.
  bool presolved = false;
  lp::ReductionLog reductions;
  double presolve_shift = 0.0;  ///< original obj = reduced obj + shift

  // Root state.
  bool warm_accepted = false;
  double warm_obj = 0.0;       ///< initial incumbent (valid iff warm_accepted)
  double root_bound = 0.0;
  lp::Certificate root_cert;   ///< optimality proof / Farkas ray for the root LP
  std::vector<RootFixing> root_fixings;

  // The tree, in creation order (node 0 is the root).
  std::vector<AuditNode> nodes;

  // Claimed outcome, mirrored from MipResult.
  MipStatus status = MipStatus::kUnknown;
  double obj = 0.0;
  double best_bound = 0.0;
  std::vector<double> x;

  // Tolerances the run used (the replayer honours the same gaps).
  double int_tol = 1e-6;
  double abs_gap = 1e-9;
  double rel_gap = 1e-6;
};

/// JSON round-trip for the CLI (`nocdeploy-cli certify --audit F`).
json::Value audit_to_json(const AuditLog& log);
AuditLog audit_from_json(const json::Value& v);

/// Effective variable domain at a node: the model bounds, overlaid with the
/// root reduced-cost fixings, overlaid with the nearest enclosing branch
/// interval per variable on the root-to-node path. Used by the exact audit
/// replay to re-solve a node's LP. `node_id` must have valid parent links
/// (parent < id all the way to the root).
std::vector<std::pair<double, double>> node_domain(const Model& model, const AuditLog& log,
                                                   int node_id);

/// One worker's slice of the search tree: audit nodes in the order that
/// worker processed them, each carrying a globally unique, globally
/// creation-ordered id (assigned under the queue lock at node creation).
struct AuditShard {
  std::vector<AuditNode> nodes;
};

/// Merge per-worker shards into `log->nodes` (a single shard is moved, not
/// copied), restoring global creation order by sorting on node id — the merge is deterministic for a given set
/// of shards regardless of which worker produced which node. Incumbent
/// updates are re-filtered to be strictly improving in id order: a worker
/// records an update when it improves the SHARED incumbent at that wall-clock
/// moment, but a later-created node may be processed (and improved upon)
/// before an earlier-created one, so the raw union is monotone in time, not
/// in id. Dropping the non-improving flags is sound — the replayer treats a
/// flagless integral/completion node as "candidate not better than the
/// incumbent" — and leaves the final replayed incumbent equal to the best
/// update, which is the claimed objective.
///
/// Returns false (and leaves `log->nodes` empty) if the shard ids are not a
/// contiguous 0..K-1 range or contain duplicates — that indicates a recording
/// bug, not a property of any legal interleaving.
bool merge_audit_shards(std::vector<AuditShard> shards, AuditLog* log);

}  // namespace nd::milp
