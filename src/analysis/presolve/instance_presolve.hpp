// Instance-level presolve passes over the deployment MILP (§II-B model).
//
// Unlike the model-structure passes in src/lp/presolve.cpp — which only see
// coefficients — these passes read the deployment INSTANCE through the
// Formulation's table accessors and emit proof-carrying fixings:
//
//   * V/F level dominance (tag kDominance): fix y(i,l2) = 0 when another
//     level l1 of the same task is weakly better on execution time, energy
//     and reliability, AND the swap l2 → l1 provably preserves feasibility
//     of the reliability rows (4a)/(4b) and every conflict cut (5). The
//     proof is an explicit solution-improvement map, not a heuristic.
//   * Mesh-automorphism orbit fixing (tag kOrbit): when the platform tensors
//     t_βγρ / e_βγkρ are EXACTLY invariant under a dihedral relabeling of
//     the mesh (optionally swapping the two candidate paths), task 0's host
//     can be restricted to one representative per processor orbit.
//   * Task-twin symmetry breaking (tag kTwin): two original tasks with
//     identical tables and identical duplicated-graph edge profiles are
//     interchangeable; their ordering binary z(i,j) is fixed to the
//     index order.
//
// Every candidate is validated by the SAME predicate the independent
// certifier (certify_presolve) replays per record — the engine never emits a
// record the checker would reject, and the checker never accepts a record
// the engine could not have derived. Validation runs against the sequential
// replay state, so each record is proved in the context of its predecessors.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lp/presolve.hpp"
#include "model/formulation.hpp"

namespace nd::analysis {

/// A verified relabeling of the mesh processors (plus optional swap of the
/// two candidate paths) that leaves the platform tensors bit-identical.
struct MeshAutomorphism {
  std::vector<int> perm;   ///< processor permutation, perm[k] = image of k
  bool path_swap = false;  ///< ρ := 1 − ρ (path-selection binaries flip)
};

/// Exactly-verified tensor automorphisms of the platform, closed under
/// composition. Always contains the identity (perm[k] = k, no swap).
std::vector<MeshAutomorphism> mesh_automorphisms(const model::Formulation& f);

/// Isomorphism-invariant instance hash: colour-refined task-graph signature
/// (invariant under task relabeling, in particular under twin exchange)
/// combined with the platform/V-F/fault tables and the formulation options.
/// Canonical across twin relabelings; processor labels are hashed as-is.
std::uint64_t canonical_instance_hash(const model::Formulation& f);

/// Re-prove one instance-tagged kFixVar record (kDominance / kOrbit / kTwin)
/// against the replay state `st` (the problem after all preceding records).
/// Returns "" when the record is valid, else the reason it is not. Shared by
/// the emission engine below and by certify_presolve — one predicate, zero
/// drift between producer and checker.
std::string check_instance_record(const model::Formulation& f, const lp::ReductionReplay& st,
                                  const lp::Reduction& rc);

struct InstancePresolveOptions {
  /// Optional warm-start point in model space: symmetry fixings that would
  /// cut it off are skipped. Skipping a fixing is always sound; keeping the
  /// warm point reachable preserves its incumbent value for the solver.
  const std::vector<double>* warm = nullptr;
};

struct InstancePresolveResult {
  lp::ReductionLog log;       ///< ordered records + canonical hash
  int dominance_fixings = 0;
  int twin_fixings = 0;
  int orbit_fixings = 0;
  int automorphisms = 0;      ///< verified non-identity mesh automorphisms
};

/// Run the instance passes and return the proof-carrying fixing log. The log
/// is meant to seed milp::MipOptions::instance_reductions; the model passes
/// replay it first and continue from the fixed state.
InstancePresolveResult instance_reductions(const model::Formulation& f,
                                           const InstancePresolveOptions& opt = {});

}  // namespace nd::analysis
