// Internals shared between the sequential branch-and-bound
// (branch_and_bound.cpp) and the work-sharing parallel driver
// (parallel_bnb.cpp). Not part of the public milp API.
#pragma once

#include <optional>

#include "lp/simplex.hpp"
#include "milp/audit.hpp"
#include "milp/branch_and_bound.hpp"
#include "milp/model.hpp"

namespace nd::milp::detail {

/// Most fractional integer variable within the highest fractional priority
/// class, or -1 if the engine's current point is integral.
int pick_branch_var(const Model& model, const lp::Simplex& engine, double int_tol);

/// The engine's proof vector for the LP it just solved (lp::Simplex::
/// proof_vector, one BTRAN) as AuditNode::proof stores it: the nonzeros in
/// ascending row order, sized exactly. Absent unless that solve ended
/// optimal or infeasible.
std::optional<ProofVector> record_proof(const lp::Simplex& engine);

/// The parallel tree search (opt.num_threads resolved to `threads` > 1 by the
/// caller). Same contract as milp::solve.
MipResult solve_parallel(const Model& model, const MipOptions& opt, int threads);

}  // namespace nd::milp::detail
