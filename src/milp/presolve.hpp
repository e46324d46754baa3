// Root presolve for the branch-and-bound solver.
//
// `presolve_model` runs the proof-carrying model-structure passes
// (lp/presolve.hpp) over a MILP — with integrality information, so bound
// propagation may round — optionally seeded with instance-level reductions
// from analysis/presolve (dominance and symmetry fixings proved against the
// deployment instance). The result bundles the reduced Model (integrality
// marks and branching priorities remapped), the mechanical application map,
// and the full reduction log.
//
// `detail::solve_presolved` is the front half of milp::solve when
// MipOptions::presolve is on: presolve once at the root, search the REDUCED
// model (at the caller's thread count — the inner solve runs the tree
// search), then lift the result and the audit log back to the original
// space. The audit keeps every number in reduced space and carries the
// reduction log plus the objective shift, so analysis/certify_bnb can
// independently re-prove the reductions, rebuild the reduced model with the
// same mechanical code, and replay the tree against it.
#pragma once

#include "lp/presolve.hpp"
#include "milp/branch_and_bound.hpp"
#include "milp/model.hpp"

namespace nd::milp {

/// A model together with the proof-carrying reduction that produced it.
struct PresolvedModel {
  Model reduced;        ///< reduced MILP (integrality + priorities remapped)
  lp::PresolvedLp map;  ///< mechanical application map (index maps, shift)
  lp::ReductionLog log; ///< instance records (if any) + model-structure records
  int rounds = 0;       ///< fixpoint rounds the model passes ran
};

/// Run the model-structure passes (with integrality) on `model`, appending to
/// a copy of `instance` when given (instance records are replayed first and
/// must have been proved against this model). Never throws on an infeasible
/// model — check `map.infeasible`, in which case `reduced` is empty.
PresolvedModel presolve_model(const Model& model,
                              const lp::ReductionLog* instance = nullptr);

/// Rebuild the reduced MILP from an application map: variables and rows from
/// `map.reduced`, integrality marks and branching priorities pulled through
/// `map.orig_of_var`. Deterministic — the solver and the audit replayers
/// (analysis/certify_bnb*) share this code, so both sides reconstruct
/// bit-identical reduced models from (original, reduction log).
Model reduced_model(const Model& original, const lp::PresolvedLp& map);

namespace detail {

/// milp::solve with MipOptions::presolve honoured: presolve at the root,
/// solve the reduced model (the inner milp::solve), lift result + audit.
/// Same contract as milp::solve.
MipResult solve_presolved(const Model& model, const MipOptions& opt);

}  // namespace detail

}  // namespace nd::milp
