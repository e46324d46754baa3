#include "milp/presolve.hpp"

#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "common/stopwatch.hpp"
#include "milp/audit.hpp"
#include "obs/obs.hpp"

namespace nd::milp {

namespace {

/// Flush presolve tallies into obs under "bnb.presolve."; caller gates on
/// MipOptions::telemetry.
void emit_presolve_counters(const lp::PresolveStats& s, int rounds) {
  (void)s;  // every use below compiles out with NOCDEPLOY_OBS=0
  (void)rounds;
  ND_OBS_COUNT("bnb.presolve.rows_removed", s.rows_removed);
  ND_OBS_COUNT("bnb.presolve.cols_removed", s.cols_removed);
  ND_OBS_COUNT("bnb.presolve.cols_pinned", s.cols_pinned);
  ND_OBS_COUNT("bnb.presolve.nonzeros_removed", s.nonzeros_removed);
  ND_OBS_COUNT("bnb.presolve.bound_tightenings", s.bound_tightenings);
  ND_OBS_COUNT("bnb.presolve.coef_tightenings", s.coef_tightenings);
  ND_OBS_COUNT("bnb.presolve.fixings", s.fixings);
  ND_OBS_COUNT("bnb.presolve.rounds", rounds);
}

/// Stamp the presolve header onto an audit log (all other fields stay in
/// reduced space, as documented on AuditLog).
void stamp_audit(AuditLog* aud, const PresolvedModel& pm) {
  if (aud == nullptr) return;
  aud->presolved = true;
  aud->reductions = pm.log;
  aud->presolve_shift = pm.map.obj_shift;
}

}  // namespace

PresolvedModel presolve_model(const Model& model, const lp::ReductionLog* instance) {
  PresolvedModel pm;
  if (instance != nullptr) pm.log = *instance;
  std::vector<char> integer(static_cast<std::size_t>(model.num_vars()), 0);
  for (int j = 0; j < model.num_vars(); ++j) {
    integer[static_cast<std::size_t>(j)] = model.is_integer(j) ? 1 : 0;
  }
  pm.rounds = lp::presolve_model_passes(model.lp(), integer, pm.log);
  pm.map = lp::apply_reductions(model.lp(), pm.log);
  if (pm.map.infeasible) return pm;
  pm.reduced = reduced_model(model, pm.map);
  return pm;
}

Model reduced_model(const Model& original, const lp::PresolvedLp& map) {
  Model out;
  const lp::Problem& red = map.reduced;
  for (int j = 0; j < red.num_vars(); ++j) {
    const int orig = map.orig_of_var[static_cast<std::size_t>(j)];
    out.add_var(red.lo(j), red.hi(j), red.obj(j), original.is_integer(orig),
                red.name(j));
    out.set_priority(j, original.priority(orig));
  }
  for (int r = 0; r < red.num_rows(); ++r) out.add_row(red.row(r));
  return out;
}

MipResult detail::solve_presolved(const Model& model, const MipOptions& opt) {
  Stopwatch clock;
  PresolvedModel pm;
  {
    obs::Span presolve_span("bnb.presolve", opt.telemetry);
    pm = presolve_model(model, opt.instance_reductions);
  }
  if (opt.telemetry) emit_presolve_counters(pm.map.stats, pm.rounds);

  AuditLog* aud = opt.audit;

  // Presolve proved infeasibility: a reduction crossed a variable's box or
  // left an unsatisfiable constant row. The reduction log IS the proof; the
  // audit carries it with an empty tree.
  // Stamped on every return path so callers (sweep, CLI reports) see the
  // tallies regardless of how the solve ends.
  lp::PresolveStats stamped_stats = pm.map.stats;
  stamped_stats.rounds = pm.rounds;

  if (pm.map.infeasible) {
    MipResult res;
    res.status = MipStatus::kInfeasible;
    res.best_bound = std::numeric_limits<double>::infinity();
    res.presolve_stats = stamped_stats;
    res.seconds = clock.seconds();
    if (aud != nullptr) {
      *aud = AuditLog{};
      aud->int_tol = opt.int_tol;
      aud->abs_gap = opt.abs_gap;
      aud->rel_gap = opt.rel_gap;
      aud->status = res.status;
      aud->root_bound = res.best_bound;
      aud->best_bound = res.best_bound;
      stamp_audit(aud, pm);
    }
    return res;
  }

  // Presolve eliminated every variable: the reduced problem is solved by
  // inspection (trivial_certificate also detects an unsatisfiable surviving
  // empty row).
  if (pm.reduced.num_vars() == 0) {
    MipResult res;
    bool feasible = true;
    const lp::Certificate cert = lp::trivial_certificate(pm.map.reduced, &feasible);
    if (feasible) {
      res.status = MipStatus::kOptimal;
      res.obj = pm.map.obj_shift;
      res.best_bound = res.obj;
      res.x = lp::lift_point(pm.map, {});
    } else {
      res.status = MipStatus::kInfeasible;
      res.best_bound = std::numeric_limits<double>::infinity();
    }
    res.presolve_stats = stamped_stats;
    res.seconds = clock.seconds();
    if (aud != nullptr) {
      *aud = AuditLog{};
      aud->int_tol = opt.int_tol;
      aud->abs_gap = opt.abs_gap;
      aud->rel_gap = opt.rel_gap;
      aud->status = res.status;
      aud->root_cert = cert;
      aud->root_bound = feasible ? 0.0 : std::numeric_limits<double>::infinity();
      aud->best_bound = feasible ? 0.0 : std::numeric_limits<double>::infinity();
      stamp_audit(aud, pm);
    }
    return res;
  }

  MipOptions inner = opt;
  inner.presolve = false;
  inner.instance_reductions = nullptr;
  inner.warm_start = nullptr;
  inner.completion = nullptr;

  const std::size_t n_orig = static_cast<std::size_t>(model.num_vars());
  const std::size_t n_red = static_cast<std::size_t>(pm.reduced.num_vars());

  // Project an original-space point onto the reduced variables; fails when an
  // eliminated coordinate disagrees with its presolve-fixed value (empty-column
  // fixings are optimality-preserving, not feasibility-preserving, so a point
  // that contradicts one is simply not representable in the reduced space).
  const auto project = [&](const std::vector<double>& x_orig,
                           std::vector<double>* x_red) -> bool {
    if (x_orig.size() != n_orig) return false;
    for (std::size_t j = 0; j < n_orig; ++j) {
      if (pm.map.red_of_var[j] >= 0) continue;
      if (std::abs(x_orig[j] - pm.map.fixed_value[j]) > opt.int_tol) return false;
    }
    x_red->resize(n_red);
    for (std::size_t j = 0; j < n_red; ++j) {
      (*x_red)[j] = x_orig[static_cast<std::size_t>(pm.map.orig_of_var[j])];
    }
    return true;
  };

  // Warm start: project it into reduced space when its eliminated coordinates
  // agree with the fixings; the inner solve re-validates feasibility against
  // the reduced model as usual. Otherwise drop it (sound — a warm start is
  // only a hint).
  std::vector<double> warm_red;
  if (opt.warm_start != nullptr && project(*opt.warm_start, &warm_red)) {
    inner.warm_start = &warm_red;
  }

  // Completion heuristic: the user callback expects original-space points
  // (it knows the formulation's variable layout), so lift the node LP point,
  // run it, and project the completed point back.
  if (opt.completion) {
    inner.completion = [&](const std::vector<double>& lp_red,
                           std::vector<double>* out_red) -> bool {
      const std::vector<double> lp_orig = lp::lift_point(pm.map, lp_red);
      std::vector<double> out_orig;
      if (!opt.completion(lp_orig, &out_orig)) return false;
      return project(out_orig, out_red);
    };
  }

  MipResult res = milp::solve(pm.reduced, inner);
  stamp_audit(aud, pm);

  if (res.has_solution()) {
    res.obj += pm.map.obj_shift;
    res.x = lp::lift_point(pm.map, res.x);
  } else {
    res.x.clear();
  }
  if (std::isfinite(res.best_bound)) res.best_bound += pm.map.obj_shift;
  res.presolve_stats = stamped_stats;
  res.seconds = clock.seconds();
  return res;
}

}  // namespace nd::milp
