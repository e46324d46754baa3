// One-shot LP entry points (solve_lp / solve_lp_certified) and the
// telemetry export. The Simplex facade itself and its engine live in
// simplex_revised.cpp.
#include "lp/simplex.hpp"

#include "lp/certificate.hpp"
#include "lp/presolve.hpp"
#include "obs/obs.hpp"

namespace nd::lp {

const char* to_string(SolveStatus s) {
  switch (s) {
    case SolveStatus::kOptimal: return "optimal";
    case SolveStatus::kInfeasible: return "infeasible";
    case SolveStatus::kUnbounded: return "unbounded";
    case SolveStatus::kIterLimit: return "iteration-limit";
  }
  return "?";
}

namespace {

/// One engine, one cold solve of `p` as given (no presolve). When `cert` is
/// set it receives the engine's certificate for that solve.
LpResult solve_direct(const Problem& p, const Simplex::Options& opt, Certificate* cert) {
  Simplex engine(p, opt);
  LpResult res;
  res.status = engine.solve();
  res.iterations = engine.iterations();
  if (res.status == SolveStatus::kOptimal) {
    res.obj = engine.objective();
    res.x = engine.solution();
  }
  if (cert != nullptr) *cert = engine.extract_certificate();
  emit_lp_counters(engine);
  return res;
}

/// Certificate-safe presolve (lp/presolve.hpp), a direct solve of the
/// reduced problem, and the lift back to the original space. The
/// certificate is built and lifted only when `certify` is set.
CertifiedLpResult solve_presolved(const Problem& p, const Simplex::Options& opt,
                                  bool certify) {
  CertifiedLpResult out;
  const ReductionLog log = presolve_lp_safe(p);
  if (log.reductions.empty()) {
    out.result = solve_direct(p, opt, certify ? &out.cert : nullptr);
    return out;
  }
  PresolvedLp map = apply_reductions(p, log);
  if (map.infeasible) {
    // A contradiction among pinned columns (e.g. an equality row whose
    // variables are all fixed to an unsatisfiable residual). There is no
    // Farkas ray to lift; callers see kInfeasible with an empty ray.
    out.result.status = SolveStatus::kInfeasible;
    out.cert.status = SolveStatus::kInfeasible;
    return out;
  }
  if (map.reduced.num_vars() == 0) {
    // Every column pinned: the point is fully determined by the log.
    bool feasible = true;
    const Certificate reduced_cert = trivial_certificate(map.reduced, &feasible);
    out.result.status = feasible ? SolveStatus::kOptimal : SolveStatus::kInfeasible;
    if (feasible) {
      out.result.obj = map.obj_shift;
      out.result.x = lift_point(map, {});
    }
    if (certify) out.cert = lift_certificate(map, p, reduced_cert);
    return out;
  }
  out.result = solve_direct(map.reduced, opt, certify ? &out.cert : nullptr);
  if (out.result.status == SolveStatus::kOptimal) {
    out.result.obj += map.obj_shift;
    out.result.x = lift_point(map, out.result.x);
  } else {
    out.result.x.clear();
  }
  if (certify) out.cert = lift_certificate(map, p, out.cert);
  return out;
}

}  // namespace

LpResult solve_lp(const Problem& p, Simplex::Options opt) {
  return solve_presolved(p, opt, /*certify=*/false).result;
}

CertifiedLpResult solve_lp_certified(const Problem& p, Simplex::Options opt) {
  return solve_presolved(p, opt, /*certify=*/true);
}

void emit_lp_counters(const Simplex& engine) {
#if ND_OBS_ENABLED
  if (!obs::collecting()) return;
  const Simplex::Counters& c = engine.counters();
  ND_OBS_COUNT("lp.solves", c.solves);
  ND_OBS_COUNT("lp.dual_resolves", c.dual_resolves);
  ND_OBS_COUNT("lp.iterations", engine.iterations());
  ND_OBS_COUNT("lp.pivots", c.pivots);
  ND_OBS_COUNT("lp.bound_flips", c.bound_flips);
  ND_OBS_COUNT("lp.bland_activations", c.bland_activations);
  ND_OBS_COUNT("lp.refactor.count", c.refactorizations);
  ND_OBS_COUNT("lp.refactor.fill", c.refactor_fill);
  ND_OBS_COUNT("lp.ftran.count", c.ftrans);
  ND_OBS_COUNT("lp.btran.count", c.btrans);
  ND_OBS_COUNT("lp.eta.updates", c.eta_updates);
  ND_OBS_COUNT("lp.phase1_iterations", c.phase1_iters);
  ND_OBS_COUNT("lp.phase2_iterations", c.phase2_iters);
  // Cumulative engine allocation: memory as a first-class metric next to the
  // time counters (docs/observability.md, "Memory").
  ND_OBS_COUNT("mem.lp.engine_bytes", engine.memory_bytes());
  ND_OBS_HIST("lp.iters_per_solve", engine.iterations());
#else
  (void)engine;
#endif
}

}  // namespace nd::lp
