// One-shot LP entry points (solve_lp / solve_lp_certified) and the
// telemetry export. The Simplex facade itself and its engine live in
// simplex_revised.cpp.
#include "lp/simplex.hpp"

#include "lp/certificate.hpp"
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

/// One engine, one cold solve of `p` as given. When `cert` is set it
/// receives the engine's certificate for that solve.
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

}  // namespace

LpResult solve_lp(const Problem& p, Simplex::Options opt) {
  return solve_direct(p, opt, nullptr);
}

CertifiedLpResult solve_lp_certified(const Problem& p, Simplex::Options opt) {
  CertifiedLpResult out;
  out.result = solve_direct(p, opt, &out.cert);
  return out;
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
  ND_OBS_COUNT("lp.time.factorize_ns", c.factorize_ns);
  ND_OBS_COUNT("lp.time.ftran_ns", c.ftran_ns);
  ND_OBS_COUNT("lp.time.btran_ns", c.btran_ns);
  // Cumulative engine allocation: memory as a first-class metric next to the
  // time counters (docs/observability.md, "Memory").
  ND_OBS_COUNT("mem.lp.engine_bytes", engine.memory_bytes());
  ND_OBS_HIST("lp.iters_per_solve", engine.iterations());
#else
  (void)engine;
#endif
}

}  // namespace nd::lp
