// The benchmark workloads. Each one builds its corpus from the workload
// seed, sets it up several times (set-up time is reported as a median),
// makes one pass over the whole corpus, then cycles over its timed core
// until the run's time budget is spent, timing every layer call from outside
// through the library's public functions and checking every answer.
//
// Untraced runs (trace = 0) keep every obs session closed and report the
// end-to-end metrics. Traced runs (trace = 1) first repeat the workload's
// solve step untraced on a prefix of the corpus, then open a tracing obs
// session, wrap each layer call in a span, add the LP and heuristic-phase
// probes, and report the per-layer metrics.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "analysis/certify_bnb.hpp"
#include "analysis/exact/certify_bnb_exact.hpp"
#include "analysis/exact/verify_deployment.hpp"
#include "analysis/presolve/instance_presolve.hpp"
#include "bench.hpp"
#include "bench_common.hpp"
#include "deploy/evaluate.hpp"
#include "deploy/validate.hpp"
#include "heuristic/annealing.hpp"
#include "heuristic/phases.hpp"
#include "lp/simplex.hpp"
#include "milp/audit.hpp"
#include "milp/branch_and_bound.hpp"
#include "milp/presolve.hpp"
#include "model/formulation.hpp"
#include "obs/obs.hpp"
#include "sim/event_sim.hpp"
#include "sim/fault_injection.hpp"

namespace perfbench {
namespace {

/// Median of a sample (the mean of the two middle values when even); 0 when
/// empty.
double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

using namespace nd;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Times one call in seconds.
template <class F>
double timed(F&& f) {
  const auto t0 = Clock::now();
  f();
  return seconds_since(t0);
}

// -- Reference speed ----------------------------------------------------------
// On a 4-core KVM guest (Xeon, host shared with other guests) a fixed loop
// took anywhere between 0.15 and 0.30 s, in phases lasting seconds to
// minutes. Wall times of identical work drifted the same way, by up to 1.6x
// between two runs twenty minutes apart. So every end-to-end timing is rescaled to
// reference seconds: its wall time times kReferenceNominalS over the time of
// the reference loop, sampled just before and just after it. The loop is a
// chain of dependent floating-point multiply-adds, which the compiler can
// neither vectorise nor shorten. (Taking the fastest of several shorter
// samples instead tracked the drift worse: it misses the time the guest
// loses to the host.) Per-layer timings stay in wall time.

constexpr int kReferenceIters = 250'000;
/// The loop's fastest time on that guest, so a reference second is about a
/// wall second there when the host is quiet.
constexpr double kReferenceNominalS = 0.6e-3;

volatile double g_reference_sink = 1.0;

double reference_loop_s() {
  const auto t0 = Clock::now();
  double x = g_reference_sink;
  for (int k = 0; k < kReferenceIters; ++k) x = x * 0.999999 + 1e-6;
  g_reference_sink = x;
  return seconds_since(t0);
}

/// Rescales a wall time measured after construction to reference seconds.
class SpeedProbe {
 public:
  SpeedProbe() : before_s_(reference_loop_s()) {}
  [[nodiscard]] double rescale(double wall_s) const {
    return wall_s * kReferenceNominalS / (0.5 * (before_s_ + reference_loop_s()));
  }

 private:
  double before_s_;
};

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Instance seeds lo..hi.
std::vector<std::uint64_t> seed_range(std::uint64_t lo, std::uint64_t hi) {
  std::vector<std::uint64_t> out;
  for (std::uint64_t s = lo; s <= hi; ++s) out.push_back(s);
  return out;
}

/// Instance seeds of one run: the fixed `core` shared by every workload seed,
/// followed by `extra` instances the workload seed draws from `pool`. Runs
/// with different seeds therefore see different inputs yet time the same
/// work, which keeps their timings comparable. The pools hold instances on
/// which every check passes at the commit that added the benchmark, so a
/// failure is a regression.
std::vector<std::uint64_t> corpus_seeds(std::uint64_t workload_seed,
                                        std::vector<std::uint64_t> core, int extra,
                                        std::vector<std::uint64_t> pool) {
  std::vector<std::uint64_t> seeds = std::move(core);
  std::uint64_t x = workload_seed;
  for (int i = 0; i < extra && !pool.empty(); ++i) {
    x = splitmix(x);
    const std::size_t k = x % pool.size();
    seeds.push_back(pool[k]);
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(k));
  }
  return seeds;
}

std::string instance_key(std::uint64_t seed) { return "seed=" + std::to_string(seed); }

long long count_of(const std::map<std::string, long long>& m, const std::string& name) {
  const auto it = m.find(name);
  return it == m.end() ? 0 : it->second;
}

/// Counter deltas over one region, read through the public obs API.
class CounterDelta {
 public:
  CounterDelta() : before_(obs::counter_totals()) {}
  [[nodiscard]] std::map<std::string, long long> get() const {
    std::map<std::string, long long> out;
    for (const auto& [name, total] : obs::counter_totals()) {
      const long long d = total - count_of(before_, name);
      if (d != 0) out[name] = d;
    }
    return out;
  }

 private:
  std::map<std::string, long long> before_;
};

void add_counts(std::map<std::string, long long>& into, const std::map<std::string, long long>& d) {
  for (const auto& [name, v] : d) into[name] += v;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Every per-layer metric the benchmark defines, in BENCHMARK.json order,
/// with its unit. A traced run reports each one; a layer the workload never
/// calls reads 0 there.
const std::vector<std::pair<std::string, std::string>>& layer_metric_units() {
  static const std::vector<std::pair<std::string, std::string>> kUnits = {
      {"deploy.instance_ms", "ms"},        {"deploy.validate_us", "us"},
      {"model.build_ms", "ms"},            {"model.rows", "count"},
      {"model.cols", "count"},             {"model.complete_ms", "ms"},
      {"model.complete.calls", "count"},   {"model.complete.closed_ratio", "ratio"},
      {"heuristic.phase1_us", "us"},       {"heuristic.phase2_us", "us"},
      {"heuristic.phase3_us", "us"},       {"heuristic.solve_us", "us"},
      {"heuristic.feasible_ratio", "ratio"}, {"heuristic.gap", "ratio"},
      {"anneal.solve_ms", "ms"},           {"anneal.iters_per_s", "1/s"},
      {"anneal.accept_ratio", "ratio"},    {"anneal.gain", "ratio"},
      {"presolve.instance_ms", "ms"},      {"presolve.fixings", "count"},
      {"presolve.model_ms", "ms"},         {"presolve.rows_removed", "count"},
      {"presolve.cols_removed", "count"},  {"lp.root_s", "s"},
      {"lp.root_pivots", "count"},         {"lp.dual_resolve_ms", "ms"},
      {"lp.pivots", "count"},              {"lp.dual_resolves", "count"},
      {"lp.refactor.count", "count"},      {"lp.refactor.fill", "count"},
      {"lp.ftran.count", "count"},         {"lp.btran.count", "count"},
      {"lp.eta.updates", "count"},         {"lp.bland_activations", "count"},
      {"lp.iters_per_solve.p50", "count"}, {"lp.iters_per_solve.p99", "count"},
      {"lp.us_per_pivot", "us"},           {"lp.pivots_per_refactor", "count"},
      {"milp.nodes", "count"},             {"milp.nodes_per_s", "1/s"},
      {"milp.proved_ratio", "ratio"},      {"milp.incumbent_ratio", "ratio"},
      {"bnb.node_ms.p50", "ms"},           {"bnb.node_ms.p99", "ms"},
      {"bnb.node_ms.max", "ms"},           {"bnb.warm_ratio", "ratio"},
      {"bnb.branched", "count"},           {"bnb.pruned_bound", "count"},
      {"bnb.pruned_infeasible", "count"},  {"bnb.completion_closed", "count"},
      {"bnb.par.utilization", "ratio"},
      {"bnb.par.cold_solves", "count"},    {"bnb.par.warm_resolves", "count"},
      {"bnb.par.donations", "count"},      {"certify.replay_ms", "ms"},
      {"certify.exact_s", "s"},            {"exact.bnb_bounds_reproved", "count"},
      {"certify.verify_ms", "ms"},         {"sim.simulate_us", "us"},
      {"sim.events", "count"},             {"sim.fault.trials_per_s", "1/s"},
      {"obs.overhead", "ratio"},
  };
  return kUnits;
}

/// Per-layer values of one traced run, emitted in the canonical order.
class LayerMetrics {
 public:
  void set(const std::string& name, double v) { values_[name] = v; }
  void emit(Result& out) const {
    for (const auto& [name, unit] : layer_metric_units()) {
      const auto it = values_.find(name);
      out.add(name, it == values_.end() ? 0.0 : it->second, unit);
    }
  }

 private:
  std::map<std::string, double> values_;
};

/// Runs `step(i, pass)` over the whole corpus once, then over its timed
/// core (instances [0, core)) cyclically until `seconds` have passed since
/// the start. Seed-drawn extras thus feed the checks once and leave every
/// later pass to the work that is timed. Every pass solves and checks; a
/// repeated solve must reproduce the first one.
template <class Step>
void cycle_corpus(int n, int core, double seconds, Step&& step) {
  const auto t0 = Clock::now();
  for (int i = 0; i < n; ++i) step(i, 0);
  for (int pass = 1; seconds_since(t0) < seconds; ++pass) {
    for (int i = 0; i < core && seconds_since(t0) < seconds; ++i) step(i, pass);
  }
}

/// Timing samples of the corpus' fixed core (instances [0, core)), one per
/// pass. Seed-drawn extra instances are solved and checked like the core but
/// not timed, so the timings of runs with different seeds measure the same
/// work. End-to-end metrics fold each instance's samples into its fastest
/// (in reference seconds, the fastest pass drifted least between runs: a
/// quartile spread of 0.03 over six paper_heuristic runs, against 0.18 for
/// the median pass); per-layer metrics into the median.
class PerInstance {
 public:
  explicit PerInstance(int core) : samples_(static_cast<std::size_t>(core)) {}
  void add(std::size_t i, double v) {
    if (i < samples_.size()) samples_[i].push_back(v);
  }
  [[nodiscard]] double median_of_medians() const {
    return median(per_instance([](const std::vector<double>& s) { return median(s); }));
  }
  [[nodiscard]] std::vector<double> fastest() const {
    return per_instance([](const std::vector<double>& s) { return *std::min_element(s.begin(), s.end()); });
  }
  /// Sum of the first sample of core instances [0, n).
  [[nodiscard]] double first_sum(int n) const {
    double total = 0.0;
    for (std::size_t i = 0; i < std::min(samples_.size(), static_cast<std::size_t>(n)); ++i) {
      if (!samples_[i].empty()) total += samples_[i].front();
    }
    return total;
  }

 private:
  template <class Fold>
  [[nodiscard]] std::vector<double> per_instance(Fold fold) const {
    std::vector<double> out;
    for (const auto& s : samples_) {
      if (!s.empty()) out.push_back(fold(s));
    }
    return out;
  }

  std::vector<std::vector<double>> samples_;
};

/// Peak RSS once the core's first pass is done, before any seed-drawn extra
/// can raise it: later passes repeat the core's work, so it is the peak of
/// the timed work.
class CorePeakRss {
 public:
  void at_step(int i, int pass, int core) {
    if (pass == 0 && i == core) bytes_ = obs::peak_rss_bytes();
  }
  [[nodiscard]] double megabytes() const {
    const std::int64_t b = bytes_ > 0 ? bytes_ : obs::peak_rss_bytes();
    return static_cast<double>(b) / (1024.0 * 1024.0);
  }

 private:
  std::int64_t bytes_ = 0;
};

void emit_end_to_end(Result& out, double setup_s, const PerInstance& solve,
                     const PerInstance& check, const CorePeakRss& rss) {
  out.add("setup_s", setup_s, "s");
  const std::vector<double> solve_fastest = solve.fastest(), check_fastest = check.fastest();
  out.add("solve_s", std::accumulate(solve_fastest.begin(), solve_fastest.end(), 0.0), "s");
  out.add("check_s", std::accumulate(check_fastest.begin(), check_fastest.end(), 0.0), "s");
  out.add("peak_rss_mb", rss.megabytes(), "MB");
}

// ============================================================================
// MILP workloads: prove_small, stress_budget
// ============================================================================

struct MilpSpec {
  bench::Scale scale;
  std::vector<std::uint64_t> core;  ///< timed instance seeds, the same for every workload seed
  int extra = 0;             ///< seed-drawn instances
  std::vector<std::uint64_t> pool;  ///< ... drawn from these instance seeds
  std::int64_t node_limit = 50'000'000;
  double cap_s = 10.0;       ///< per-instance time cap
  /// Expect proved optima and re-prove each with certify_bnb_exact; else
  /// the solve runs to the node budget and certify_bnb replays its tree.
  bool prove = true;
  /// After the cycle, solve every instance again with the parallel B&B
  /// driver (untimed, kParallelThreads workers) and require the same proved
  /// optimum; in a traced run its counters give the bnb.par.* metrics.
  bool parallel_check = false;
  /// certify_bnb replays per check, timed as their median: a replay of a
  /// short tree takes milliseconds, too little to time once.
  int replay_reps = 1;
  int overhead_prefix = 0;   ///< instances re-solved untraced in a traced run
  int probe_limit = 0;       ///< instances given LP probes in a traced run
};

struct MilpInstance {
  std::uint64_t seed = 0;
  std::unique_ptr<deploy::DeploymentProblem> problem;
  std::unique_ptr<model::Formulation> form;
};

/// The completion callback the benchmark hands to B&B, with its own
/// call/close tallies and time.
struct CompletionTally {
  long long calls = 0;
  long long closed = 0;
  double seconds = 0.0;
};

struct SolveOutcome {
  milp::MipResult mip;
  milp::AuditLog audit;
  heuristic::HeuristicResult warm;
  analysis::InstancePresolveResult ipre;
  CompletionTally completion;
  double presolve_s = 0.0;  ///< analysis::instance_reductions alone
  double seconds = 0.0;     ///< warm start + instance presolve + milp::solve
};

/// The heuristic warm start and the instance presolve seeded with it.
void warm_and_presolve(const MilpInstance& in, bool traced, SolveOutcome& out,
                       std::vector<double>& warm_point) {
  const model::Formulation& f = *in.form;
  {
    const obs::Span span("perfbench.heuristic.solve", traced);
    out.warm = heuristic::solve_heuristic(*in.problem);
  }
  if (out.warm.feasible) warm_point = f.encode(out.warm.solution);
  const obs::Span span("perfbench.presolve.instance", traced);
  analysis::InstancePresolveOptions iopt;
  if (out.warm.feasible) iopt.warm = &warm_point;
  out.presolve_s = timed([&] { out.ipre = analysis::instance_reductions(f, iopt); });
}

/// Warm start + instance presolve + milp::solve with an audit. `telemetry`
/// false keeps the solve out of an open obs session's counters.
SolveOutcome solve_milp(const MilpInstance& in, const MilpSpec& spec, bool traced,
                        bool telemetry = true, int threads = 1) {
  SolveOutcome out;
  const model::Formulation& f = *in.form;
  std::vector<double> warm_point;
  milp::MipOptions mopt;
  mopt.telemetry = telemetry;
  mopt.time_limit_s = spec.cap_s;
  mopt.node_limit = spec.node_limit;
  mopt.num_threads = threads;
  mopt.audit = &out.audit;
  mopt.completion = [&f, &tally = out.completion](const std::vector<double>& lp_point,
                                                  std::vector<double>* point) {
    const auto t0 = Clock::now();
    const bool ok = f.complete(lp_point, point);
    tally.seconds += seconds_since(t0);
    ++tally.calls;
    if (ok) ++tally.closed;
    return ok;
  };
  const auto t0 = Clock::now();
  warm_and_presolve(in, traced, out, warm_point);
  if (out.warm.feasible) mopt.warm_start = &warm_point;
  mopt.instance_reductions = &out.ipre.log;
  {
    const obs::Span span("perfbench.milp.solve", traced);
    out.mip = milp::solve(f.model(), mopt);
  }
  out.seconds = seconds_since(t0);
  return out;
}

/// The sweep's equality rule for two objectives of one instance.
bool same_objective(double a, double b) { return std::abs(a - b) <= 1e-6 * (1.0 + std::abs(b)); }

bool proved(milp::MipStatus s) {
  return s == milp::MipStatus::kOptimal || s == milp::MipStatus::kInfeasible;
}

struct CheckTimes {
  double replay_s = 0.0;
  double exact_s = 0.0;
  double verify_s = 0.0;
  double validate_s = 0.0;
  int bounds_reproved = 0;
  [[nodiscard]] double total() const { return replay_s + exact_s + verify_s + validate_s; }
};

/// Re-proves one solve: the audit replay, its exact re-proof, and — when the
/// solve ended with a deployment — exact verification and validation.
CheckTimes check_milp(const MilpInstance& in, const MilpSpec& spec, const SolveOutcome& s,
                      bool traced, Checks& checks) {
  CheckTimes t;
  const std::string who = "instance " + instance_key(in.seed);
  const model::Formulation& f = *in.form;
  if (spec.prove) {
    checks.expect(s.mip.status == milp::MipStatus::kOptimal,
                  who + ": expected a proved optimum, got " + milp::to_string(s.mip.status));
  } else {
    checks.expect(s.mip.status != milp::MipStatus::kInfeasible,
                  who + ": budgeted solve claims infeasibility");
  }
  {
    const obs::Span span("perfbench.certify.replay", traced);
    analysis::CertifyBnbOptions co;
    co.formulation = &f;
    analysis::Report rep;
    std::vector<double> reps;
    for (int r = 0; r < spec.replay_reps; ++r) {
      reps.push_back(timed([&] { rep = analysis::certify_bnb(f.model(), s.audit, co); }));
    }
    t.replay_s = median(reps);
    checks.expect(rep.num_errors() == 0, who + ": certify_bnb rejects the audit\n" + rep.to_table());
  }
  if (spec.prove && proved(s.mip.status)) {
    const obs::Span span("perfbench.certify.exact", traced);
    analysis::CertifyBnbExactOptions bo;
    bo.formulation = &f;
    analysis::ExactBnbOutcome ex;
    t.exact_s = timed([&] { ex = analysis::certify_bnb_exact(f.model(), s.audit, bo); });
    t.bounds_reproved = ex.bounds_reproved;
    checks.expect(ex.accepted(), who + ": certify_bnb_exact rejects the audit\n" + ex.report.to_table());
  }
  if (s.mip.has_solution()) {
    const deploy::DeploymentSolution sol = f.decode(s.mip.x);
    const double be = deploy::evaluate_energy(*in.problem, sol).max_proc();
    checks.expect(same_objective(s.mip.obj, be),
                  who + ": decoded energy does not match the MILP objective");
    {
      const obs::Span span("perfbench.certify.verify", traced);
      analysis::VerifyDeploymentOptions vo;
      vo.claimed_be = be;
      analysis::VerifyDeploymentOutcome v;
      t.verify_s = timed([&] { v = analysis::verify_deployment(*in.problem, sol, vo); });
      checks.expect(v.accepted(), who + ": verify_deployment rejects the deployment\n" +
                                      v.report.to_table());
    }
    {
      const obs::Span span("perfbench.deploy.validate", traced);
      deploy::ValidationResult vr;
      t.validate_s = timed([&] { vr = deploy::validate(*in.problem, sol); });
      checks.expect(vr.ok(), who + ": deploy::validate rejects the deployment: " + vr.summary());
    }
  }
  return t;
}

constexpr int kMilpSetupReps = 100;

/// The workload's corpus, set up kMilpSetupReps times; returns the median set-up
/// time and keeps the last set-up's instances.
std::vector<MilpInstance> setup_milp(const MilpSpec& spec, const std::vector<std::uint64_t>& seeds,
                                     double* setup_s, std::vector<double>* instance_s,
                                     std::vector<double>* build_s) {
  std::vector<double> reps;
  std::vector<MilpInstance> corpus;
  for (int r = 0; r < kMilpSetupReps; ++r) {
    corpus.clear();
    const SpeedProbe probe;
    const auto t0 = Clock::now();
    for (const std::uint64_t seed : seeds) {
      MilpInstance in;
      in.seed = seed;
      bench::Scale sc = spec.scale;
      sc.seed = seed;
      instance_s->push_back(timed([&] { in.problem = bench::make_instance(sc); }));
      build_s->push_back(timed([&] { in.form = std::make_unique<model::Formulation>(*in.problem); }));
      corpus.push_back(std::move(in));
    }
    reps.push_back(probe.rescale(seconds_since(t0)));
  }
  *setup_s = median(reps);
  return corpus;
}

/// Cold root solve and a fixed list of warm branchings on one instance's
/// presolved model, through lp::Simplex with default options.
constexpr int kProbeDeadlineS = 10;
constexpr int kParallelThreads = 2;

struct LpProbe {
  double presolve_s = 0.0;
  int rows_removed = 0;
  int cols_removed = 0;
  double root_s = 0.0;
  long long root_pivots = 0;
  std::vector<double> resolve_s;
};

LpProbe probe_lp(const MilpInstance& in, const analysis::InstancePresolveResult& ipre,
                 Checks& checks) {
  LpProbe out;
  const milp::Model& model = in.form->model();
  std::optional<milp::PresolvedModel> pm;
  {
    const obs::Span span("perfbench.presolve.model", true);
    out.presolve_s = timed([&] { pm.emplace(milp::presolve_model(model, &ipre.log)); });
  }
  out.rows_removed = model.num_rows() - pm->reduced.num_rows();
  out.cols_removed = model.num_vars() - pm->reduced.num_vars();
  const lp::Problem& lp = pm->reduced.lp();
  lp::Simplex engine(lp);
  // Default options, plus a deadline so a pathological re-solve cannot stall
  // the run; a probe that hits it reports the work done until then.
  engine.set_deadline(Clock::now() + std::chrono::seconds(kProbeDeadlineS));
  lp::SolveStatus st = lp::SolveStatus::kIterLimit;
  {
    const obs::Span span("perfbench.lp.root", true);
    out.root_s = timed([&] { st = engine.solve(); });
  }
  out.root_pivots = engine.counters().pivots;
  // The MILP solve already reached this root, so it must not be infeasible.
  checks.expect(st != lp::SolveStatus::kInfeasible && st != lp::SolveStatus::kUnbounded,
                "instance " + instance_key(in.seed) + ": root LP " + lp::to_string(st));
  if (st != lp::SolveStatus::kOptimal) return out;
  // Up to eight fractional integer columns, each branched down then up and
  // restored, every step a dual re-solve off the current basis.
  constexpr int kBranchings = 8;
  const std::vector<double> x = engine.solution();
  int taken = 0;
  for (int j = 0; j < pm->reduced.num_vars() && taken < kBranchings; ++j) {
    if (!pm->reduced.is_integer(j)) continue;
    const double v = x[static_cast<std::size_t>(j)];
    if (std::abs(v - std::round(v)) < 1e-6) continue;
    ++taken;
    const double lo = engine.bound_lo(j), hi = engine.bound_hi(j);
    const obs::Span span("perfbench.lp.dual_resolve", true);
    for (const auto& [blo, bhi] : {std::pair{lo, std::floor(v)}, std::pair{std::ceil(v), hi},
                                  std::pair{lo, hi}}) {
      out.resolve_s.push_back(timed([&] {
        engine.set_bound(j, blo, bhi);
        (void)engine.dual_resolve();
      }));
    }
  }
  return out;
}

double hist_ms(const std::map<std::string, obs::HistStat>& h, const std::string& name, double p) {
  const auto it = h.find(name);
  if (it == h.end()) return 0.0;
  return (p > 100.0 ? it->second.max : it->second.percentile(p)) / 1e6;
}

double hist_pct(const std::map<std::string, obs::HistStat>& h, const std::string& name, double p) {
  const auto it = h.find(name);
  return it == h.end() ? 0.0 : it->second.percentile(p);
}

void run_milp(const MilpSpec& spec, const RunConfig& cfg, Result& out) {
  const std::vector<std::uint64_t> seeds = corpus_seeds(cfg.seed, spec.core, spec.extra, spec.pool);
  const int n = static_cast<int>(seeds.size());
  const int core = static_cast<int>(spec.core.size());
  double setup_s = 0.0;
  std::vector<double> instance_s, build_s;
  std::vector<MilpInstance> corpus = setup_milp(spec, seeds, &setup_s, &instance_s, &build_s);

  // Traced runs: untraced reference solves first, for obs.overhead.
  double untraced_ref_s = 0.0;
  const int ref_n = cfg.trace ? std::min(core, spec.overhead_prefix) : 0;
  for (int i = 0; i < ref_n; ++i) {
    const SpeedProbe probe;
    untraced_ref_s +=
        probe.rescale(solve_milp(corpus[static_cast<std::size_t>(i)], spec, false, false).seconds);
  }

  const bool own_session = cfg.trace && obs::start(/*with_trace=*/true);
  if (cfg.trace && !own_session) {
    out.checks.expect(false, "obs session could not be opened (telemetry compiled out?)");
  }
  PerInstance solve_s(core), check_s(core), replay_s(core), exact_s(core), verify_s(core),
      validate_s(core), complete_s(core), presolve_s(core);
  std::vector<double> first_obj(seeds.size(), 0.0);
  std::vector<milp::MipStatus> first_status(seeds.size(), milp::MipStatus::kUnknown);
  std::vector<std::int64_t> first_nodes(seeds.size(), 0);
  std::map<std::string, long long> first_pass;  // counter deltas over the first pass
  long long nodes = 0, proved_n = 0, incumbent_n = 0, fixings = 0, bounds_reproved = 0;
  long long complete_calls = 0, complete_closed = 0;
  double solve_first_pass_s = 0.0, gap_sum = 0.0;
  int gap_n = 0, heur_feasible = 0;

  CorePeakRss rss;
  cycle_corpus(n, core, cfg.seconds, [&](int i, int pass) {
    rss.at_step(i, pass, core);
    const MilpInstance& in = corpus[static_cast<std::size_t>(i)];
    const std::size_t ui = static_cast<std::size_t>(i);
    const std::string who = "instance " + instance_key(in.seed);
    try {
      std::optional<CounterDelta> delta;
      if (own_session && pass == 0) delta.emplace();
      const SpeedProbe probe;
      const SolveOutcome s = solve_milp(in, spec, cfg.trace);
      solve_s.add(ui, probe.rescale(s.seconds));
      const std::map<std::string, long long> solve_counts =
          delta ? delta->get() : std::map<std::string, long long>{};
      complete_s.add(ui, s.completion.seconds);
      presolve_s.add(ui, s.presolve_s);
      if (pass > 0) {
        out.checks.expect(s.mip.status == first_status[ui] && s.mip.nodes == first_nodes[ui] &&
                              same_objective(s.mip.obj, first_obj[ui]),
                          who + ": repeated solve differs from the certified one");
      } else {
        first_obj[ui] = s.mip.obj;
        first_status[ui] = s.mip.status;
        first_nodes[ui] = s.mip.nodes;
      }
      const SpeedProbe check_probe;
      const CheckTimes t = check_milp(in, spec, s, cfg.trace, out.checks);
      check_s.add(ui, check_probe.rescale(t.total()));
      replay_s.add(ui, t.replay_s);
      if (t.exact_s > 0.0) exact_s.add(ui, t.exact_s);
      if (t.verify_s > 0.0) verify_s.add(ui, t.verify_s);
      if (t.validate_s > 0.0) validate_s.add(ui, t.validate_s);
      if (pass != 0) return;
      std::fprintf(stderr, "perfbench: %s %s in %.3f s (%lld nodes), checked in %.3f s\n",
                   who.c_str(), milp::to_string(s.mip.status), s.seconds,
                   static_cast<long long>(s.mip.nodes), t.total());
      auto& counts = out.counts[instance_key(in.seed)];
      counts["presolve.fixings"] = s.ipre.dominance_fixings + s.ipre.twin_fixings +
                                   s.ipre.orbit_fixings;
      counts["milp.nodes"] = s.mip.nodes;
      if (proved(s.mip.status)) ++proved_n;
      if (s.mip.has_solution()) ++incumbent_n;
      if (s.warm.feasible) ++heur_feasible;
      if (s.warm.feasible && s.mip.status == milp::MipStatus::kOptimal && s.mip.obj > 0.0) {
        gap_sum += deploy::evaluate_energy(*in.problem, s.warm.solution).max_proc() / s.mip.obj - 1.0;
        ++gap_n;
      }
      if (delta) counts["lp.pivots"] = count_of(solve_counts, "lp.pivots");
      if (i >= core) return;  // per-layer aggregates cover the timed core only
      nodes += s.mip.nodes;
      solve_first_pass_s += s.seconds;
      fixings += counts["presolve.fixings"];
      bounds_reproved += t.bounds_reproved;
      complete_calls += s.completion.calls;
      complete_closed += s.completion.closed;
      add_counts(first_pass, solve_counts);
    } catch (const std::exception& e) {
      out.checks.expect(false, who + ": exception: " + e.what());
    }
  });

  // Histograms are read before the parallel pass and the probes, so they
  // cover the serial solves and checks of the cycle only.
  const std::map<std::string, obs::HistStat> hists = obs::hist_totals();
  // The parallel pass runs after the cycle, untimed, so a stall of the
  // parallel driver cannot cut the cycle short. Each instance must prove
  // the serial optimum (the sweep's equality rule).
  std::map<std::string, long long> par_counts;
  if (spec.parallel_check) {
    const CounterDelta par_delta;
    for (std::size_t ui = 0; ui < corpus.size(); ++ui) {
      const MilpInstance& in = corpus[ui];
      const std::string who = "instance " + instance_key(in.seed);
      try {
        const obs::Span span("perfbench.milp.solve_parallel", cfg.trace);
        const SolveOutcome par = solve_milp(in, spec, false, cfg.trace, kParallelThreads);
        out.checks.expect(par.mip.status == first_status[ui] &&
                              same_objective(par.mip.obj, first_obj[ui]),
                          who + ": parallel and serial optima disagree");
      } catch (const std::exception& e) {
        out.checks.expect(false, who + ": parallel exception: " + e.what());
      }
    }
    par_counts = par_delta.get();
  }

  if (!cfg.trace) {
    emit_end_to_end(out, setup_s, solve_s, check_s, rss);
    return;
  }

  // --- traced run: probes, then the per-layer metrics ---------------------
  std::vector<double> root_s, resolve_s, model_presolve_s, phase_us[3];
  long long root_pivots = 0, rows_removed = 0, cols_removed = 0;
  const int probes = std::min(core, spec.probe_limit);
  for (int i = 0; i < probes; ++i) {
    const MilpInstance& in = corpus[static_cast<std::size_t>(i)];
    try {
      SolveOutcome s;
      std::vector<double> warm_point;
      warm_and_presolve(in, false, s, warm_point);
      const LpProbe p = probe_lp(in, s.ipre, out.checks);
      model_presolve_s.push_back(p.presolve_s);
      rows_removed += p.rows_removed;
      cols_removed += p.cols_removed;
      root_s.push_back(p.root_s);
      root_pivots += p.root_pivots;
      resolve_s.insert(resolve_s.end(), p.resolve_s.begin(), p.resolve_s.end());
    } catch (const std::exception& e) {
      out.checks.expect(false, "instance " + instance_key(in.seed) + ": LP probe exception: " + e.what());
    }
  }
  std::vector<double> heur_us;
  for (const MilpInstance& in : corpus) {
    deploy::DeploymentSolution sol = deploy::DeploymentSolution::empty(*in.problem);
    const obs::Span span("perfbench.heuristic.phases", true);
    bool ok = true;
    phase_us[0].push_back(1e6 * timed([&] { ok = heuristic::phase1_frequency_and_duplication(*in.problem, sol); }));
    if (ok) phase_us[1].push_back(1e6 * timed([&] { ok = heuristic::phase2_allocation_and_scheduling(*in.problem, sol); }));
    if (ok) phase_us[2].push_back(1e6 * timed([&] { ok = heuristic::phase3_path_selection(*in.problem, sol); }));
    heur_us.push_back(1e6 * timed([&] { (void)heuristic::solve_heuristic(*in.problem); }));
  }
  if (own_session) (void)obs::stop();

  const auto c = [&](const char* name) { return static_cast<double>(count_of(first_pass, name)); };
  const auto pc = [&](const char* name) { return static_cast<double>(count_of(par_counts, name)); };
  LayerMetrics lm;
  lm.set("deploy.instance_ms", median(instance_s) * 1e3);
  lm.set("deploy.validate_us", validate_s.median_of_medians() * 1e6);
  lm.set("model.build_ms", median(build_s) * 1e3);
  std::vector<double> rows, cols;
  for (const MilpInstance& in : corpus) {
    rows.push_back(in.form->model().num_rows());
    cols.push_back(in.form->model().num_vars());
  }
  lm.set("model.rows", median(rows));
  lm.set("model.cols", median(cols));
  lm.set("model.complete_ms", complete_s.median_of_medians() * 1e3);
  lm.set("model.complete.calls", static_cast<double>(complete_calls));
  lm.set("model.complete.closed_ratio", ratio(static_cast<double>(complete_closed), static_cast<double>(complete_calls)));
  lm.set("heuristic.phase1_us", median(phase_us[0]));
  lm.set("heuristic.phase2_us", median(phase_us[1]));
  lm.set("heuristic.phase3_us", median(phase_us[2]));
  lm.set("heuristic.solve_us", median(heur_us));
  lm.set("heuristic.feasible_ratio", ratio(heur_feasible, n));
  lm.set("heuristic.gap", gap_n > 0 ? gap_sum / gap_n : 0.0);
  lm.set("presolve.instance_ms", presolve_s.median_of_medians() * 1e3);
  lm.set("presolve.fixings", static_cast<double>(fixings));
  lm.set("presolve.model_ms", median(model_presolve_s) * 1e3);
  lm.set("presolve.rows_removed", static_cast<double>(rows_removed));
  lm.set("presolve.cols_removed", static_cast<double>(cols_removed));
  lm.set("lp.root_s", median(root_s));
  lm.set("lp.root_pivots", static_cast<double>(root_pivots));
  lm.set("lp.dual_resolve_ms", mean(resolve_s) * 1e3);
  for (const char* name : {"lp.pivots", "lp.dual_resolves", "lp.refactor.count", "lp.refactor.fill",
                           "lp.ftran.count", "lp.btran.count", "lp.eta.updates",
                           "lp.bland_activations", "bnb.branched", "bnb.pruned_bound",
                           "bnb.pruned_infeasible", "bnb.completion_closed"}) {
    lm.set(name, c(name));
  }
  for (const char* name : {"bnb.par.cold_solves", "bnb.par.warm_resolves", "bnb.par.donations"}) {
    lm.set(name, pc(name));
  }
  lm.set("lp.iters_per_solve.p50", hist_pct(hists, "lp.iters_per_solve", 50));
  lm.set("lp.iters_per_solve.p99", hist_pct(hists, "lp.iters_per_solve", 99));
  double root_total = 0.0;
  for (const double s : root_s) root_total += s;
  lm.set("lp.us_per_pivot", ratio(root_total * 1e6, static_cast<double>(root_pivots)));
  lm.set("lp.pivots_per_refactor", ratio(c("lp.pivots"), c("lp.refactor.count")));
  lm.set("milp.nodes", static_cast<double>(nodes));
  lm.set("milp.nodes_per_s", ratio(static_cast<double>(nodes), solve_first_pass_s));
  lm.set("milp.proved_ratio", ratio(static_cast<double>(proved_n), n));
  lm.set("milp.incumbent_ratio", ratio(static_cast<double>(incumbent_n), n));
  lm.set("bnb.node_ms.p50", hist_ms(hists, "bnb.node_ns", 50));
  lm.set("bnb.node_ms.p99", hist_ms(hists, "bnb.node_ns", 99));
  lm.set("bnb.node_ms.max", hist_ms(hists, "bnb.node_ns", 101));
  lm.set("bnb.warm_ratio", ratio(c("bnb.warm_resolves"), c("bnb.warm_resolves") + c("bnb.cold_solves")));
  lm.set("bnb.par.utilization",
         ratio(pc("bnb.par.busy_ns"), pc("bnb.par.busy_ns") + pc("bnb.par.idle_ns")));
  lm.set("certify.replay_ms", replay_s.median_of_medians() * 1e3);
  lm.set("certify.exact_s", exact_s.median_of_medians());
  lm.set("exact.bnb_bounds_reproved", static_cast<double>(bounds_reproved));
  lm.set("certify.verify_ms", verify_s.median_of_medians() * 1e3);
  lm.set("obs.overhead", ratio(solve_s.first_sum(ref_n), untraced_ref_s) - 1.0);
  lm.emit(out);
}

// ============================================================================
// paper_heuristic: heuristic, annealing and the checkers at paper scale
// ============================================================================

constexpr int kFaultTrials = 100'000;

struct PaperRun {
  std::unique_ptr<deploy::DeploymentProblem> problem;
  std::uint64_t seed = 0;
};

void run_paper(const RunConfig& cfg, Result& out) {
  constexpr int kCore = 20, kExtra = 4, kSetupReps = 25;
  bench::Scale scale = bench::paper_scale();
  scale.alpha = 2.5;
  const std::vector<std::uint64_t> seeds =
      corpus_seeds(cfg.seed, seed_range(1, kCore), kExtra, seed_range(21, 84));
  const int n = static_cast<int>(seeds.size());

  std::vector<double> setup_reps, instance_s;
  std::vector<PaperRun> corpus;
  for (int r = 0; r < kSetupReps; ++r) {
    corpus.clear();
    const SpeedProbe probe;
    const auto t0 = Clock::now();
    for (const std::uint64_t seed : seeds) {
      PaperRun in;
      in.seed = seed;
      bench::Scale sc = scale;
      sc.seed = seed;
      instance_s.push_back(timed([&] { in.problem = bench::make_instance(sc); }));
      corpus.push_back(std::move(in));
    }
    setup_reps.push_back(probe.rescale(seconds_since(t0)));
  }

  // The annealing seed follows the instance, so every run anneals each core
  // instance along the same path.
  const auto anneal_opts = [&](std::size_t i) {
    heuristic::AnnealOptions ao;
    ao.seed = splitmix(seeds[i]);
    return ao;
  };
  // Traced runs: untraced reference solves first, for obs.overhead.
  double untraced_ref_s = 0.0;
  const int ref_n = cfg.trace ? std::min(n, 4) : 0;
  for (int i = 0; i < ref_n; ++i) {
    const auto& p = *corpus[static_cast<std::size_t>(i)].problem;
    const SpeedProbe probe;
    untraced_ref_s += probe.rescale(timed([&] {
      (void)heuristic::solve_heuristic(p);
      (void)heuristic::solve_annealing(p, anneal_opts(static_cast<std::size_t>(i)));
    }));
  }

  const bool own_session = cfg.trace && obs::start(/*with_trace=*/true);
  if (cfg.trace && !own_session) {
    out.checks.expect(false, "obs session could not be opened (telemetry compiled out?)");
  }
  PerInstance solve_s(kCore), check_s(kCore), heur_s(kCore), anneal_s(kCore),
      validate_s(kCore), simulate_s(kCore), fault_s(kCore);
  std::map<std::string, long long> first_pass;
  std::vector<double> gains;
  std::vector<long long> first_accepted(seeds.size(), 0);
  long long feasible = 0;

  CorePeakRss rss;
  cycle_corpus(n, kCore, cfg.seconds, [&](int i, int pass) {
    rss.at_step(i, pass, kCore);
    const std::size_t ui = static_cast<std::size_t>(i);
    const auto& p = *corpus[ui].problem;
    const std::string who = "instance " + instance_key(seeds[ui]);
    try {
      std::optional<CounterDelta> delta;
      if (own_session && pass == 0) delta.emplace();
      heuristic::HeuristicResult h;
      heuristic::AnnealResult a;
      double hs = 0.0, as = 0.0;
      const SpeedProbe probe;
      {
        const obs::Span span("perfbench.heuristic.solve", cfg.trace);
        hs = timed([&] { h = heuristic::solve_heuristic(p); });
      }
      {
        const obs::Span span("perfbench.anneal.solve", cfg.trace);
        as = timed([&] { a = heuristic::solve_annealing(p, anneal_opts(ui)); });
      }
      heur_s.add(ui, hs);
      anneal_s.add(ui, as);
      solve_s.add(ui, probe.rescale(hs + as));
      out.checks.expect(h.feasible, who + ": heuristic infeasible: " + h.why);
      out.checks.expect(a.feasible, who + ": annealing found no feasible deployment");

      const SpeedProbe check_probe;
      double check = 0.0;
      for (const auto* sol : {&h.solution, &a.solution}) {
        const char* what = sol == &h.solution ? "heuristic" : "annealing";
        deploy::ValidationResult vr;
        sim::SimResult sr;
        double vs = 0.0, ss = 0.0;
        {
          const obs::Span span("perfbench.deploy.validate", cfg.trace);
          vs = timed([&] { vr = deploy::validate(p, *sol); });
        }
        {
          const obs::Span span("perfbench.sim.simulate", cfg.trace);
          sim::SimOptions so;
          so.link_contention = true;
          ss = timed([&] { sr = sim::simulate(p, *sol, so); });
        }
        validate_s.add(ui, vs);
        simulate_s.add(ui, ss);
        check += vs + ss;
        out.checks.expect(vr.ok(), who + ": " + what + " deployment fails validation: " + vr.summary());
        out.checks.expect(sr.completed && sr.anomalies.empty(),
                          who + ": " + what + " deployment simulates with anomalies");
      }
      sim::FaultCampaignResult fr;
      {
        const obs::Span span("perfbench.sim.fault_campaign", cfg.trace);
        const double fs = timed([&] {
          fr = sim::run_fault_injection(p, h.solution, kFaultTrials, seeds[ui]);
        });
        fault_s.add(ui, fs);
        check += fs;
      }
      check_s.add(ui, check_probe.rescale(check));
      out.checks.expect(std::abs(fr.observed - fr.predicted) <= fr.conf3sigma,
                        who + ": fault campaign outside its 3-sigma band");
      if (pass != 0) {
        out.checks.expect(a.accepted_moves == first_accepted[ui],
                          who + ": repeated annealing run took another path");
        return;
      }
      first_accepted[ui] = a.accepted_moves;
      std::fprintf(stderr, "perfbench: %s heuristic %.2f ms, annealing %.1f ms, checked in %.1f ms\n",
                   who.c_str(), hs * 1e3, as * 1e3, check * 1e3);
      auto& counts = out.counts[instance_key(seeds[ui])];
      counts["anneal.accepted"] = a.accepted_moves;
      counts["sim.fault.successes"] = fr.successes;
      if (h.feasible) ++feasible;
      if (h.feasible && a.feasible) {
        const double he = deploy::evaluate_energy(p, h.solution).max_proc();
        gains.push_back(ratio(he - a.objective, he));
      }
      if (delta && i < kCore) add_counts(first_pass, delta->get());
    } catch (const std::exception& e) {
      out.checks.expect(false, who + ": exception: " + e.what());
    }
  });

  if (!cfg.trace) {
    emit_end_to_end(out, median(setup_reps), solve_s, check_s, rss);
    return;
  }

  std::vector<double> phase_us[3];
  for (const PaperRun& in : corpus) {
    deploy::DeploymentSolution sol = deploy::DeploymentSolution::empty(*in.problem);
    const obs::Span span("perfbench.heuristic.phases", true);
    bool ok = true;
    phase_us[0].push_back(1e6 * timed([&] { ok = heuristic::phase1_frequency_and_duplication(*in.problem, sol); }));
    if (ok) phase_us[1].push_back(1e6 * timed([&] { ok = heuristic::phase2_allocation_and_scheduling(*in.problem, sol); }));
    if (ok) phase_us[2].push_back(1e6 * timed([&] { ok = heuristic::phase3_path_selection(*in.problem, sol); }));
  }
  if (own_session) (void)obs::stop();

  const auto c = [&](const char* name) { return static_cast<double>(count_of(first_pass, name)); };
  LayerMetrics lm;
  lm.set("deploy.instance_ms", median(instance_s) * 1e3);
  lm.set("deploy.validate_us", validate_s.median_of_medians() * 1e6);
  lm.set("heuristic.phase1_us", median(phase_us[0]));
  lm.set("heuristic.phase2_us", median(phase_us[1]));
  lm.set("heuristic.phase3_us", median(phase_us[2]));
  lm.set("heuristic.solve_us", heur_s.median_of_medians() * 1e6);
  lm.set("heuristic.feasible_ratio", ratio(static_cast<double>(feasible), n));
  lm.set("anneal.solve_ms", anneal_s.median_of_medians() * 1e3);
  lm.set("anneal.iters_per_s", ratio(c("anneal.proposed"), anneal_s.first_sum(kCore)));
  lm.set("anneal.accept_ratio", ratio(c("anneal.accepted"), c("anneal.proposed")));
  lm.set("anneal.gain", mean(gains));
  lm.set("sim.simulate_us", simulate_s.median_of_medians() * 1e6);
  lm.set("sim.events", c("sim.events.task_finish") + c("sim.events.msg_delivered") +
                           c("sim.events.msg_hop"));
  lm.set("sim.fault.trials_per_s",
         ratio(static_cast<double>(kFaultTrials) * kCore, fault_s.first_sum(kCore)));
  lm.set("obs.overhead", ratio(solve_s.first_sum(ref_n), untraced_ref_s) - 1.0);
  lm.emit(out);
}

/// prove_small: sweep_scale() instances 1..14, two more drawn from 15..73. Instance 74 is left out of the pool: its root
/// LP certificate carries a dual of -2.3e-6 on a slack row, which certify_bnb
/// rejects.
MilpSpec prove_spec() {
  MilpSpec s;
  s.scale = bench::sweep_scale();
  s.core = seed_range(1, 14);
  s.extra = 2;
  s.pool = seed_range(15, 73);
  s.parallel_check = true;
  // Serially every instance proves within 4 s, but the parallel driver now
  // and then stalls on one for about 30 s before proving it.
  s.cap_s = 60.0;
  s.overhead_prefix = 14;
  s.probe_limit = 14;
  return s;
}

}  // namespace

const std::vector<std::pair<std::string, Workload>>& workloads() {
  static const std::vector<std::pair<std::string, Workload>> kWorkloads = {
      {"prove_small", [](const RunConfig& c, Result& r) { run_milp(prove_spec(), c, r); }},
      {"stress_budget",
       [](const RunConfig& c, Result& r) {
         MilpSpec s;
         s.scale = bench::sweep_stress();
         // The core: instances whose 4-node budget ends within 2 s at the
         // commit that added the benchmark; most others need 3-30 s for the
         // root LP alone, too long for several passes in one run. The pool
         // holds those under 3 s, so a seed-drawn extra stays far inside the
         // cap (a budget cut short by the cap leaves an audit certify_bnb
         // rejects).
         s.core = {7, 12, 14, 16, 19, 8, 5};
         s.extra = 1;
         s.pool = {10, 20, 22, 25, 29, 36, 39, 40, 44};
         s.node_limit = 4;
         s.cap_s = 30.0;
         s.prove = false;
         s.replay_reps = 15;
         s.overhead_prefix = 2;
         s.probe_limit = 4;
         run_milp(s, c, r);
       }},
      {"paper_heuristic", run_paper},
  };
  return kWorkloads;
}

}  // namespace perfbench
