#include "sweep_runner.hpp"

#include <atomic>
#include <cmath>
#include <cstdio>

#include "analysis/solve_deployment.hpp"
#include "common/stats.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "heuristic/phases.hpp"
#include "model/formulation.hpp"
#include "obs/obs.hpp"

namespace nd::bench {

namespace {

struct SolveOut {
  double seconds = 0.0;
  double obj = 0.0;
  std::int64_t nodes = 0;
  milp::MipStatus status = milp::MipStatus::kUnknown;
  lp::PresolveStats presolve;
};

/// Generate + heuristic-warm-start + MILP-solve one seeded instance. Always
/// single-threaded internally, so the serial and pooled phases do the same
/// work and must reach the same result.
SolveOut solve_one(const Scale& base, std::uint64_t seed, double time_limit_s,
                   bool presolve) {
  Scale sc = base;
  sc.seed = seed;
  const auto p = make_instance(sc);
  Stopwatch sw;
  const auto warm = heuristic::solve_heuristic(*p);
  const model::Formulation f(*p);
  milp::MipOptions mopt;
  mopt.time_limit_s = time_limit_s;
  mopt.num_threads = 1;
  mopt.presolve = presolve;
  const milp::MipResult res =
      analysis::solve_deployment(f, mopt, warm.feasible ? &warm.solution : nullptr).mip;
  SolveOut out;
  out.seconds = sw.seconds();
  out.status = res.status;
  if (res.has_solution()) out.obj = res.obj;
  out.nodes = res.nodes;
  out.presolve = res.presolve_stats;
  return out;
}

json::Value stats_json(const Stats& st) {
  return json::Object{{"mean", st.mean()},
                      {"stddev", st.stddev()},
                      {"min", st.min()},
                      {"max", st.max()},
                      {"median", st.median()}};
}

/// Nonzero counter deltas between two local_counter_totals() snapshots.
/// Valid only when `before` and `after` come from the SAME thread — the
/// sweep's phases guarantee that (serial phases run on the calling thread,
/// each pooled instance runs entirely inside one parallel_for task).
std::map<std::string, long long> counter_delta(
    const std::map<std::string, long long>& before,
    const std::map<std::string, long long>& after) {
  std::map<std::string, long long> delta;
  for (const auto& [name, total] : after) {
    const auto it = before.find(name);
    const long long d = total - (it == before.end() ? 0 : it->second);
    if (d != 0) delta[name] = d;
  }
  return delta;
}

}  // namespace

SweepResult run_sweep(const SweepOptions& opt) {
  SweepResult out;
  // Collect obs counters for the per-seed snapshots. start() returns false
  // when a session is already open (e.g. the CLI ran with --stats) or the
  // layer is compiled out; we only close what we opened.
  const bool own_session = obs::start(/*with_trace=*/false);
  out.threads_used = opt.threads > 0 ? opt.threads : ThreadPool::default_threads();
  const int k = opt.seeds;
  out.seeds.resize(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) {
    out.seeds[static_cast<std::size_t>(i)].seed =
        opt.first_seed + static_cast<std::uint64_t>(i);
  }

  // Phase 1: serial baseline, one instance after another on this thread.
  std::int64_t serial_nodes = 0;
  Stopwatch serial_sw;
  for (int i = 0; i < k; ++i) {
    SweepSeed& s = out.seeds[static_cast<std::size_t>(i)];
    const std::map<std::string, long long> before = obs::local_counter_totals();
    const SolveOut r = solve_one(opt.scale, s.seed, opt.time_limit_s, /*presolve=*/true);
    s.counters = counter_delta(before, obs::local_counter_totals());
    s.serial_s = r.seconds;
    s.serial_obj = r.obj;
    s.serial_nodes = r.nodes;
    s.serial_status = r.status;
    s.presolve = r.presolve;
    serial_nodes += r.nodes;
    out.rows_removed_total += r.presolve.rows_removed;
    out.cols_removed_total += r.presolve.cols_removed;
    if (opt.verbose) {
      std::printf(
          "[sweep] serial   seed %llu: %s obj %.6f in %.3f s (%lld nodes, "
          "-%d rows -%d cols)\n",
          static_cast<unsigned long long>(s.seed), milp::to_string(r.status), r.obj,
          r.seconds, static_cast<long long>(r.nodes), r.presolve.rows_removed,
          r.presolve.cols_removed);
    }
  }
  out.serial_wall_s = serial_sw.seconds();

  // Phase 2: raw-model control — the same seeds with every presolve pass off.
  // Presolve must be a pure reformulation, so the proved objectives have to
  // match phase 1; the wall-clock ratio is the presolve speedup.
  Stopwatch off_sw;
  for (int i = 0; i < k; ++i) {
    SweepSeed& s = out.seeds[static_cast<std::size_t>(i)];
    const std::map<std::string, long long> before = obs::local_counter_totals();
    const SolveOut r = solve_one(opt.scale, s.seed, opt.time_limit_s, /*presolve=*/false);
    s.presolve_off_counters = counter_delta(before, obs::local_counter_totals());
    s.presolve_off_s = r.seconds;
    s.presolve_off_obj = r.obj;
    s.presolve_off_nodes = r.nodes;
    s.presolve_off_status = r.status;
    if (opt.verbose) {
      std::printf("[sweep] raw      seed %llu: %s obj %.6f in %.3f s (%lld nodes)\n",
                  static_cast<unsigned long long>(s.seed), milp::to_string(r.status),
                  r.obj, r.seconds, static_cast<long long>(r.nodes));
    }
  }
  out.presolve_off_wall_s = off_sw.seconds();

  // Phase 3: the same K instances fanned out across the pool. Each task
  // brackets its own thread's counters (a pooled instance never migrates
  // workers) and adds its in-task wall time to the pool busy total; idle is
  // whatever the phase's threads x wall budget did not spend inside tasks.
  std::int64_t parallel_nodes = 0;
  std::atomic<std::int64_t> pool_busy_ns{0};
  {
    ThreadPool pool(out.threads_used);
    Stopwatch parallel_sw;
    parallel_for(pool, k, [&](int i) {
      const std::int64_t task_start_ns = obs::now_ns();
      SweepSeed& s = out.seeds[static_cast<std::size_t>(i)];
      const std::map<std::string, long long> before = obs::local_counter_totals();
      const SolveOut r = solve_one(opt.scale, s.seed, opt.time_limit_s, /*presolve=*/true);
      s.parallel_counters = counter_delta(before, obs::local_counter_totals());
      s.parallel_s = r.seconds;
      s.parallel_obj = r.obj;
      s.parallel_nodes = r.nodes;
      s.parallel_status = r.status;
      pool_busy_ns.fetch_add(obs::now_ns() - task_start_ns, std::memory_order_relaxed);
    });
    out.parallel_wall_s = parallel_sw.seconds();
  }
  for (const SweepSeed& s : out.seeds) parallel_nodes += s.parallel_nodes;
  out.pool_busy_ns = pool_busy_ns.load(std::memory_order_relaxed);
  out.pool_idle_ns = std::max<std::int64_t>(
      0, static_cast<std::int64_t>(static_cast<double>(out.threads_used) *
                                   out.parallel_wall_s * 1e9) -
             out.pool_busy_ns);

  // Two solves are only COMPARABLE when both carry a proof: a run that hit
  // the time/node cap (kFeasible / kUnknown) stopped at a wall-clock-dependent
  // tree prefix, so its incumbent is not a statement about the instance. A
  // capped pair counts as a (vacuous) match — the per-seed statuses stay in
  // the JSON, so a corpus that keeps capping is still visible.
  const auto proved = [](milp::MipStatus st) {
    return st == milp::MipStatus::kOptimal || st == milp::MipStatus::kInfeasible;
  };
  const auto agree = [&](milp::MipStatus sa, double oa, milp::MipStatus sb, double ob) {
    if (!proved(sa) || !proved(sb)) return true;
    if (sa != sb) return false;
    return sa != milp::MipStatus::kOptimal ||
           std::abs(oa - ob) <= 1e-6 * (1.0 + std::abs(oa));
  };
  for (SweepSeed& s : out.seeds) {
    s.match = agree(s.serial_status, s.serial_obj, s.parallel_status, s.parallel_obj);
    if (!s.match) ++out.mismatches;
    s.presolve_match =
        agree(s.serial_status, s.serial_obj, s.presolve_off_status, s.presolve_off_obj);
    if (!s.presolve_match) ++out.presolve_mismatches;
    if (opt.verbose) {
      std::printf("[sweep] parallel seed %llu: %s obj %.6f in %.3f s — %s, presolve %s\n",
                  static_cast<unsigned long long>(s.seed),
                  milp::to_string(s.parallel_status), s.parallel_obj, s.parallel_s,
                  s.match ? "match" : "MISMATCH",
                  s.presolve_match ? "match" : "MISMATCH");
    }
  }

  // Snapshot the live merged histograms BEFORE closing the session so nested
  // runs (sweep inside --stats) export the same summaries as owned ones.
  out.hists = obs::hist_totals();
  out.peak_rss_bytes = obs::peak_rss_bytes();
  if (own_session) obs::stop();

  out.speedup = out.parallel_wall_s > 0.0 ? out.serial_wall_s / out.parallel_wall_s : 0.0;
  out.presolve_speedup =
      out.serial_wall_s > 0.0 ? out.presolve_off_wall_s / out.serial_wall_s : 0.0;
  out.serial_nodes_per_s =
      out.serial_wall_s > 0.0 ? static_cast<double>(serial_nodes) / out.serial_wall_s : 0.0;
  out.parallel_nodes_per_s =
      out.parallel_wall_s > 0.0 ? static_cast<double>(parallel_nodes) / out.parallel_wall_s
                                : 0.0;
  return out;
}

json::Value SweepResult::to_json(const SweepOptions& opt) const {
  Stats serial_stats, parallel_stats, off_stats;
  std::int64_t serial_node_total = 0, parallel_node_total = 0;
  json::Array per_seed;
  for (const SweepSeed& s : seeds) {
    serial_stats.add(s.serial_s);
    parallel_stats.add(s.parallel_s);
    off_stats.add(s.presolve_off_s);
    serial_node_total += s.serial_nodes;
    parallel_node_total += s.parallel_nodes;
    const auto counters_json = [](const std::map<std::string, long long>& m) {
      json::Object o;
      for (const auto& [name, delta] : m) o.emplace_back(name, static_cast<std::int64_t>(delta));
      return o;
    };
    per_seed.push_back(json::Object{
        {"seed", static_cast<std::int64_t>(s.seed)},
        {"serial_s", s.serial_s},
        {"parallel_s", s.parallel_s},
        {"serial_obj", s.serial_obj},
        {"parallel_obj", s.parallel_obj},
        {"serial_nodes", s.serial_nodes},
        {"parallel_nodes", s.parallel_nodes},
        {"serial_status", milp::to_string(s.serial_status)},
        {"parallel_status", milp::to_string(s.parallel_status)},
        {"match", s.match},
        {"presolve_off_s", s.presolve_off_s},
        {"presolve_off_obj", s.presolve_off_obj},
        {"presolve_off_nodes", s.presolve_off_nodes},
        {"presolve_off_status", milp::to_string(s.presolve_off_status)},
        {"presolve_match", s.presolve_match},
        {"presolve",
         json::Object{{"rows_removed", s.presolve.rows_removed},
                      {"cols_removed", s.presolve.cols_removed},
                      {"cols_pinned", s.presolve.cols_pinned},
                      {"nonzeros_removed",
                       static_cast<std::int64_t>(s.presolve.nonzeros_removed)},
                      {"bound_tightenings", s.presolve.bound_tightenings},
                      {"coef_tightenings", s.presolve.coef_tightenings},
                      {"fixings", s.presolve.fixings},
                      {"rounds", s.presolve.rounds}}},
        {"counters", counters_json(s.counters)},
        {"parallel_counters", counters_json(s.parallel_counters)},
        {"presolve_off_counters", counters_json(s.presolve_off_counters)},
    });
  }
  json::Object hists_json;
  for (const auto& [name, h] : hists) {
    hists_json.emplace_back(name, json::Object{
                                      {"count", static_cast<double>(h.count)},
                                      {"mean", h.mean()},
                                      {"p50", h.percentile(50)},
                                      {"p90", h.percentile(90)},
                                      {"p99", h.percentile(99)},
                                      {"min", h.min},
                                      {"max", h.max},
                                  });
  }
  const double pool_budget_ns =
      static_cast<double>(pool_busy_ns) + static_cast<double>(pool_idle_ns);
  return json::Object{
      {"schema", "nocdeploy-sweep/4"},
      {"config",
       json::Object{{"seeds", opt.seeds},
                    {"first_seed", static_cast<std::int64_t>(opt.first_seed)},
                    {"threads", threads_used},
                    {"time_limit_s", opt.time_limit_s},
                    {"num_tasks", opt.scale.num_tasks},
                    {"rows", opt.scale.rows},
                    {"cols", opt.scale.cols},
                    {"levels", opt.scale.levels}}},
      {"serial", json::Object{{"wall_clock_s", serial_wall_s},
                              {"nodes", serial_node_total},
                              {"nodes_per_s", serial_nodes_per_s},
                              {"seconds_per_seed", stats_json(serial_stats)}}},
      {"parallel",
       json::Object{{"wall_clock_s", parallel_wall_s},
                    {"nodes", parallel_node_total},
                    {"nodes_per_s", parallel_nodes_per_s},
                    {"seconds_per_seed", stats_json(parallel_stats)},
                    {"pool_busy_ns", static_cast<double>(pool_busy_ns)},
                    {"pool_idle_ns", static_cast<double>(pool_idle_ns)},
                    {"pool_utilization",
                     pool_budget_ns > 0.0 ? static_cast<double>(pool_busy_ns) / pool_budget_ns
                                          : 0.0}}},
      {"presolve_off", json::Object{{"wall_clock_s", presolve_off_wall_s},
                                    {"seconds_per_seed", stats_json(off_stats)}}},
      {"speedup", speedup},
      {"presolve_speedup", presolve_speedup},
      {"mismatches", mismatches},
      {"presolve_mismatches", presolve_mismatches},
      {"rows_removed_total", rows_removed_total},
      {"cols_removed_total", cols_removed_total},
      {"histograms", std::move(hists_json)},
      {"peak_rss_bytes", static_cast<double>(peak_rss_bytes)},
      {"per_seed", std::move(per_seed)},
  };
}

}  // namespace nd::bench
