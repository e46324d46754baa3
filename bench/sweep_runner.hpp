// Batched seed-sweep benchmark runner.
//
// Solves K seeded reduced-scale deployment instances three times: once back
// to back on the calling thread (the serial baseline, presolve on), once the
// same way with the proof-carrying presolve OFF (the raw-model baseline), and
// once fanned out across a common::ThreadPool via parallel_for (one instance
// per pool task, each MILP solve itself single-threaded so the phases do
// identical work). Whenever two phases both PROVE an outcome for a seed, they
// must prove the same one: serial vs pooled (an end-to-end determinism check)
// and presolve-on vs presolve-off (presolve is a pure reformulation — a
// standing presolve regression). Capped runs are not comparable and don't
// count as mismatches; their statuses are still recorded per seed.
// The wall-clock ratios are the pool speedup and the presolve speedup on this
// machine.
//
// `nocdeploy-cli sweep` wraps this and writes the result as BENCH_sweep.json
// (schema "nocdeploy-sweep/4"; see EXPERIMENTS.md for the field reference).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/json.hpp"
#include "milp/branch_and_bound.hpp"
#include "obs/obs.hpp"

namespace nd::bench {

struct SweepOptions {
  int seeds = 10;                 ///< number of instances (K)
  std::uint64_t first_seed = 1;   ///< instance seeds are first_seed .. first_seed+K-1
  int threads = 0;                ///< pool width; 0 = ThreadPool::default_threads()
  double time_limit_s = 30.0;     ///< wall-clock cap per MILP solve
  Scale scale = sweep_scale();    ///< instance shape (seed is overridden per run)
  bool verbose = true;            ///< per-seed progress on stdout
};

/// One instance's outcome in all phases.
struct SweepSeed {
  std::uint64_t seed = 0;
  double serial_s = 0.0, parallel_s = 0.0;       ///< per-solve wall clock
  double serial_obj = 0.0, parallel_obj = 0.0;   ///< proved objective (0 if none)
  std::int64_t serial_nodes = 0, parallel_nodes = 0;
  milp::MipStatus serial_status = milp::MipStatus::kUnknown;
  milp::MipStatus parallel_status = milp::MipStatus::kUnknown;
  /// Serial and pooled phases agree: when both carry a proof (optimal /
  /// infeasible), same status and (within 1e-6 relative) same objective.
  /// A pair where either run hit the cap is vacuously true — a capped tree
  /// prefix is wall-clock-dependent, so its incumbent proves nothing.
  bool match = false;
  /// Raw-model control solve (presolve off), serial phase only.
  double presolve_off_s = 0.0;
  double presolve_off_obj = 0.0;
  std::int64_t presolve_off_nodes = 0;
  milp::MipStatus presolve_off_status = milp::MipStatus::kUnknown;
  bool presolve_match = false;  ///< on/off objectives agree (same gating as `match`)
  /// Root presolve tallies of the (presolve-on) serial solve.
  lp::PresolveStats presolve;
  /// Obs counter deltas bracketing this seed's solve in each phase, all
  /// attributable: the serial and presolve-off phases run one instance at a
  /// time on the calling thread, and each pooled instance runs entirely on
  /// one worker thread, so obs::local_counter_totals() brackets it even while
  /// other workers emit. All empty when NOCDEPLOY_OBS is compiled out.
  std::map<std::string, long long> counters;               ///< serial, presolve on
  std::map<std::string, long long> parallel_counters;      ///< pooled phase
  std::map<std::string, long long> presolve_off_counters;  ///< raw-model phase
};

struct SweepResult {
  int threads_used = 1;
  double serial_wall_s = 0.0;    ///< wall clock of the whole serial phase
  double parallel_wall_s = 0.0;  ///< wall clock of the whole pooled phase
  double speedup = 0.0;          ///< serial_wall_s / parallel_wall_s
  double serial_nodes_per_s = 0.0, parallel_nodes_per_s = 0.0;
  int mismatches = 0;  ///< seeds whose serial/pooled phases disagreed (must be 0)
  /// Presolve regression leg: wall clock of the raw-model serial phase, the
  /// presolve speedup (off/on), seeds whose on/off objectives disagreed
  /// (must be 0), and the summed reduction footprint across all seeds.
  double presolve_off_wall_s = 0.0;
  double presolve_speedup = 0.0;  ///< presolve_off_wall_s / serial_wall_s
  int presolve_mismatches = 0;
  int rows_removed_total = 0;
  int cols_removed_total = 0;
  /// Pooled-phase worker accounting (plain monotonic-clock sums, so they are
  /// populated with or without the obs layer): busy_ns is the summed in-task
  /// wall time across workers, idle_ns is threads x phase wall minus that —
  /// together they say WHY a speedup number is what it is (tail-seed idling
  /// vs genuine contention).
  std::int64_t pool_busy_ns = 0;
  std::int64_t pool_idle_ns = 0;
  /// Merged histogram snapshot of the sweep's obs session (empty when the
  /// layer is compiled out). Nested sessions (sweep under --stats) include
  /// whatever the outer session had already recorded.
  std::map<std::string, obs::HistStat> hists;
  std::int64_t peak_rss_bytes = 0;  ///< process high-water at sweep end
  std::vector<SweepSeed> seeds;

  /// The BENCH_sweep.json document (schema "nocdeploy-sweep/4").
  [[nodiscard]] json::Value to_json(const SweepOptions& opt) const;
};

SweepResult run_sweep(const SweepOptions& opt = {});

}  // namespace nd::bench
