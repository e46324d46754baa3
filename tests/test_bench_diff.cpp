// Tests for the noise-aware sweep comparator (bench/bench_diff): every
// classification path — improvement, within-noise, regression, counter
// drift, histogram percentile shift, missing metric, schema/config mismatch
// — pinned to its exit code and stable diagnostic code, on synthetic
// old/new document pairs built in-memory.
#include <gtest/gtest.h>

#include <locale>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bench_diff.hpp"
#include "common/json.hpp"

namespace {

namespace bench = nd::bench;
namespace json = nd::json;

/// Knobs for one synthetic sweep document. Defaults describe a healthy
/// 2-seed baseline; tests perturb one knob at a time.
struct DocParams {
  std::string schema = "nocdeploy-sweep/4";
  int seeds = 2;
  double serial_mean = 0.50;
  double serial_std = 0.01;
  double serial_wall = 1.00;
  double parallel_wall = 0.60;
  double presolve_off_wall = 1.60;
  double speedup = 1.60;
  long long branched = 100;      ///< deterministic per-seed counter (split 50/50)
  long long busy_ns = 123456789; ///< nondeterministic counter (excluded)
  double node_p50 = 1000.0;      ///< time histogram percentiles (bnb.node_ns)
  double node_p99 = 5000.0;
  long long iters_count = 40;    ///< count histogram (lp.iters_per_solve)
  double iters_p50 = 7.0;        ///< count-histogram percentile
  bool with_counters = true;
  bool with_histograms = true;
};

/// Render the document as JSON text and parse it back — the same path real
/// documents take through `bench diff`. Classic locale keeps the literals
/// stable whatever the host locale.
json::Value make_doc(const DocParams& d) {
  std::ostringstream os;
  os.imbue(std::locale::classic());
  os << "{\"schema\":\"" << d.schema << "\","
     << "\"config\":{\"seeds\":" << d.seeds
     << ",\"first_seed\":1,\"threads\":2,\"time_limit_s\":30,"
     << "\"num_tasks\":3,\"rows\":2,\"cols\":2,\"levels\":3},"
     << "\"serial\":{\"seconds_per_seed\":{\"mean\":" << d.serial_mean
     << ",\"stddev\":" << d.serial_std << "},\"wall_clock_s\":" << d.serial_wall
     << ",\"nodes\":200},"
     << "\"parallel\":{\"seconds_per_seed\":{\"mean\":" << d.parallel_wall / d.seeds
     << ",\"stddev\":" << d.serial_std << "},\"wall_clock_s\":" << d.parallel_wall
     << ",\"nodes\":200},"
     << "\"presolve_off\":{\"seconds_per_seed\":{\"mean\":"
     << d.presolve_off_wall / d.seeds << ",\"stddev\":" << d.serial_std
     << "},\"wall_clock_s\":" << d.presolve_off_wall << "},"
     << "\"speedup\":" << d.speedup << ",\"presolve_speedup\":1.7,"
     << "\"mismatches\":0,\"presolve_mismatches\":0,"
     << "\"rows_removed_total\":0,\"cols_removed_total\":10,";
  os << "\"per_seed\":[";
  for (int s = 0; s < d.seeds; ++s) {
    if (s > 0) os << ",";
    os << "{\"seed\":" << (s + 1);
    if (d.with_counters) {
      os << ",\"counters\":{\"bnb.branched\":" << d.branched / 2
         << ",\"bnb.par.busy_ns\":" << d.busy_ns
         << ",\"mem.lp.engine_bytes\":4096},"
         << "\"parallel_counters\":{\"bnb.branched\":" << d.branched / 2 << "},"
         << "\"presolve_off_counters\":{\"bnb.branched\":" << d.branched << "}";
    }
    os << "}";
  }
  os << "]";
  if (d.with_histograms) {
    os << ",\"histograms\":{"
       << "\"bnb.node_ns\":{\"count\":200,\"mean\":2000,\"p50\":" << d.node_p50
       << ",\"p90\":4000,\"p99\":" << d.node_p99 << ",\"min\":100,\"max\":9000},"
       << "\"lp.iters_per_solve\":{\"count\":" << d.iters_count
       << ",\"mean\":8,\"p50\":" << d.iters_p50
       << ",\"p90\":12,\"p99\":14,\"min\":1,\"max\":20}}";
  }
  os << "}";
  return json::parse(os.str());
}

bool has_code(const bench::DiffResult& r, const std::string& code,
              const std::string& metric_substr = "") {
  for (const bench::DiffFinding& f : r.findings) {
    if (f.code == code &&
        (metric_substr.empty() || f.metric.find(metric_substr) != std::string::npos)) {
      return true;
    }
  }
  return false;
}

TEST(BenchDiff, SelfDiffPassesWithExitZero) {
  const json::Value doc = make_doc({});
  const bench::DiffResult r = bench::diff_sweeps(doc, doc);
  EXPECT_TRUE(r.comparable);
  EXPECT_EQ(r.regressions, 0);
  EXPECT_EQ(r.exit_code(), 0);
  EXPECT_GT(r.within_noise, 0);
}

TEST(BenchDiff, WithinNoiseDeltaPasses) {
  DocParams n;
  // +3% on a metric with a 10% relative floor: inside the band.
  n.serial_mean = 0.515;
  n.serial_wall = 1.03;
  const bench::DiffResult r = bench::diff_sweeps(make_doc({}), make_doc(n));
  EXPECT_EQ(r.exit_code(), 0);
  EXPECT_EQ(r.regressions, 0);
  EXPECT_TRUE(has_code(r, "bench-diff-within-noise", "serial.wall_clock_s"));
}

TEST(BenchDiff, SeededTimeRegressionFailsWithExitOne) {
  DocParams n;
  n.serial_mean = 5.0;  // 10x slower — far outside any sane band
  n.serial_wall = 10.0;
  const bench::DiffResult r = bench::diff_sweeps(make_doc({}), make_doc(n));
  EXPECT_EQ(r.exit_code(), 1);
  EXPECT_GE(r.regressions, 2);
  EXPECT_TRUE(has_code(r, "bench-diff-time-regression", "serial.seconds_per_seed.mean"));
  EXPECT_TRUE(has_code(r, "bench-diff-time-regression", "serial.wall_clock_s"));
  // Regressions sort ahead of the noise rows.
  ASSERT_FALSE(r.findings.empty());
  EXPECT_EQ(r.findings.front().cls, bench::DiffClass::kRegression);
}

TEST(BenchDiff, ImprovementDoesNotGate) {
  DocParams n;
  n.serial_mean = 0.25;  // 2x faster
  n.serial_wall = 0.50;
  const bench::DiffResult r = bench::diff_sweeps(make_doc({}), make_doc(n));
  EXPECT_EQ(r.exit_code(), 0);
  EXPECT_GT(r.improvements, 0);
  EXPECT_TRUE(has_code(r, "bench-diff-time-improvement", "serial.wall_clock_s"));
}

TEST(BenchDiff, SpeedupDropIsARegression) {
  DocParams n;
  n.speedup = 1.0;  // 1.6 -> 1.0, well past the 10% ratio band
  const bench::DiffResult r = bench::diff_sweeps(make_doc({}), make_doc(n));
  EXPECT_EQ(r.exit_code(), 1);
  EXPECT_TRUE(has_code(r, "bench-diff-time-regression", "speedup"));
}

TEST(BenchDiff, DeterministicCounterDriftGates) {
  DocParams n;
  n.branched = 114;  // any drift at all in a deterministic counter gates
  const bench::DiffResult r = bench::diff_sweeps(make_doc({}), make_doc(n));
  EXPECT_EQ(r.exit_code(), 1);
  EXPECT_TRUE(has_code(r, "bench-diff-counter-drift", "counters.bnb.branched"));
  EXPECT_TRUE(has_code(r, "bench-diff-counter-drift", "presolve_off_counters.bnb.branched"));
}

TEST(BenchDiff, NondeterministicCountersAreExcluded) {
  DocParams n;
  n.busy_ns = 999999999;  // _ns / mem. / bnb.par. names never compare exactly
  const bench::DiffResult r = bench::diff_sweeps(make_doc({}), make_doc(n));
  EXPECT_EQ(r.exit_code(), 0);
  EXPECT_EQ(r.regressions, 0);
}

TEST(BenchDiff, TimeHistogramPercentileShiftGates) {
  DocParams n;
  n.node_p99 = 20000.0;  // 4x tail latency on a .ns histogram
  const bench::DiffResult r = bench::diff_sweeps(make_doc({}), make_doc(n));
  EXPECT_EQ(r.exit_code(), 1);
  EXPECT_TRUE(has_code(r, "bench-diff-hist-regression", "histograms.bnb.node_ns.p99"));
}

TEST(BenchDiff, CountHistogramComparesExactly) {
  DocParams n;
  n.iters_count = 41;  // count-valued histogram: deterministic population
  const bench::DiffResult r = bench::diff_sweeps(make_doc({}), make_doc(n));
  EXPECT_EQ(r.exit_code(), 1);
  EXPECT_TRUE(has_code(r, "bench-diff-counter-drift", "histograms.lp.iters_per_solve.count"));

  // A percentile shift in a count histogram is a deterministic work-profile
  // change, so it gates like the population does.
  DocParams shifted;
  shifted.iters_p50 = 25.0;
  const bench::DiffResult r2 = bench::diff_sweeps(make_doc({}), make_doc(shifted));
  EXPECT_EQ(r2.exit_code(), 1);
  EXPECT_TRUE(has_code(r2, "bench-diff-hist-regression", "histograms.lp.iters_per_solve.p50"));
}

TEST(BenchDiff, MissingMetricIsANonGatingNote) {
  DocParams n;
  n.with_counters = false;      // e.g. the new run was built with obs OFF
  n.with_histograms = false;
  const bench::DiffResult r = bench::diff_sweeps(make_doc({}), make_doc(n));
  EXPECT_EQ(r.exit_code(), 0);
  EXPECT_GT(r.notes, 0);
  EXPECT_TRUE(has_code(r, "bench-diff-missing-metric", "counters"));
  EXPECT_TRUE(has_code(r, "bench-diff-missing-metric", "histograms.bnb.node_ns"));
}

TEST(BenchDiff, ObsOffBaselineComparesTimingOnly) {
  DocParams o;
  o.with_counters = false;  // old baseline has no counters: nothing to miss
  o.with_histograms = false;
  const bench::DiffResult r = bench::diff_sweeps(make_doc(o), make_doc({}));
  EXPECT_EQ(r.exit_code(), 0);
  EXPECT_FALSE(has_code(r, "bench-diff-missing-metric"));
}

TEST(BenchDiff, SchemaMismatchIsIncomparableExitThree) {
  DocParams o;
  o.schema = "nocdeploy-sweep/3";
  const bench::DiffResult r = bench::diff_sweeps(make_doc(o), make_doc({}));
  EXPECT_FALSE(r.comparable);
  EXPECT_EQ(r.exit_code(), 3);
  EXPECT_TRUE(has_code(r, "bench-diff-schema-mismatch", "schema"));
  // The gate is first and final: no timing findings behind it.
  EXPECT_EQ(r.findings.size(), 1u);
}

TEST(BenchDiff, ConfigMismatchIsIncomparableExitThree) {
  DocParams n;
  n.seeds = 3;  // different workload: the numbers mean different things
  const bench::DiffResult r = bench::diff_sweeps(make_doc({}), make_doc(n));
  EXPECT_FALSE(r.comparable);
  EXPECT_EQ(r.exit_code(), 3);
  EXPECT_TRUE(has_code(r, "bench-diff-config-mismatch", "config.seeds"));
}

TEST(BenchDiff, NonObjectInputThrows) {
  const json::Value arr = json::parse("[1,2,3]");
  const json::Value doc = make_doc({});
  EXPECT_THROW(bench::diff_sweeps(arr, doc), std::invalid_argument);
  EXPECT_THROW(bench::diff_sweeps(doc, arr), std::invalid_argument);
}

TEST(BenchDiff, ReportsRoundTripThroughJson) {
  DocParams n;
  n.serial_wall = 10.0;
  const bench::DiffResult r = bench::diff_sweeps(make_doc({}), make_doc(n));
  const json::Value doc = json::parse(r.to_json().dump(2));
  EXPECT_EQ(doc.at("schema").as_string(), "nocdeploy-bench-diff/1");
  EXPECT_EQ(static_cast<int>(doc.at("exit_code").as_number()), r.exit_code());
  EXPECT_EQ(static_cast<int>(doc.at("regressions").as_number()), r.regressions);
  EXPECT_EQ(doc.at("findings").as_array().size(), r.findings.size());
  // The human table renders every finding plus the summary line.
  const std::string table = r.to_table();
  EXPECT_NE(table.find("REGRESSION"), std::string::npos);
  EXPECT_NE(table.find("bench diff:"), std::string::npos);
}

}  // namespace
