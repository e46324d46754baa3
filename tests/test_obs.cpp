// Tests for the obs telemetry layer (src/obs): session lifecycle, counter
// saturation, deterministic thread merge, log-scale histograms, the flight
// recorder, trace_event JSON schema, the compiled-out no-op contract, and
// the parallel B&B busy-time accounting.
//
// This binary is compiled in BOTH CI flavours (NOCDEPLOY_OBS ON and OFF);
// the ND_OBS_ENABLED guards select which contract is asserted.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/json.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "milp/audit.hpp"
#include "milp/branch_and_bound.hpp"
#include "milp/model.hpp"
#include "obs/obs.hpp"

namespace {

using nd::ThreadPool;
using nd::lp::Sense;
using nd::milp::Model;
namespace obs = nd::obs;

// minimize -x0 - 0.9 x1  s.t.  x0 + x1 <= 7.5,  x0, x1 in [0,10] integer.
// Fractional LP relaxation, so every thread count has to branch (same model
// the parallel B&B determinism tests use).
Model staircase_model() {
  Model m;
  const int x0 = m.add_int(0.0, 10.0, -1.0, "x0");
  const int x1 = m.add_int(0.0, 10.0, -0.9, "x1");
  m.add_row({{x0, 1.0}, {x1, 1.0}}, Sense::LE, 7.5);
  return m;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Every line of a flight dump must be a self-contained JSON object carrying
/// the mandatory envelope fields.
void expect_valid_jsonl(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  int lines = 0;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    ++lines;
    const nd::json::Value v = nd::json::parse(line);
    ASSERT_TRUE(v.is_object()) << line;
    EXPECT_NE(v.find("t_ns"), nullptr) << line;
    EXPECT_NE(v.find("level"), nullptr) << line;
    EXPECT_NE(v.find("code"), nullptr) << line;
  }
  EXPECT_GT(lines, 0);
}

#if ND_OBS_ENABLED

TEST(Obs, SessionLifecycle) {
  EXPECT_FALSE(obs::collecting());
  ASSERT_TRUE(obs::start());
  EXPECT_TRUE(obs::collecting());
  EXPECT_FALSE(obs::tracing());
  // A second start() does not own the session — nested users compose.
  EXPECT_FALSE(obs::start());
  obs::counter_add("test.n", 3);
  const obs::Profile p = obs::stop();
  EXPECT_FALSE(obs::collecting());
  ASSERT_EQ(p.counters.count("test.n"), 1u);
  EXPECT_EQ(p.counters.at("test.n"), 3);
  EXPECT_FALSE(p.traced);
  EXPECT_TRUE(p.events.empty());
}

TEST(Obs, NothingRecordedWithoutSession) {
  obs::counter_add("test.orphan", 1);
  { const obs::Span s("test.orphan_span"); }
  ASSERT_TRUE(obs::start());
  const obs::Profile p = obs::stop();
  EXPECT_EQ(p.counters.count("test.orphan"), 0u);
  EXPECT_EQ(p.timers.count("test.orphan_span"), 0u);
}

TEST(Obs, CounterSaturatesAtInt64Limits) {
  constexpr long long kMax = std::numeric_limits<long long>::max();
  ASSERT_TRUE(obs::start());
  obs::counter_add("test.sat", kMax);
  obs::counter_add("test.sat", 5);  // would overflow — must pin, not wrap
  obs::counter_add("test.neg", std::numeric_limits<long long>::min());
  obs::counter_add("test.neg", -7);
  const obs::Profile p = obs::stop();
  EXPECT_EQ(p.counters.at("test.sat"), kMax);
  EXPECT_EQ(p.counters.at("test.neg"), std::numeric_limits<long long>::min());
}

TEST(Obs, SpanNestingDepthsAndTimerRollup) {
  ASSERT_TRUE(obs::start(/*with_trace=*/true));
  {
    const obs::Span outer("test.outer");
    {
      const obs::Span inner("test.inner");
    }
    {
      const obs::Span inner("test.inner");
    }
  }
  const obs::Profile p = obs::stop();
  ASSERT_EQ(p.timers.count("test.outer"), 1u);
  ASSERT_EQ(p.timers.count("test.inner"), 1u);
  EXPECT_EQ(p.timers.at("test.outer").count, 1);
  EXPECT_EQ(p.timers.at("test.inner").count, 2);
  EXPECT_GE(p.timers.at("test.outer").total_ns, p.timers.at("test.inner").total_ns);
  ASSERT_EQ(p.events.size(), 3u);
  // Events are sorted by start time: outer first, then the two inners with
  // nesting depth 1.
  EXPECT_EQ(p.events[0].name, "test.outer");
  EXPECT_EQ(p.events[0].depth, 0);
  EXPECT_EQ(p.events[1].depth, 1);
  EXPECT_EQ(p.events[2].depth, 1);
  for (std::size_t i = 1; i < p.events.size(); ++i) {
    EXPECT_LE(p.events[i - 1].start_ns, p.events[i].start_ns);
  }
}

TEST(Obs, DisarmedSpanRecordsNothing) {
  ASSERT_TRUE(obs::start());
  { const obs::Span s("test.disarmed", /*armed=*/false); }
  const obs::Profile p = obs::stop();
  EXPECT_EQ(p.timers.count("test.disarmed"), 0u);
}

TEST(Obs, ThreadMergeIsDeterministic) {
  constexpr int kTasks = 64;
  constexpr int kThreads = 4;
  ASSERT_TRUE(obs::start());
  {
    ThreadPool pool(kThreads);
    nd::parallel_for(pool, kTasks, [](int i) {
      const obs::Span s("test.task");
      obs::counter_add("test.merged", 1);
      obs::value_observe("test.v", static_cast<double>(i));
    });
  }
  const obs::Profile p = obs::stop();
  // Whatever the scheduling, the merged totals are exact.
  EXPECT_EQ(p.counters.at("test.merged"), kTasks);
  EXPECT_EQ(p.timers.at("test.task").count, kTasks);
  ASSERT_EQ(p.values.count("test.v"), 1u);
  EXPECT_EQ(p.values.at("test.v").count, kTasks);
  EXPECT_DOUBLE_EQ(p.values.at("test.v").min, 0.0);
  EXPECT_DOUBLE_EQ(p.values.at("test.v").max, kTasks - 1.0);
  EXPECT_DOUBLE_EQ(p.values.at("test.v").sum, kTasks * (kTasks - 1.0) / 2.0);
}

TEST(Obs, PoolWorkerTidsAreSlotBased) {
  constexpr int kThreads = 3;
  ASSERT_TRUE(obs::start(/*with_trace=*/true));
  {
    ThreadPool pool(kThreads);
    nd::parallel_for(pool, 32, [](int) { const obs::Span s("test.tid"); });
  }
  { const obs::Span s("test.tid_main"); }
  const obs::Profile p = obs::stop();
  for (const obs::SpanEvent& e : p.events) {
    if (e.name == "test.tid") {
      // Pool workers report slot + 1, stable across runs (not thread ids).
      EXPECT_GE(e.tid, 1);
      EXPECT_LE(e.tid, kThreads);
    } else {
      EXPECT_EQ(e.tid, 0) << e.name;  // main thread
    }
  }
}

TEST(Obs, InstantEventsCarryValues) {
  ASSERT_TRUE(obs::start(/*with_trace=*/true));
  obs::instant("test.mark", 42.5);
  const obs::Profile p = obs::stop();
  ASSERT_EQ(p.values.count("test.mark"), 1u);
  ASSERT_EQ(p.events.size(), 1u);
  EXPECT_LT(p.events[0].dur_ns, 0);  // instant marker
  EXPECT_DOUBLE_EQ(p.events[0].value, 42.5);
}

TEST(Obs, TraceJsonSchema) {
  ASSERT_TRUE(obs::start(/*with_trace=*/true));
  {
    const obs::Span s("test.span");
    obs::instant("test.instant", 1.0);
  }
  obs::counter_add("test.count", 7);
  const obs::Profile prof = obs::stop();

  // The document must survive its own printer/parser round trip.
  const nd::json::Value doc =
      nd::json::parse(obs::trace_to_json(prof).dump(2));
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");

  const auto& events = doc.at("traceEvents").as_array();
  ASSERT_FALSE(events.empty());
  bool saw_complete = false, saw_instant = false, saw_meta = false;
  for (const auto& e : events) {
    const std::string ph = e.at("ph").as_string();
    EXPECT_FALSE(e.at("name").as_string().empty());
    EXPECT_EQ(static_cast<int>(e.at("pid").as_number()), 1);
    (void)e.at("tid").as_number();
    if (ph == "X") {
      saw_complete = true;
      EXPECT_GE(e.at("ts").as_number(), 0.0);
      EXPECT_GE(e.at("dur").as_number(), 0.0);
    } else if (ph == "i") {
      saw_instant = true;
      EXPECT_EQ(e.at("s").as_string(), "t");
    } else {
      EXPECT_EQ(ph, "M");
      saw_meta = true;
    }
  }
  EXPECT_TRUE(saw_complete);
  EXPECT_TRUE(saw_instant);
  EXPECT_TRUE(saw_meta);

  const auto& other = doc.at("otherData");
  EXPECT_EQ(other.at("schema").as_string(), "nocdeploy-trace/1");
  EXPECT_EQ(static_cast<long long>(other.at("counters").at("test.count").as_number()), 7);
}

// The paper-scale workloads run the parallel solver for seconds; here a
// small model just has to prove that per-worker busy time is accounted
// sanely: every worker reports, the total is positive, and no worker claims
// more time than the solve's wall clock allows.
TEST(Obs, ParallelBnbBusyTimeWithinWallClock) {
  constexpr int kThreads = 2;
  const Model m = staircase_model();
  ASSERT_TRUE(obs::start());
  nd::Stopwatch sw;
  nd::milp::MipOptions opt;
  opt.num_threads = kThreads;
  const auto res = nd::milp::solve(m, opt);
  const double wall_s = sw.seconds();
  const obs::Profile p = obs::stop();

  EXPECT_EQ(res.status, nd::milp::MipStatus::kOptimal);
  ASSERT_EQ(p.counters.count("bnb.par.busy_ns"), 1u);
  const long long busy_total = p.counters.at("bnb.par.busy_ns");
  EXPECT_GT(busy_total, 0);
  // Σ busy ≤ threads × wall (generous envelope for clock granularity).
  const double envelope_ns = kThreads * wall_s * 1e9 * 1.5 + 1e6;
  EXPECT_LE(static_cast<double>(busy_total), envelope_ns);

  // Which pool slot ran which worker task is scheduling-dependent (a fast
  // search can finish before every slot picks one up), but the per-slot
  // lanes must exist and partition the total exactly.
  long long per_worker = 0;
  int lanes = 0;
  for (const auto& [name, v] : p.counters) {
    if (name.rfind("bnb.par.w", 0) == 0 && name.size() > 9 &&
        std::isdigit(static_cast<unsigned char>(name[9])) != 0) {
      per_worker += v;
      ++lanes;
    }
  }
  EXPECT_GE(lanes, 1);
  EXPECT_LE(lanes, kThreads);
  EXPECT_EQ(per_worker, busy_total);
  // busy + idle covers each worker's lifetime, so idle is present too.
  EXPECT_EQ(p.counters.count("bnb.par.idle_ns"), 1u);
  // Node dispositions flow into the same names at every thread count.
  EXPECT_EQ(p.counters.at("bnb.nodes"), res.nodes);
}

TEST(Obs, SequentialBnbCountersMatchResult) {
  const Model m = staircase_model();
  ASSERT_TRUE(obs::start());
  nd::milp::MipOptions opt;
  opt.num_threads = 1;
  const auto res = nd::milp::solve(m, opt);
  const obs::Profile p = obs::stop();
  EXPECT_EQ(res.status, nd::milp::MipStatus::kOptimal);
  EXPECT_EQ(p.counters.at("bnb.nodes"), res.nodes);
  EXPECT_GE(p.counters.at("bnb.incumbent_updates"), 1);
  EXPECT_EQ(p.counters.at("lp.iterations"), res.lp_iterations);
  for (const char* timer : {"lp.time.factorize_ns", "lp.time.ftran_ns", "lp.time.btran_ns"}) {
    ASSERT_EQ(p.counters.count(timer), 1u) << timer;
    EXPECT_GT(p.counters.at(timer), 0) << timer;
  }
  ASSERT_EQ(p.timers.count("bnb.solve"), 1u);
  EXPECT_EQ(p.timers.at("bnb.solve").count, 1);
}

TEST(Obs, TelemetryOptOutKeepsSolveOutOfProfile) {
  const Model m = staircase_model();
  ASSERT_TRUE(obs::start());
  nd::milp::MipOptions opt;
  opt.telemetry = false;
  const auto res = nd::milp::solve(m, opt);
  const obs::Profile p = obs::stop();
  EXPECT_EQ(res.status, nd::milp::MipStatus::kOptimal);
  EXPECT_EQ(p.counters.count("bnb.nodes"), 0u);
  EXPECT_EQ(p.timers.count("bnb.solve"), 0u);
}

TEST(Obs, HistogramObserveFlowsIntoProfile) {
  ASSERT_TRUE(obs::start());
  ND_OBS_HIST("test.h", 3.0);
  ND_OBS_HIST("test.h", 100.0);
  obs::hist_observe("test.h", 7.5);
  const obs::Profile p = obs::stop();
  ASSERT_EQ(p.hists.count("test.h"), 1u);
  const obs::HistStat& h = p.hists.at("test.h");
  EXPECT_EQ(h.count, 3);
  EXPECT_DOUBLE_EQ(h.sum, 110.5);
  EXPECT_DOUBLE_EQ(h.min, 3.0);
  EXPECT_DOUBLE_EQ(h.max, 100.0);
  EXPECT_DOUBLE_EQ(h.mean(), 110.5 / 3.0);
}

// The acceptance bar for the histogram layer: whatever the thread count and
// scheduling, a fixed multiset of observations produces bit-identical bucket
// contents and therefore bit-identical percentiles.
TEST(Obs, HistogramMergeIsDeterministicAcrossThreadCounts) {
  constexpr int kTasks = 96;
  obs::HistStat ref;
  for (const int threads : {1, 2, 4}) {
    ASSERT_TRUE(obs::start());
    {
      ThreadPool pool(threads);
      nd::parallel_for(pool, kTasks, [](int i) {
        ND_OBS_HIST("test.det", static_cast<double>(i) * static_cast<double>(i));
      });
    }
    const obs::Profile p = obs::stop();
    ASSERT_EQ(p.hists.count("test.det"), 1u) << threads << " threads";
    const obs::HistStat& h = p.hists.at("test.det");
    EXPECT_EQ(h.count, kTasks);
    if (threads == 1) {
      ref = h;
      continue;
    }
    EXPECT_EQ(h.count, ref.count) << threads << " threads";
    EXPECT_DOUBLE_EQ(h.sum, ref.sum) << threads << " threads";
    EXPECT_DOUBLE_EQ(h.min, ref.min) << threads << " threads";
    EXPECT_DOUBLE_EQ(h.max, ref.max) << threads << " threads";
    for (int b = 0; b < obs::HistStat::kNumBuckets; ++b) {
      EXPECT_EQ(h.buckets[b], ref.buckets[b]) << threads << " threads, bucket " << b;
    }
    EXPECT_DOUBLE_EQ(h.percentile(50.0), ref.percentile(50.0)) << threads;
    EXPECT_DOUBLE_EQ(h.percentile(99.0), ref.percentile(99.0)) << threads;
  }
}

TEST(Obs, SpanWithHistOptionRecordsDistribution) {
  ASSERT_TRUE(obs::start());
  for (int i = 0; i < 5; ++i) {
    const obs::Span s("test.hspan", /*armed=*/true, /*hist=*/true);
  }
  { const obs::Span plain("test.plain"); }
  const obs::Profile p = obs::stop();
  // The hist option adds a ".ns" duration distribution on top of the timer.
  ASSERT_EQ(p.timers.count("test.hspan"), 1u);
  ASSERT_EQ(p.hists.count("test.hspan.ns"), 1u);
  EXPECT_EQ(p.hists.at("test.hspan.ns").count, 5);
  EXPECT_EQ(p.hists.count("test.plain.ns"), 0u);
}

TEST(Obs, HistTimerRecordsOnlyHistogram) {
  ASSERT_TRUE(obs::start());
  for (int i = 0; i < 3; ++i) {
    const obs::HistTimer t("test.node_ns");
  }
  { const obs::HistTimer off("test.off_ns", /*armed=*/false); }
  const obs::Profile p = obs::stop();
  ASSERT_EQ(p.hists.count("test.node_ns"), 1u);
  EXPECT_EQ(p.hists.at("test.node_ns").count, 3);
  EXPECT_EQ(p.timers.count("test.node_ns"), 0u);  // no per-span timer row
  EXPECT_EQ(p.hists.count("test.off_ns"), 0u);
}

TEST(Obs, HistTotalsSnapshotsLiveSession) {
  ASSERT_TRUE(obs::start());
  ND_OBS_HIST("test.live", 4.0);
  const auto live = obs::hist_totals();  // mid-session snapshot (nested users)
  const obs::Profile p = obs::stop();
  ASSERT_EQ(live.count("test.live"), 1u);
  EXPECT_EQ(live.at("test.live").count, 1);
  EXPECT_EQ(p.hists.at("test.live").count, 1);
}

TEST(Obs, LocalCounterTotalsSeeOnlyCallingThread) {
  ASSERT_TRUE(obs::start());
  obs::counter_add("test.local", 2);
  {
    ThreadPool pool(2);
    nd::parallel_for(pool, 8, [](int) { obs::counter_add("test.local", 1); });
  }
  const auto local = obs::local_counter_totals();
  const obs::Profile p = obs::stop();
  // The pool workers' contributions are invisible to the main thread's local
  // view but present in the merged profile.
  ASSERT_EQ(local.count("test.local"), 1u);
  EXPECT_EQ(local.at("test.local"), 2);
  EXPECT_EQ(p.counters.at("test.local"), 10);
}

TEST(Obs, FlightRecorderLinesAreValidJson) {
  ND_OBS_LOG(obs::LogLevel::kInfo, "test-event", {"n", 7}, {"ratio", 0.5},
             {"tag", "alpha"});
  obs::log(obs::LogLevel::kDebug, "test-plain");
  const std::vector<std::string> lines = obs::flight_lines();
  ASSERT_FALSE(lines.empty());
  bool saw_event = false;
  for (const std::string& line : lines) {
    const nd::json::Value v = nd::json::parse(line);
    ASSERT_TRUE(v.is_object()) << line;
    EXPECT_NE(v.find("t_ns"), nullptr);
    EXPECT_NE(v.find("tid"), nullptr);
    EXPECT_NE(v.find("level"), nullptr);
    if (v.at("code").as_string() == "test-event") {
      saw_event = true;
      EXPECT_DOUBLE_EQ(v.at("n").as_number(), 7.0);
      EXPECT_DOUBLE_EQ(v.at("ratio").as_number(), 0.5);
      EXPECT_EQ(v.at("tag").as_string(), "alpha");
      EXPECT_EQ(v.at("level").as_string(), "info");
    }
  }
  EXPECT_TRUE(saw_event);
}

TEST(Obs, ErrorEventDumpsFlightLogToSink) {
  const std::string path = ::testing::TempDir() + "obs_flight_error.jsonl";
  std::remove(path.c_str());
  obs::set_log_sink(path);
  ND_OBS_LOG(obs::LogLevel::kWarn, "test-before-failure", {"step", 1});
  ND_OBS_LOG(obs::LogLevel::kError, "test-failure", {"what", "synthetic"});
  obs::set_log_sink("");
  const std::string text = slurp(path);
  expect_valid_jsonl(text);
  // The dump carries both the triggering event and the prior history.
  EXPECT_NE(text.find("\"test-failure\""), std::string::npos);
  EXPECT_NE(text.find("\"test-before-failure\""), std::string::npos);
  EXPECT_NE(text.find("\"flight-dump\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(Obs, InvariantTripDumpsFlightLog) {
  const std::string path = ::testing::TempDir() + "obs_flight_invariant.jsonl";
  std::remove(path.c_str());
  obs::set_log_sink(path);
  EXPECT_THROW(ND_ASSERT(false, "synthetic invariant trip"), std::logic_error);
  obs::set_log_sink("");
  const std::string text = slurp(path);
  expect_valid_jsonl(text);
  EXPECT_NE(text.find("invariant-failure"), std::string::npos);
  std::remove(path.c_str());
}

// A task that returns with a span still open would corrupt every later
// span's depth on that worker; the pool turns it into a loud abort instead.
TEST(ObsDeathTest, LeakedSpanInPoolTaskAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        obs::start();
        ThreadPool pool(1);
        pool.submit([] { new obs::Span("test.leak"); });  // leaks deliberately
        pool.wait_idle();
      },
      "telemetry span");
}

#else  // !ND_OBS_ENABLED

TEST(ObsDisabled, EverythingIsANoOp) {
  EXPECT_FALSE(obs::compiled_in());
  EXPECT_FALSE(obs::start(true));
  EXPECT_FALSE(obs::collecting());
  EXPECT_FALSE(obs::tracing());
  obs::counter_add("test.n", 1);
  obs::value_observe("test.v", 1.0);
  obs::instant("test.i", 1.0);
  obs::hist_observe("test.h", 1.0);
  ND_OBS_COUNT("test.macro", 1);
  ND_OBS_VALUE("test.macro", 1.0);
  ND_OBS_INSTANT("test.macro", 1.0);
  ND_OBS_HIST("test.macro", 1.0);
  { const obs::Span s("test.span"); }
  { const obs::Span s("test.hspan", /*armed=*/true, /*hist=*/true); }
  { const obs::HistTimer t("test.node_ns"); }
  EXPECT_TRUE(obs::counter_totals().empty());
  EXPECT_TRUE(obs::local_counter_totals().empty());
  EXPECT_TRUE(obs::hist_totals().empty());
  const obs::Profile p = obs::stop();
  EXPECT_TRUE(p.counters.empty());
  EXPECT_TRUE(p.timers.empty());
  EXPECT_TRUE(p.hists.empty());
  EXPECT_TRUE(p.events.empty());
}

TEST(ObsDisabled, FlightRecorderIsANoOp) {
  // ND_OBS_LOG must compile out entirely — its arguments are never evaluated
  // and no ring exists; the free-function stubs stay callable and inert.
  ND_OBS_LOG(obs::LogLevel::kError, "test-off", {"k", 1});
  obs::log(obs::LogLevel::kError, "test-off-fn");
  obs::set_log_sink("/nonexistent/dir/never-created.jsonl");
  obs::dump_flight("test");
  EXPECT_TRUE(obs::flight_lines().empty());
}

TEST(ObsDisabled, ExportersStillProduceValidDocuments) {
  const obs::Profile p;
  EXPECT_FALSE(obs::to_table(p).empty());
  const nd::json::Value doc = nd::json::parse(obs::trace_to_json(p).dump(2));
  EXPECT_TRUE(doc.at("traceEvents").as_array().empty());
  EXPECT_EQ(doc.at("otherData").at("schema").as_string(), "nocdeploy-trace/1");
}

#endif  // ND_OBS_ENABLED

// HistStat arithmetic, now_ns, peak_rss_bytes and audit timestamps work in
// BOTH builds — they are plain data types, not session machinery.
TEST(ObsBothBuilds, HistStatBucketBoundaries) {
  EXPECT_EQ(obs::HistStat::bucket_index(0.0), 0);
  EXPECT_EQ(obs::HistStat::bucket_index(0.5), 0);
  EXPECT_EQ(obs::HistStat::bucket_index(std::numeric_limits<double>::quiet_NaN()), 0);
  EXPECT_EQ(obs::HistStat::bucket_index(1.0), 1);
  EXPECT_EQ(obs::HistStat::bucket_index(1.999), 1);
  EXPECT_EQ(obs::HistStat::bucket_index(2.0), 2);
  EXPECT_EQ(obs::HistStat::bucket_index(3.0), 2);
  EXPECT_EQ(obs::HistStat::bucket_index(4.0), 3);
  EXPECT_EQ(obs::HistStat::bucket_index(1e30), 63);  // beyond 2^62 saturates
  // Boundaries are half-open [lo, hi): every value indexes into the bucket
  // whose bounds contain it.
  for (const double v : {0.25, 1.0, 1.5, 7.0, 1024.0, 3.5e6}) {
    const int b = obs::HistStat::bucket_index(v);
    EXPECT_GE(v, b == 0 ? 0.0 : obs::HistStat::bucket_lo(b)) << v;
    EXPECT_LT(v, obs::HistStat::bucket_hi(b)) << v;
  }
}

TEST(ObsBothBuilds, HistStatPercentilesAndMergeEquivalence) {
  obs::HistStat whole;
  obs::HistStat half_a;
  obs::HistStat half_b;
  for (int i = 0; i < 100; ++i) {
    const double v = static_cast<double>(i + 1) * 10.0;  // 10 .. 1000
    whole.observe(v);
    (i % 2 == 0 ? half_a : half_b).observe(v);
  }
  obs::HistStat merged = half_a;
  merged.merge(half_b);
  EXPECT_EQ(merged.count, whole.count);
  EXPECT_DOUBLE_EQ(merged.sum, whole.sum);
  EXPECT_DOUBLE_EQ(merged.min, whole.min);
  EXPECT_DOUBLE_EQ(merged.max, whole.max);
  for (int b = 0; b < obs::HistStat::kNumBuckets; ++b) {
    EXPECT_EQ(merged.buckets[b], whole.buckets[b]) << "bucket " << b;
  }
  // Percentiles are monotone, clamp to the observed range, and the median of
  // a 10..1000 uniform grid lands in the right power-of-two bucket.
  EXPECT_DOUBLE_EQ(whole.percentile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(whole.percentile(100.0), 1000.0);
  const double p50 = whole.percentile(50.0);
  const double p90 = whole.percentile(90.0);
  const double p99 = whole.percentile(99.0);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_GE(p50, 256.0);  // true median 505 lives in [256, 512)
  EXPECT_LT(p50, 512.0);
  EXPECT_LE(p99, 1000.0);
  // Empty histogram: percentile is defined (0), not NaN.
  const obs::HistStat empty;
  EXPECT_DOUBLE_EQ(empty.percentile(50.0), 0.0);
}

TEST(ObsBothBuilds, PeakRssIsMeasuredOnSupportedPlatforms) {
#if defined(__linux__) || defined(__APPLE__)
  EXPECT_GT(obs::peak_rss_bytes(), 0);
#else
  EXPECT_GE(obs::peak_rss_bytes(), 0);
#endif
}

TEST(ObsBothBuilds, NowNsIsMonotonic) {
  const std::int64_t a = obs::now_ns();
  const std::int64_t b = obs::now_ns();
  EXPECT_GE(b, a);
  EXPECT_GE(a, 0);
}

TEST(ObsBothBuilds, AuditNodeTimestampsSurviveJsonRoundTrip) {
  const Model m = staircase_model();
  nd::milp::AuditLog audit;
  nd::milp::MipOptions opt;
  opt.audit = &audit;
  const auto res = nd::milp::solve(m, opt);
  ASSERT_EQ(res.status, nd::milp::MipStatus::kOptimal);
  ASSERT_FALSE(audit.nodes.empty());

  const auto round =
      nd::milp::audit_from_json(nd::json::parse(nd::milp::audit_to_json(audit).dump(2)));
  ASSERT_EQ(round.nodes.size(), audit.nodes.size());
  for (std::size_t i = 0; i < audit.nodes.size(); ++i) {
    EXPECT_EQ(round.nodes[i].t_ns, audit.nodes[i].t_ns) << "node " << i;
    EXPECT_GE(round.nodes[i].t_ns, 0) << "node " << i;
  }
}

TEST(ObsBothBuilds, LegacyAuditLogsWithoutTimestampsParseAsZero) {
  const Model m = staircase_model();
  nd::milp::AuditLog audit;
  nd::milp::MipOptions opt;
  opt.audit = &audit;
  ASSERT_EQ(nd::milp::solve(m, opt).status, nd::milp::MipStatus::kOptimal);

  // Strip every "t_ns" field from the serialized log — exactly what a log
  // written before the field existed looks like.
  std::string text = nd::milp::audit_to_json(audit).dump(2);
  text = std::regex_replace(text, std::regex(",\\s*\"t_ns\":\\s*[-0-9.eE+]+"), "");
  ASSERT_EQ(text.find("t_ns"), std::string::npos);
  const auto legacy = nd::milp::audit_from_json(nd::json::parse(text));
  ASSERT_EQ(legacy.nodes.size(), audit.nodes.size());
  for (const auto& n : legacy.nodes) EXPECT_EQ(n.t_ns, 0);
}

}  // namespace
