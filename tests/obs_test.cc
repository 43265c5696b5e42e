// Unit coverage for the observability layer (src/obs): lock-free sharded
// recording, fixed-point merges, deterministic exports, events, the CLI
// flag plumbing, and the structured-log sink.

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "obs/exporter.h"
#include "obs/metrics.h"

namespace icrowd {
namespace obs {
namespace {

// ---------------------------------------------------------- Fixed point --

TEST(FixedPointTest, RoundTripsTypicalValues) {
  for (double v : {0.0, 1.0, -1.0, 0.5, 0.125, 3.25, 1e6}) {
    EXPECT_DOUBLE_EQ(FromFixedPoint(ToFixedPoint(v)), v) << v;
  }
}

TEST(FixedPointTest, SumsAreOrderIndependent) {
  // The property the whole export determinism story rests on: integer adds
  // commute exactly, double adds do not.
  std::vector<double> values = {0.1, 0.2, 0.3, 0.7, 1e-9, 123.456};
  int64_t forward = 0;
  int64_t backward = 0;
  for (double v : values) forward += ToFixedPoint(v);
  for (auto it = values.rbegin(); it != values.rend(); ++it) {
    backward += ToFixedPoint(*it);
  }
  EXPECT_EQ(forward, backward);
}

// -------------------------------------------------------------- Counter --

TEST(CounterTest, DefaultHandleIsInert) {
  Counter c;
  c.Increment();  // must not crash
  EXPECT_EQ(c.Value(), 0u);
}

TEST(CounterTest, IncrementAndValue) {
  MetricsRegistry registry;
  Counter c = registry.GetCounter("test.counter");
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.Value(), 42u);
  EXPECT_EQ(registry.CounterValue("test.counter"), 42u);
  EXPECT_EQ(registry.CounterValue("test.unknown"), 0u);
}

TEST(CounterTest, RegistrationIsIdempotent) {
  MetricsRegistry registry;
  Counter a = registry.GetCounter("test.counter");
  Counter b = registry.GetCounter("test.counter");
  a.Increment();
  b.Increment();
  EXPECT_EQ(registry.CounterValue("test.counter"), 2u);
}

TEST(CounterTest, KindMismatchYieldsInertHandle) {
  MetricsRegistry registry;
  registry.GetCounter("test.metric");
  Gauge g = registry.GetGauge("test.metric");
  g.Set(5.0);  // inert: must not corrupt the counter
  EXPECT_EQ(registry.CounterValue("test.metric"), 0u);
}

TEST(CounterTest, MergesAcrossPoolThreads) {
  MetricsRegistry registry;
  Counter c = registry.GetCounter("test.parallel");
  ThreadPool pool(4);
  pool.ParallelFor(1000, [&](size_t) { c.Increment(); });
  EXPECT_EQ(c.Value(), 1000u);
}

TEST(CounterTest, MergesAcrossOneShotThreads) {
  // The static ParallelFor spawns fresh threads each call; their shards
  // must be released and reused, not leaked, and every increment counted.
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.ResetForTesting();
  Counter c = registry.GetCounter("test.oneshot");
  for (int round = 0; round < 4; ++round) {
    ThreadPool::ParallelFor(100, 4, [&](size_t) { c.Increment(); });
  }
  EXPECT_EQ(c.Value(), 400u);
  registry.ResetForTesting();
}

TEST(CounterTest, DisabledRegistryDropsRecordings) {
  MetricsRegistry registry;
  Counter c = registry.GetCounter("test.counter");
  registry.SetEnabled(false);
  c.Increment(10);
  EXPECT_EQ(c.Value(), 0u);
  registry.SetEnabled(true);
  c.Increment();
  EXPECT_EQ(c.Value(), 1u);
}

// ---------------------------------------------------------------- Gauge --

TEST(GaugeTest, SetAddValue) {
  MetricsRegistry registry;
  Gauge g = registry.GetGauge("test.gauge");
  EXPECT_DOUBLE_EQ(g.Value(), 0.0);
  g.Set(2.5);
  EXPECT_DOUBLE_EQ(g.Value(), 2.5);
  g.Add(0.25);
  EXPECT_DOUBLE_EQ(g.Value(), 2.75);
  g.Set(-1.0);
  EXPECT_DOUBLE_EQ(registry.GaugeValue("test.gauge"), -1.0);
}

// ------------------------------------------------------------ Histogram --

TEST(HistogramTest, BucketUpperBoundsAreInclusive) {
  MetricsRegistry registry;
  Histogram h = registry.GetHistogram("test.hist", {1.0, 2.0, 5.0});
  h.Observe(1.0);   // == bound 1 -> bucket 0
  h.Observe(1.5);   // bucket 1
  h.Observe(2.0);   // == bound 2 -> bucket 1
  h.Observe(5.0);   // == bound 5 -> bucket 2
  h.Observe(5.01);  // overflow
  HistogramSnapshot snap = registry.HistogramValue("test.hist");
  ASSERT_EQ(snap.bounds, (std::vector<double>{1.0, 2.0, 5.0}));
  ASSERT_EQ(snap.buckets.size(), 4u);
  EXPECT_EQ(snap.buckets[0], 1u);
  EXPECT_EQ(snap.buckets[1], 2u);
  EXPECT_EQ(snap.buckets[2], 1u);
  EXPECT_EQ(snap.buckets[3], 1u);
  EXPECT_EQ(snap.count, 5u);
  EXPECT_DOUBLE_EQ(snap.sum, 1.0 + 1.5 + 2.0 + 5.0 + 5.01);
}

TEST(HistogramTest, BoundsAreSortedAndDeduped) {
  MetricsRegistry registry;
  Histogram h = registry.GetHistogram("test.hist", {5.0, 1.0, 5.0, 2.0});
  h.Observe(1.5);
  HistogramSnapshot snap = registry.HistogramValue("test.hist");
  EXPECT_EQ(snap.bounds, (std::vector<double>{1.0, 2.0, 5.0}));
  EXPECT_EQ(snap.buckets[1], 1u);
}

TEST(HistogramTest, MergesAcrossShards) {
  MetricsRegistry registry;
  Histogram h = registry.GetHistogram("test.hist", {10.0, 100.0});
  ThreadPool pool(4);
  pool.ParallelFor(300, [&](size_t i) {
    h.Observe(static_cast<double>(i % 3) * 60.0);  // 0, 60, 120
  });
  HistogramSnapshot snap = registry.HistogramValue("test.hist");
  EXPECT_EQ(snap.count, 300u);
  EXPECT_EQ(snap.buckets[0], 100u);  // the 0.0 observations
  EXPECT_EQ(snap.buckets[1], 100u);  // 60.0
  EXPECT_EQ(snap.buckets[2], 100u);  // 120.0 overflow
  EXPECT_DOUBLE_EQ(snap.sum, 100 * 60.0 + 100 * 120.0);
}

TEST(HistogramTest, BucketGenerators) {
  EXPECT_EQ(ExponentialBuckets(1, 2, 4), (std::vector<double>{1, 2, 4, 8}));
  EXPECT_EQ(LinearBuckets(0, 5, 3), (std::vector<double>{0, 5, 10}));
}

// --------------------------------------------------------------- Events --

TEST(EventTest, RecordedInEmissionOrder) {
  MetricsRegistry registry;
  registry.RecordEvent("round", {{"accuracy", 0.5}, {"budget", 1.0}});
  registry.RecordEvent("round", {{"accuracy", 0.75}, {"budget", 2.0}});
  std::vector<TrajectoryEvent> events = registry.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].type, "round");
  EXPECT_DOUBLE_EQ(events[0].fields[0].second, 0.5);
  EXPECT_DOUBLE_EQ(events[1].fields[1].second, 2.0);
}

// --------------------------------------------------------------- Export --

TEST(ExportTest, DeterministicDumpFiltersAndSorts) {
  MetricsRegistry registry;
  Counter det = registry.GetCounter("b.det", {true, "deterministic"});
  Counter nondet = registry.GetCounter("a.nondet", {false, "timing"});
  Gauge g = registry.GetGauge("c.gauge", {true, ""});
  det.Increment(3);
  nondet.Increment(5);
  g.Set(1.5);

  std::string dump = registry.ExportJsonlString({/*deterministic=*/true});
  EXPECT_NE(dump.find("\"b.det\""), std::string::npos);
  EXPECT_NE(dump.find("\"c.gauge\""), std::string::npos);
  EXPECT_EQ(dump.find("a.nondet"), std::string::npos)
      << "non-deterministic metric leaked into a deterministic dump";

  std::string full = registry.ExportJsonlString({/*deterministic=*/false});
  EXPECT_NE(full.find("a.nondet"), std::string::npos);
  // Name-sorted: a.nondet before b.det.
  EXPECT_LT(full.find("a.nondet"), full.find("b.det"));
}

TEST(ExportTest, IdenticalWorkloadsExportIdenticalDumps) {
  // The acceptance criterion in miniature: the same logical observations,
  // recorded serially vs sharded across four threads, must export to the
  // exact same bytes in deterministic mode.
  auto record = [](MetricsRegistry& registry, bool parallel) {
    Counter c = registry.GetCounter("icrowd.test.counter", {true, ""});
    Histogram h = registry.GetHistogram("icrowd.test.hist", {1.0, 10.0},
                                        {true, ""});
    auto body = [&](size_t i) {
      c.Increment();
      h.Observe(0.1 * static_cast<double>(i % 50));
    };
    if (parallel) {
      ThreadPool pool(4);
      pool.ParallelFor(500, body);
    } else {
      for (size_t i = 0; i < 500; ++i) body(i);
    }
    registry.RecordEvent("tick", {{"value", 0.25}});
  };
  MetricsRegistry serial;
  MetricsRegistry sharded;
  record(serial, false);
  record(sharded, true);
  EXPECT_EQ(serial.ExportJsonlString({/*deterministic=*/true}),
            sharded.ExportJsonlString({/*deterministic=*/true}));
}

TEST(ExportTest, JsonlShapeAndEscaping) {
  MetricsRegistry registry;
  registry.GetCounter("test.counter", {true, ""}).Increment(7);
  registry.RecordEvent("needs \"escaping\"\n", {{"x", 1.0}});
  std::ostringstream out;
  registry.ExportJsonl(out, {/*deterministic=*/true});
  std::string dump = out.str();
  EXPECT_NE(dump.find("{\"kind\":\"counter\",\"name\":\"test.counter\","
                      "\"type\":\"metric\",\"value\":7}"),
            std::string::npos)
      << dump;
  EXPECT_NE(dump.find("\\\"escaping\\\"\\n"), std::string::npos) << dump;
  // Every line is an object.
  std::istringstream lines(dump);
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
}

TEST(ExportTest, ResetClearsValuesButKeepsRegistrations) {
  MetricsRegistry registry;
  Counter c = registry.GetCounter("test.counter");
  Gauge g = registry.GetGauge("test.gauge");
  c.Increment(5);
  g.Set(5.0);
  registry.RecordEvent("e", {});
  registry.ResetForTesting();
  EXPECT_EQ(c.Value(), 0u);
  EXPECT_DOUBLE_EQ(g.Value(), 0.0);
  EXPECT_TRUE(registry.Events().empty());
  c.Increment();  // handles stay live
  EXPECT_EQ(c.Value(), 1u);
}

// ------------------------------------------------------------ CLI flags --

TEST(ExporterTest, ConsumeMetricsFlagsStripsKnownFlags) {
  const char* raw[] = {"prog", "--metrics-out=/tmp/m.jsonl", "--keep",
                       "--deterministic", "positional"};
  std::vector<char*> argv;
  for (const char* a : raw) argv.push_back(const_cast<char*>(a));
  int argc = static_cast<int>(argv.size());
  MetricsCliOptions options = ConsumeMetricsFlags(&argc, argv.data());
  EXPECT_EQ(options.out_path, "/tmp/m.jsonl");
  EXPECT_TRUE(options.deterministic);
  ASSERT_EQ(argc, 3);
  EXPECT_STREQ(argv[0], "prog");
  EXPECT_STREQ(argv[1], "--keep");
  EXPECT_STREQ(argv[2], "positional");
}

TEST(ExporterTest, NoFlagsIsANoOp) {
  const char* raw[] = {"prog", "--foo"};
  std::vector<char*> argv;
  for (const char* a : raw) argv.push_back(const_cast<char*>(a));
  int argc = static_cast<int>(argv.size());
  MetricsCliOptions options = ConsumeMetricsFlags(&argc, argv.data());
  EXPECT_TRUE(options.out_path.empty());
  EXPECT_FALSE(options.deterministic);
  EXPECT_EQ(argc, 2);
}

// ---------------------------------------------------------- Log capture --

TEST(LoggingTest, CaptureSinkReceivesStructuredRecords) {
  CaptureLogs capture;
  ICROWD_LOG(Warning) << "campaign " << 7 << " stalled";
  std::vector<LogRecord> records = capture.records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].level, LogLevel::kWarning);
  EXPECT_EQ(records[0].message, "campaign 7 stalled");
  EXPECT_GE(records[0].uptime_seconds, 0.0);
  EXPECT_GT(records[0].wall_unix_seconds, 0);
  EXPECT_TRUE(capture.Contains("stalled"));
  EXPECT_FALSE(capture.Contains("absent"));
}

TEST(LoggingTest, FormatIncludesLevelAndThread) {
  LogRecord record;
  record.level = LogLevel::kError;
  record.uptime_seconds = 1.25;
  record.thread = 3;
  record.message = "boom";
  std::string line = FormatLogRecord(record);
  EXPECT_NE(line.find("ERROR"), std::string::npos);
  EXPECT_NE(line.find("T3"), std::string::npos);
  EXPECT_NE(line.find("boom"), std::string::npos);
}

TEST(LoggingTest, SuppressedStatementNeverFormats) {
  // The lazy-logging contract: below the threshold the operand expressions
  // must not even be evaluated.
  LogLevel previous = GetLogLevel();
  SetLogLevel(LogLevel::kWarning);
  CaptureLogs capture;
  int evaluations = 0;
  auto expensive = [&] {
    ++evaluations;
    return "formatted";
  };
  ICROWD_LOG(Debug) << expensive();
  ICROWD_LOG(Info) << expensive();
  EXPECT_EQ(evaluations, 0);
  ICROWD_LOG(Warning) << expensive();
  EXPECT_EQ(evaluations, 1);
  EXPECT_EQ(capture.records().size(), 1u);
  SetLogLevel(previous);
}

TEST(LoggingTest, BareStatementCompilesAndEmits) {
  CaptureLogs capture;
  ICROWD_LOG(Error);
  EXPECT_EQ(capture.records().size(), 1u);
}

// ------------------------------------------------- Histogram percentiles --

HistogramSnapshot MakeSnapshot(std::vector<double> bounds,
                               std::vector<uint64_t> buckets, double sum) {
  HistogramSnapshot snapshot;
  snapshot.bounds = std::move(bounds);
  snapshot.buckets = std::move(buckets);
  for (uint64_t b : snapshot.buckets) snapshot.count += b;
  snapshot.sum = sum;
  return snapshot;
}

TEST(HistogramSnapshotTest, SumCountMean) {
  HistogramSnapshot snapshot = MakeSnapshot({1, 5}, {2, 1, 1}, 14.0);
  EXPECT_EQ(snapshot.Count(), 4u);
  EXPECT_DOUBLE_EQ(snapshot.Sum(), 14.0);
  EXPECT_DOUBLE_EQ(snapshot.Mean(), 3.5);
}

TEST(HistogramSnapshotTest, EmptyHistogramIsAllZero) {
  HistogramSnapshot empty;
  EXPECT_EQ(empty.Count(), 0u);
  EXPECT_DOUBLE_EQ(empty.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(empty.Percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(empty.Percentile(99), 0.0);
}

TEST(HistogramSnapshotTest, PercentileInterpolatesInsideBucket) {
  // 10 observations: 2 in (0,1], 6 in (1,5], 1 in (5,25], 1 overflow.
  HistogramSnapshot snapshot = MakeSnapshot({1, 5, 25}, {2, 6, 1, 1}, 61.5);
  // p50: target 5 falls in the (1,5] bucket at fraction (5-2)/6 = 0.5.
  EXPECT_DOUBLE_EQ(snapshot.Percentile(50), 3.0);
  // p20: target 2 exactly exhausts the first bucket -> its upper bound.
  EXPECT_DOUBLE_EQ(snapshot.Percentile(20), 1.0);
  // p10: halfway into the first bucket, whose lower edge is 0.
  EXPECT_DOUBLE_EQ(snapshot.Percentile(10), 0.5);
}

TEST(HistogramSnapshotTest, PercentileAtExactBucketBoundary) {
  HistogramSnapshot snapshot = MakeSnapshot({10, 20}, {5, 5, 0}, 0.0);
  // Cumulative hits 5/10 exactly at the first bound.
  EXPECT_DOUBLE_EQ(snapshot.Percentile(50), 10.0);
  EXPECT_DOUBLE_EQ(snapshot.Percentile(100), 20.0);
  EXPECT_DOUBLE_EQ(snapshot.Percentile(0), 0.0);
}

TEST(HistogramSnapshotTest, OverflowMassClampsToLargestBound) {
  HistogramSnapshot snapshot = MakeSnapshot({1, 5, 25}, {2, 6, 1, 1}, 61.5);
  EXPECT_DOUBLE_EQ(snapshot.Percentile(95), 25.0);
  EXPECT_DOUBLE_EQ(snapshot.Percentile(99), 25.0);
}

TEST(HistogramSnapshotTest, QuantileIsClampedTo0To100) {
  HistogramSnapshot snapshot = MakeSnapshot({10}, {4, 0}, 20.0);
  EXPECT_DOUBLE_EQ(snapshot.Percentile(-5), snapshot.Percentile(0));
  EXPECT_DOUBLE_EQ(snapshot.Percentile(250), snapshot.Percentile(100));
}

TEST(HistogramSnapshotTest, AllMassInOverflowFallsBackToLargestBound) {
  HistogramSnapshot snapshot = MakeSnapshot({10}, {0, 3}, 90.0);
  EXPECT_DOUBLE_EQ(snapshot.Percentile(50), 10.0);
}

TEST(HistogramSnapshotTest, NoFiniteBucketsFallsBackToMean) {
  HistogramSnapshot snapshot = MakeSnapshot({}, {3}, 90.0);
  EXPECT_DOUBLE_EQ(snapshot.Percentile(50), 30.0);
}

TEST(HistogramSnapshotTest, PercentileMatchesRegistrySnapshot) {
  // End to end: values observed through the registry produce the same
  // percentiles as a hand-built snapshot.
  MetricsRegistry registry;
  Histogram h = registry.GetHistogram("test.latency", {1.0, 5.0, 25.0});
  for (double v : {0.5, 0.9, 2.0, 2.0, 3.0, 4.0, 4.5, 5.0, 20.0, 100.0}) {
    h.Observe(v);
  }
  HistogramSnapshot snapshot = registry.HistogramValue("test.latency");
  EXPECT_EQ(snapshot.Count(), 10u);
  EXPECT_DOUBLE_EQ(snapshot.Percentile(50), 3.0);
  EXPECT_DOUBLE_EQ(snapshot.Percentile(95), 25.0);
}

}  // namespace
}  // namespace obs
}  // namespace icrowd
