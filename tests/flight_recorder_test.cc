// Flight-recorder suite (DESIGN.md §14): recording/snapshot basics on a
// deterministic time source, ring wraparound (newest records survive, in
// order), multi-thread dump ordering, the disabled kill switch, JSONL
// rendering, the global recorder's log/span capture hooks, span depth and
// duration folded from the ring — plus the
// statusz golden fixtures: RenderStatusz over pinned state must be
// byte-identical to the committed fixture and across repeated renders —
// and the on-disk introspection dump (flight JSONL + statusz text).
//
// Regenerating the fixtures after a deliberate format change:
//   ICROWD_REGEN_STATUSZ_FIXTURES=1 ./flight_recorder_test
// (optionally with --gtest_filter='StatuszTest.*')
// rewrites tests/testdata/statusz_fixture.{txt,json} in the source tree.

#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "common/logging.h"
#include "core/clock.h"
#include "obs/flight_recorder.h"
#include "obs/heartbeat.h"
#include "obs/metrics.h"
#include "obs/statusz.h"

namespace icrowd {
namespace {

using obs::FlightEventKind;
using obs::FlightEventView;
using obs::FlightRecorder;

/// Deterministic time source: strictly increasing, 1µs per record, shared
/// by every thread (the atomic makes cross-thread timestamps unique, so a
/// merged dump has exactly one legal order).
std::atomic<int64_t> g_fake_ns{0};
int64_t FakeNow() { return g_fake_ns.fetch_add(1000) + 1000; }

struct FakeTimeScope {
  explicit FakeTimeScope(FlightRecorder* recorder) : recorder_(recorder) {
    g_fake_ns.store(0);
    recorder_->SetTimeSourceForTesting(&FakeNow);
  }
  ~FakeTimeScope() { recorder_->SetTimeSourceForTesting(nullptr); }
  FlightRecorder* recorder_;
};

TEST(FlightRecorderTest, RecordsAndSnapshotsInOrder) {
  FlightRecorder recorder(/*capacity_per_thread=*/16);
  FakeTimeScope fake(&recorder);

  recorder.Record(FlightEventKind::kMark, "alpha", 1, 2);
  recorder.Record(FlightEventKind::kIngest, "beta", 3, 4);
  recorder.RecordDetail(FlightEventKind::kLog, "INFO", "hello ring", 2);

  EXPECT_EQ(recorder.events_recorded(), 3u);
  std::vector<FlightEventView> views = recorder.Snapshot();
  ASSERT_EQ(views.size(), 3u);
  EXPECT_EQ(views[0].t_ns, 1000);
  EXPECT_EQ(views[0].seq, 0u);
  EXPECT_EQ(views[0].kind, FlightEventKind::kMark);
  EXPECT_STREQ(views[0].tag, "alpha");
  EXPECT_EQ(views[0].a0, 1);
  EXPECT_EQ(views[0].a1, 2);
  EXPECT_EQ(views[1].t_ns, 2000);
  EXPECT_EQ(views[1].kind, FlightEventKind::kIngest);
  EXPECT_EQ(views[2].kind, FlightEventKind::kLog);
  EXPECT_EQ(views[2].detail, "hello ring");
  EXPECT_EQ(views[2].a0, 2);
}

TEST(FlightRecorderTest, DetailIsTruncatedToBudget) {
  FlightRecorder recorder(8);
  FakeTimeScope fake(&recorder);
  const std::string longer(200, 'x');
  recorder.RecordDetail(FlightEventKind::kLog, "INFO", longer);
  std::vector<FlightEventView> views = recorder.Snapshot();
  ASSERT_EQ(views.size(), 1u);
  EXPECT_EQ(views[0].detail.size(), FlightRecorder::kDetailBytes);
  EXPECT_EQ(views[0].detail,
            longer.substr(0, FlightRecorder::kDetailBytes));
}

TEST(FlightRecorderTest, WraparoundKeepsNewestInOrder) {
  FlightRecorder recorder(/*capacity_per_thread=*/8);
  FakeTimeScope fake(&recorder);
  for (int64_t i = 0; i < 20; ++i) {
    recorder.Record(FlightEventKind::kMark, "wrap", i);
  }
  EXPECT_EQ(recorder.events_recorded(), 20u);
  std::vector<FlightEventView> views = recorder.Snapshot();
  ASSERT_EQ(views.size(), 8u);  // ring capacity, oldest 12 overwritten
  for (size_t i = 0; i < views.size(); ++i) {
    EXPECT_EQ(views[i].seq, 12 + i);
    EXPECT_EQ(views[i].a0, static_cast<int64_t>(12 + i));
  }
}

TEST(FlightRecorderTest, SnapshotMaxEventsKeepsTail) {
  FlightRecorder recorder(16);
  FakeTimeScope fake(&recorder);
  for (int64_t i = 0; i < 10; ++i) {
    recorder.Record(FlightEventKind::kMark, "tail", i);
  }
  std::vector<FlightEventView> views = recorder.Snapshot(/*max_events=*/3);
  ASSERT_EQ(views.size(), 3u);
  EXPECT_EQ(views[0].a0, 7);
  EXPECT_EQ(views[2].a0, 9);
}

TEST(FlightRecorderTest, MultiThreadDumpMergesInTimeOrder) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 100;
  static const char* kTags[kThreads] = {"t0", "t1", "t2", "t3"};

  FlightRecorder recorder;  // default capacity holds every record
  FakeTimeScope fake(&recorder);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, t] {
      for (int64_t i = 0; i < kPerThread; ++i) {
        recorder.Record(FlightEventKind::kMark, kTags[t], i);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  std::vector<FlightEventView> views = recorder.Snapshot();
  ASSERT_EQ(views.size(), static_cast<size_t>(kThreads * kPerThread));
  // Global order: unique fake timestamps must come back sorted...
  for (size_t i = 1; i < views.size(); ++i) {
    EXPECT_LT(views[i - 1].t_ns, views[i].t_ns);
  }
  // ... and within each recording thread, seq (= that thread's record
  // index) must increase with time: per-thread program order survives the
  // merge.
  std::vector<uint64_t> last_seq_by_thread;
  for (const FlightEventView& view : views) {
    if (view.thread >= last_seq_by_thread.size()) {
      last_seq_by_thread.resize(view.thread + 1, 0);
    }
    uint64_t& last = last_seq_by_thread[view.thread];
    if (view.seq > 0) {
      EXPECT_EQ(view.seq, last + 1);
    }
    last = view.seq;
  }
}

TEST(FlightRecorderTest, DisabledRecordsNothing) {
  FlightRecorder recorder(8);
  recorder.SetEnabled(false);
  recorder.Record(FlightEventKind::kMark, "ignored");
  recorder.RecordDetail(FlightEventKind::kLog, "INFO", "ignored");
  EXPECT_EQ(recorder.events_recorded(), 0u);
  EXPECT_TRUE(recorder.Snapshot().empty());
  recorder.SetEnabled(true);
  recorder.Record(FlightEventKind::kMark, "kept");
  EXPECT_EQ(recorder.events_recorded(), 1u);
}

TEST(FlightRecorderTest, JsonDumpIsOneObjectPerLineAndEscaped) {
  FlightRecorder recorder(8);
  FakeTimeScope fake(&recorder);
  recorder.Record(FlightEventKind::kMark, "plain", 7, 8);
  recorder.RecordDetail(FlightEventKind::kLog, "WARN", "say \"hi\"\nnow");

  FlightRecorder::DumpOptions options;
  options.json = true;
  std::string dump = recorder.Dump(options);
  std::istringstream lines(dump);
  std::string line;
  size_t count = 0;
  while (std::getline(lines, line)) {
    ++count;
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
  EXPECT_EQ(count, 2u);
  EXPECT_NE(dump.find("\"tag\":\"plain\""), std::string::npos);
  EXPECT_NE(dump.find("\"a0\":7,\"a1\":8"), std::string::npos);
  // Quotes and the newline in the detail must arrive escaped.
  EXPECT_NE(dump.find("say \\\"hi\\\"\\nnow"), std::string::npos);
}

TEST(FlightRecorderTest, GlobalRecorderCapturesLogsAndSpans) {
  FlightRecorder& global = FlightRecorder::Global();
  global.ResetForTesting();
  global.SetEnabled(true);

  CaptureLogs quiet;
  ICROWD_LOG(Warning) << "flight recorder log capture probe";
  { ICROWD_TRACE_SCOPE("flight.test.scope"); }

  bool saw_log = false, saw_begin = false, saw_end = false;
  for (const FlightEventView& view : global.Snapshot()) {
    if (view.kind == FlightEventKind::kLog &&
        view.detail.find("log capture probe") != std::string::npos) {
      saw_log = true;
    }
    if (std::string(view.tag) == "flight.test.scope") {
      if (view.kind == FlightEventKind::kSpanBegin) saw_begin = true;
      if (view.kind == FlightEventKind::kSpanEnd) saw_end = true;
    }
  }
  EXPECT_TRUE(saw_log);
  EXPECT_TRUE(saw_begin);
  EXPECT_TRUE(saw_end);
}

// ---------------------------------------------------------------- Spans --
// The flight recorder is the only span sink: a span is the begin/end pair
// ICROWD_TRACE_SCOPE writes into the calling thread's ring, its depth the
// number of spans open around it, its duration end.t_ns - begin.t_ns.

struct FoldedSpan {
  std::string name;
  size_t depth = 0;
  int64_t start_ns = 0;
  int64_t duration_ns = -1;  // -1 until the matching end is seen
};

/// Folds the global ring's begin/end records for tags starting with
/// `prefix` into spans, in the order they were opened.
std::vector<FoldedSpan> FoldSpans(const std::string& prefix) {
  std::vector<FoldedSpan> spans;
  std::vector<size_t> open;
  for (const FlightEventView& view : FlightRecorder::Global().Snapshot()) {
    const std::string tag = view.tag;
    if (tag.compare(0, prefix.size(), prefix) != 0) continue;
    if (view.kind == FlightEventKind::kSpanBegin) {
      open.push_back(spans.size());
      spans.push_back({tag, open.size() - 1, view.t_ns, -1});
    } else if (view.kind == FlightEventKind::kSpanEnd && !open.empty()) {
      FoldedSpan& span = spans[open.back()];
      EXPECT_EQ(span.name, tag) << "span ends out of nesting order";
      span.duration_ns = view.t_ns - span.start_ns;
      open.pop_back();
    }
  }
  EXPECT_TRUE(open.empty()) << "span left open";
  return spans;
}

TEST(SpanTest, NestedScopesRecordDepthAndDuration) {
  FlightRecorder& global = FlightRecorder::Global();
  global.ResetForTesting();
  global.SetEnabled(true);
  // Spans do not depend on the metrics registry: record with it off.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.SetEnabled(false);
  {
    FakeTimeScope fake(&global);  // 1us per record
    ICROWD_TRACE_SCOPE("span.test.outer");
    { ICROWD_TRACE_SCOPE("span.test.inner"); }
  }
  registry.SetEnabled(true);

  std::vector<FoldedSpan> spans = FoldSpans("span.test.");
  ASSERT_EQ(spans.size(), 2u);
  // begin(outer) < begin(inner) < end(inner) < end(outer).
  EXPECT_EQ(spans[0].name, "span.test.outer");
  EXPECT_EQ(spans[0].depth, 0u);
  EXPECT_EQ(spans[1].name, "span.test.inner");
  EXPECT_EQ(spans[1].depth, 1u);
  EXPECT_GT(spans[1].start_ns, spans[0].start_ns);
  EXPECT_EQ(spans[1].duration_ns, 1000);
  EXPECT_EQ(spans[0].duration_ns, 3000);
  global.ResetForTesting();
}

TEST(SpanTest, TraceScopeMacroRecordsOnGlobal) {
  FlightRecorder& global = FlightRecorder::Global();
  global.ResetForTesting();
  global.SetEnabled(true);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.ResetForTesting();
  { ICROWD_TRACE_SCOPE("span.test.scope"); }

  std::vector<FoldedSpan> spans = FoldSpans("span.test.");
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "span.test.scope");
  EXPECT_EQ(spans[0].depth, 0u);
  EXPECT_GE(spans[0].duration_ns, 0);
  // The ring is the only sink: an enabled registry's full export carries
  // no span lines.
  EXPECT_EQ(registry.ExportJsonlString({}).find("\"type\":\"span\""),
            std::string::npos);
  registry.ResetForTesting();
  global.ResetForTesting();
}

// ------------------------------------------------------- statusz fixtures

/// Pinned world state for the golden renders: every input that statusz
/// reads is fixed (fake registry clock, fake flight time, explicit metric
/// values, pinned uptime), so the bytes must never drift between runs —
/// that is the property CI relies on when diffing dumps.
struct StatuszWorld {
  obs::MetricsRegistry metrics;
  obs::HeartbeatRegistry heartbeats;
  FlightRecorder flight;
  ManualClock clock{40.0};
  obs::Heartbeat* consumer = nullptr;
  obs::Heartbeat* flusher = nullptr;

  StatuszWorld() {
    heartbeats.SetClock(&clock);
    consumer = heartbeats.Register("ingest.consumer");
    consumer->MarkBusy();
    clock.Set(41.0);
    flusher = heartbeats.Register("journal.flush");
    flusher->MarkIdle();
    clock.Set(43.5);

    g_fake_ns.store(0);
    flight.SetTimeSourceForTesting(&FakeNow);
    flight.Record(FlightEventKind::kMark, "campaign.start");
    flight.Record(FlightEventKind::kIngest, "ingest.arrived", 0);
    flight.RecordDetail(FlightEventKind::kLog, "INFO", "pinned log line");

    obs::MetricOptions nd{false, "fixture"};
    metrics.GetCounter("icrowd.ingest.batches", nd).Increment(3);
    metrics.GetCounter("icrowd.ingest.events_applied", nd).Increment(12);
    metrics.GetCounter("icrowd.journal.flushes", nd).Increment(3);
    metrics.GetGauge("icrowd.ingest.queue_depth", nd).Set(5);
    const obs::Histogram wait = metrics.GetHistogram(
        "icrowd.ingest.queue_wait_seconds",
        obs::ExponentialBuckets(1e-6, 4, 12), nd);
    wait.Observe(2e-6);
    wait.Observe(5e-5);
    wait.Observe(5e-5);
    wait.Observe(3e-3);
    metrics
        .GetHistogram("icrowd.ingest.batch_size",
                      obs::ExponentialBuckets(1, 2, 10), nd)
        .Observe(4.0);
    // The rest of the glossary stays unregistered on purpose: statusz must
    // render unknown metrics as zero rows, not drop them.
  }

  ~StatuszWorld() {
    heartbeats.Unregister(consumer);
    heartbeats.Unregister(flusher);
    heartbeats.SetClock(nullptr);
    flight.SetTimeSourceForTesting(nullptr);
  }

  std::string Render(bool json) const {
    obs::StatuszOptions options;
    options.json = json;
    options.uptime_seconds = 123.456789;
    // Pinned identity stamp: the fixture must not churn when the real git
    // sha or API version moves.
    obs::BuildInfo build;
    build.git_sha = "abcdef123456";
    build.build_type = "Fixture";
    build.api_version_major = 9;
    build.api_version_minor = 9;
    build.uptime_seconds = 123.456789;
    options.build = &build;
    return RenderStatusz(metrics, heartbeats, flight, options);
  }
};

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string FixturePath(const char* name) {
  return std::string(ICROWD_TESTDATA_DIR) + "/" + name;
}

std::string ReadFixture(const char* name) {
  return ReadFileOrEmpty(FixturePath(name));
}

bool RegenRequested() {
  const char* regen = std::getenv("ICROWD_REGEN_STATUSZ_FIXTURES");
  return regen != nullptr && regen[0] != '\0';
}

void CompareOrRegen(const std::string& rendered, const char* name) {
  if (RegenRequested()) {
    std::ofstream(FixturePath(name)) << rendered;
    GTEST_SKIP() << "regenerated " << name;
  }
  EXPECT_EQ(rendered, ReadFixture(name))
      << "statusz format drifted from tests/testdata/" << name
      << "; if deliberate, regenerate with ICROWD_REGEN_STATUSZ_FIXTURES=1";
}

TEST(StatuszTest, TextRenderMatchesGoldenFixture) {
  StatuszWorld world;
  CompareOrRegen(world.Render(/*json=*/false), "statusz_fixture.txt");
}

TEST(StatuszTest, JsonRenderMatchesGoldenFixture) {
  StatuszWorld world;
  CompareOrRegen(world.Render(/*json=*/true), "statusz_fixture.json");
}

TEST(StatuszTest, RenderIsByteStableAcrossCalls) {
  StatuszWorld world;
  std::string first = world.Render(false);
  std::string second = world.Render(false);
  EXPECT_EQ(first, second);
  EXPECT_EQ(world.Render(true), world.Render(true));
}

TEST(StatuszTest, GlobalOverloadRendersEverySection) {
  std::string statusz = obs::RenderStatusz();
  EXPECT_NE(statusz.find("=== icrowd statusz ==="), std::string::npos);
  EXPECT_NE(statusz.find("[heartbeats]"), std::string::npos);
  EXPECT_NE(statusz.find("[counters]"), std::string::npos);
  EXPECT_NE(statusz.find("[gauges]"), std::string::npos);
  EXPECT_NE(statusz.find("[latency]"), std::string::npos);
  EXPECT_NE(statusz.find("icrowd.obs.log_records"), std::string::npos);
  EXPECT_NE(statusz.find("icrowd.ingest.queue_wait_seconds"),
            std::string::npos);
}

/// DumpIntrospection is the black box's readout (crash handler, failed
/// test): with $ICROWD_OBS_DUMP_DIR set it writes both the flight dump and
/// the statusz snapshot to disk, named by pid and reason.
TEST(IntrospectionDumpTest, WritesFlightAndStatuszFiles) {
  const std::string dump_dir = testing::TempDir() + "introspection_dump";
  std::filesystem::create_directories(dump_dir);
  const char* prior = std::getenv("ICROWD_OBS_DUMP_DIR");
  const std::string prior_value = prior == nullptr ? "" : prior;
  ASSERT_EQ(0, setenv("ICROWD_OBS_DUMP_DIR", dump_dir.c_str(), 1));

  FlightRecorder::Global().Record(FlightEventKind::kMark, "unit-test.mark");
  obs::DumpIntrospection("unit-test");

  const std::string stem = dump_dir + "/introspection-" +
                           std::to_string(static_cast<long>(getpid())) +
                           "-unit-test";
  const std::string flight = ReadFileOrEmpty(stem + "-flight.jsonl");
  const std::string statusz = ReadFileOrEmpty(stem + "-statusz.txt");
  // The flight dump is JSONL and carries the mark recorded just above;
  // statusz renders the full glossary.
  EXPECT_NE(flight.find("\"tag\":\"unit-test.mark\""), std::string::npos)
      << flight;
  EXPECT_NE(statusz.find("=== icrowd statusz ==="), std::string::npos);
  EXPECT_NE(statusz.find("icrowd.obs.log_records"), std::string::npos);
  EXPECT_NE(statusz.find("[latency]"), std::string::npos);

  if (prior == nullptr) {
    unsetenv("ICROWD_OBS_DUMP_DIR");
  } else {
    setenv("ICROWD_OBS_DUMP_DIR", prior_value.c_str(), 1);
  }
}

}  // namespace
}  // namespace icrowd
