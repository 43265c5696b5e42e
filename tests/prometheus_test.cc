// Prometheus exposition + series-history suite (DESIGN.md §15): name
// sanitization edge cases, golden-fixture rendering of counters, gauges
// and cumulative histograms from a pinned private registry, a round-trip
// through a minimal exposition parser, and ManualClock-driven
// MetricsHistory window/rate derivation including counter resets and
// ring-buffer wraparound.
//
// Regenerating the fixture after a deliberate format change:
//   ICROWD_REGEN_PROMETHEUS_FIXTURES=1 ./prometheus_test
// rewrites tests/testdata/prometheus_fixture.txt in the source tree.

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "obs/http/prometheus.h"
#include "obs/http/series.h"
#include "obs/metrics.h"

namespace icrowd {
namespace {

using obs::MetricSample;
using obs::MetricsHistory;
using obs::MetricsRegistry;
using obs::PrometheusOptions;
using obs::RenderPrometheus;
using obs::SanitizePrometheusName;

// --------------------------------------------------------- sanitization

TEST(SanitizeTest, DotsBecomeUnderscores) {
  EXPECT_EQ(SanitizePrometheusName("icrowd.ingest.batches"),
            "icrowd_ingest_batches");
}

TEST(SanitizeTest, LegalNamesPassThrough) {
  EXPECT_EQ(SanitizePrometheusName("already_legal_name"),
            "already_legal_name");
  EXPECT_EQ(SanitizePrometheusName("ns:subsystem:total"),
            "ns:subsystem:total");
  EXPECT_EQ(SanitizePrometheusName("_leading_underscore"),
            "_leading_underscore");
}

TEST(SanitizeTest, LeadingDigitGetsPrefixed) {
  EXPECT_EQ(SanitizePrometheusName("99th_percentile"), "_99th_percentile");
}

TEST(SanitizeTest, InvalidCharactersBecomeUnderscores) {
  EXPECT_EQ(SanitizePrometheusName("rate (per second)"),
            "rate__per_second_");
  // Dash is illegal in Prometheus names.
  EXPECT_EQ(SanitizePrometheusName("a-b"), "a_b");
}

TEST(SanitizeTest, EmptyBecomesUnderscore) {
  EXPECT_EQ(SanitizePrometheusName(""), "_");
}

// ------------------------------------------------------- golden fixture

/// Pinned registry: explicit values, deterministic registration order,
/// no wall-clock inputs — the exposition bytes must never drift.
struct PrometheusWorld {
  MetricsRegistry metrics;

  PrometheusWorld() {
    obs::MetricOptions nd{false, "fixture"};
    metrics.GetCounter("icrowd.ingest.batches", nd).Increment(3);
    metrics
        .GetCounter("icrowd.ingest.events_applied",
                    {false, "events applied by the consumer"})
        .Increment(12);
    // No help text: the renderer must omit the # HELP line.
    metrics.GetCounter("icrowd.core.arrivals", {true, ""}).Increment(7);
    metrics.GetGauge("icrowd.ingest.queue_depth", nd).Set(5.25);
    const obs::Histogram wait = metrics.GetHistogram(
        "icrowd.ingest.queue_wait_seconds",
        obs::ExponentialBuckets(1e-6, 4, 4), nd);
    wait.Observe(2e-6);
    wait.Observe(5e-5);
    wait.Observe(5e-5);
    wait.Observe(3e-3);
  }

  std::string Render(const std::string& campaign = "") const {
    PrometheusOptions options;
    options.campaign_label = campaign;
    return RenderPrometheus(metrics, options);
  }
};

std::string FixturePath(const char* name) {
  return std::string(ICROWD_TESTDATA_DIR) + "/" + name;
}

std::string ReadFixture(const char* name) {
  std::ifstream in(FixturePath(name));
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

bool RegenRequested() {
  const char* regen = std::getenv("ICROWD_REGEN_PROMETHEUS_FIXTURES");
  return regen != nullptr && regen[0] != '\0';
}

TEST(PrometheusRenderTest, MatchesGoldenFixture) {
  PrometheusWorld world;
  std::string rendered = world.Render("itemcompare");
  if (RegenRequested()) {
    std::ofstream(FixturePath("prometheus_fixture.txt")) << rendered;
    GTEST_SKIP() << "regenerated prometheus_fixture.txt";
  }
  EXPECT_EQ(rendered, ReadFixture("prometheus_fixture.txt"))
      << "exposition format drifted from tests/testdata/"
      << "prometheus_fixture.txt; if deliberate, regenerate with "
      << "ICROWD_REGEN_PROMETHEUS_FIXTURES=1";
}

TEST(PrometheusRenderTest, RenderIsByteStableAcrossCalls) {
  PrometheusWorld world;
  EXPECT_EQ(world.Render(), world.Render());
  EXPECT_EQ(world.Render("x"), world.Render("x"));
}

TEST(PrometheusRenderTest, CounterRendersAsInteger) {
  PrometheusWorld world;
  std::string text = world.Render();
  EXPECT_NE(text.find("# TYPE icrowd_core_arrivals counter\n"
                      "icrowd_core_arrivals 7\n"),
            std::string::npos);
  // No registered help => no HELP line for this metric.
  EXPECT_EQ(text.find("# HELP icrowd_core_arrivals"), std::string::npos);
}

TEST(PrometheusRenderTest, GaugeRendersExactDecimal) {
  PrometheusWorld world;
  std::string text = world.Render();
  EXPECT_NE(text.find("# TYPE icrowd_ingest_queue_depth gauge\n"
                      "icrowd_ingest_queue_depth 5.25\n"),
            std::string::npos);
}

TEST(PrometheusRenderTest, HistogramIsCumulativeAndEndsAtInf) {
  PrometheusWorld world;
  std::string text = world.Render();
  // 4 bounds from ExponentialBuckets(1e-6, 4, 4): 1e-6, 4e-6, 1.6e-5,
  // 6.4e-5. Observations 2e-6, 5e-5 x2, 3e-3 -> cumulative 0,1,1,3 and
  // +Inf = 4.
  EXPECT_NE(
      text.find(
          "icrowd_ingest_queue_wait_seconds_bucket{le=\"1e-06\"} 0\n"),
      std::string::npos);
  EXPECT_NE(
      text.find(
          "icrowd_ingest_queue_wait_seconds_bucket{le=\"4e-06\"} 1\n"),
      std::string::npos);
  EXPECT_NE(
      text.find(
          "icrowd_ingest_queue_wait_seconds_bucket{le=\"+Inf\"} 4\n"),
      std::string::npos);
  EXPECT_NE(text.find("icrowd_ingest_queue_wait_seconds_count 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("icrowd_ingest_queue_wait_seconds_sum"),
            std::string::npos);
}

TEST(PrometheusRenderTest, CampaignLabelOnEverySample) {
  PrometheusWorld world;
  std::string text = world.Render("poi");
  std::istringstream lines(text);
  std::string line;
  int samples = 0;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    ++samples;
    EXPECT_NE(line.find("campaign=\"poi\""), std::string::npos) << line;
  }
  EXPECT_GT(samples, 5);
}

TEST(PrometheusRenderTest, LabelValuesAreEscaped) {
  PrometheusWorld world;
  std::string text = world.Render("a\"b\\c\nd");
  EXPECT_NE(text.find("campaign=\"a\\\"b\\\\c\\nd\""), std::string::npos);
}

TEST(PrometheusRenderTest, SanitizedNameCollisionDropsLater) {
  // Two internal names that sanitize to the same exposition name: the
  // renderer must keep the first and drop the second — a duplicate TYPE
  // block would invalidate the whole document.
  std::vector<MetricSample> samples;
  MetricSample a;
  a.name = "icrowd.x.y";
  a.kind = obs::MetricKind::kCounter;
  a.counter = 1;
  MetricSample b;
  b.name = "icrowd.x_y";
  b.kind = obs::MetricKind::kCounter;
  b.counter = 2;
  samples.push_back(a);
  samples.push_back(b);
  std::string text = RenderPrometheus(samples);
  EXPECT_NE(text.find("icrowd_x_y 1\n"), std::string::npos);
  EXPECT_EQ(text.find("icrowd_x_y 2\n"), std::string::npos);
}

// -------------------------------------------------- parser round-trip

/// Minimal exposition parser: name{labels} -> value for every sample
/// line. Enough to prove the renderer's output survives a scrape.
std::map<std::string, std::string> ParseSamples(const std::string& text) {
  std::map<std::string, std::string> samples;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    size_t space = line.rfind(' ');
    if (space == std::string::npos) {
      ADD_FAILURE() << "sample line without a value: " << line;
      continue;
    }
    samples[line.substr(0, space)] = line.substr(space + 1);
  }
  return samples;
}

TEST(PrometheusRenderTest, ParserRoundTripRecoversValues) {
  PrometheusWorld world;
  std::map<std::string, std::string> samples;
  {
    SCOPED_TRACE("parse");
    samples = ParseSamples(world.Render());
  }
  EXPECT_EQ(samples["icrowd_core_arrivals"], "7");
  EXPECT_EQ(samples["icrowd_ingest_batches"], "3");
  EXPECT_EQ(samples["icrowd_ingest_queue_depth"], "5.25");
  EXPECT_EQ(samples["icrowd_ingest_queue_wait_seconds_count"], "4");
  EXPECT_EQ(
      samples["icrowd_ingest_queue_wait_seconds_bucket{le=\"+Inf\"}"], "4");
}

TEST(CampaignLabelTest, LabelIsPerDocumentNotProcessGlobal) {
  // The label rides in PrometheusOptions per render: two documents from
  // the same registry can carry different campaign labels concurrently,
  // which is what keeps co-hosted campaigns' series from colliding.
  PrometheusWorld world;
  std::string a = world.Render("campaign-a");
  std::string b = world.Render("campaign-b");
  EXPECT_NE(a.find("campaign=\"campaign-a\""), std::string::npos);
  EXPECT_EQ(a.find("campaign=\"campaign-b\""), std::string::npos);
  EXPECT_NE(b.find("campaign=\"campaign-b\""), std::string::npos);
  EXPECT_EQ(b.find("campaign=\"campaign-a\""), std::string::npos);
}

// --------------------------------------------------- SnapshotAll surface

TEST(SnapshotAllTest, SortedAndComplete) {
  PrometheusWorld world;
  std::vector<MetricSample> samples = world.metrics.SnapshotAll();
  // Exactly the five fixture metrics: the registry registers none of its
  // own.
  ASSERT_EQ(samples.size(), 5u);
  for (size_t i = 1; i < samples.size(); ++i) {
    EXPECT_LT(samples[i - 1].name, samples[i].name);
  }
  EXPECT_EQ(samples.front().name, "icrowd.core.arrivals");
  EXPECT_EQ(samples.front().counter, 7u);
  for (const MetricSample& s : samples) {
    if (s.name == "icrowd.ingest.queue_wait_seconds") {
      EXPECT_EQ(s.kind, obs::MetricKind::kHistogram);
      EXPECT_EQ(s.histogram.count, 4u);
    }
  }
}

// ------------------------------------------------------- MetricsHistory

TEST(MetricsHistoryTest, RatesDeriveFromCounterDeltas) {
  MetricsRegistry metrics;
  obs::Counter events = metrics.GetCounter("icrowd.ingest.events_applied");
  MetricsHistory history(8);

  events.Increment(10);
  history.Sample(metrics, 100.0);
  events.Increment(30);
  history.Sample(metrics, 102.0);  // 30 events over 2s -> 15/s

  std::string json = history.RenderJson();
  EXPECT_NE(json.find("\"t_start\":100"), std::string::npos);
  EXPECT_NE(json.find("\"t_end\":102"), std::string::npos);
  EXPECT_NE(json.find("\"duration_seconds\":2"), std::string::npos);
  EXPECT_NE(json.find("\"icrowd.ingest.events_applied\":15"),
            std::string::npos);
}

TEST(MetricsHistoryTest, CounterResetIsAFreshStart) {
  MetricsRegistry metrics;
  obs::Counter events = metrics.GetCounter("icrowd.ingest.events_applied");
  MetricsHistory history(8);

  events.Increment(100);
  history.Sample(metrics, 10.0);
  metrics.ResetForTesting();
  events.Increment(4);
  history.Sample(metrics, 12.0);  // current 4 < previous 100: rate 4/2s

  std::string json = history.RenderJson();
  EXPECT_NE(json.find("\"icrowd.ingest.events_applied\":2"),
            std::string::npos);
  EXPECT_EQ(json.find("-"), std::string::npos) << "negative rate leaked";
}

TEST(MetricsHistoryTest, GaugesReportWindowEndValue) {
  MetricsRegistry metrics;
  obs::Gauge depth = metrics.GetGauge("icrowd.ingest.queue_depth");
  MetricsHistory history(8);

  depth.Set(3.0);
  history.Sample(metrics, 1.0);
  depth.Set(7.5);
  history.Sample(metrics, 2.0);

  std::string json = history.RenderJson();
  EXPECT_NE(json.find("\"icrowd.ingest.queue_depth\":7.5"),
            std::string::npos);
}

TEST(MetricsHistoryTest, WindowPercentilesUseBucketDeltas) {
  MetricsRegistry metrics;
  const obs::Histogram lat = metrics.GetHistogram(
      "icrowd.ingest.apply_seconds", obs::LinearBuckets(0.001, 0.001, 9));
  MetricsHistory history(8);

  // First window: all mass in the lowest bucket.
  for (int i = 0; i < 100; ++i) lat.Observe(0.0005);
  history.Sample(metrics, 1.0);
  // Second window: the NEW observations all land near 9ms. A
  // whole-history percentile would still answer ~sub-ms; the per-window
  // delta must answer ~9ms.
  for (int i = 0; i < 100; ++i) lat.Observe(0.0085);
  history.Sample(metrics, 2.0);

  std::string json = history.RenderJson();
  size_t window = json.rfind("\"latency\"");
  ASSERT_NE(window, std::string::npos);
  std::string tail = json.substr(window);
  EXPECT_NE(tail.find("\"count\":100"), std::string::npos);
  // p50 of the second window interpolates inside the (0.008, 0.009]
  // bucket; whole-history p50 would sit in (0, 0.001].
  size_t p50 = tail.find("\"p50\":");
  ASSERT_NE(p50, std::string::npos);
  double p50_value = std::strtod(tail.c_str() + p50 + 6, nullptr);
  EXPECT_GT(p50_value, 0.008);
  EXPECT_LE(p50_value, 0.009);
}

TEST(MetricsHistoryTest, RingDropsOldestBeyondCapacity) {
  MetricsRegistry metrics;
  obs::Counter ticks = metrics.GetCounter("ticks");
  MetricsHistory history(3);
  for (int i = 0; i < 10; ++i) {
    ticks.Increment();
    history.Sample(metrics, 100.0 + i);
  }
  EXPECT_EQ(history.size(), 3u);
  EXPECT_EQ(history.capacity(), 3u);
  std::string json = history.RenderJson();
  // 3 snapshots -> 2 windows, covering only the newest timestamps.
  EXPECT_NE(json.find("\"snapshots\":3"), std::string::npos);
  EXPECT_EQ(json.find("\"t_start\":100"), std::string::npos);
  EXPECT_NE(json.find("\"t_start\":107"), std::string::npos);
  EXPECT_NE(json.find("\"t_end\":109"), std::string::npos);
}

TEST(MetricsHistoryTest, EmptyAndSingleSnapshotRenderNoWindows) {
  MetricsRegistry metrics;
  MetricsHistory history(4);
  EXPECT_NE(history.RenderJson().find("\"windows\":[]"), std::string::npos);
  history.Sample(metrics, 5.0);
  EXPECT_NE(history.RenderJson().find("\"windows\":[]"), std::string::npos);
  EXPECT_NE(history.RenderJson().find("\"snapshots\":1"),
            std::string::npos);
}

TEST(MetricsHistoryTest, NonPositiveDurationReportsZeroRates) {
  MetricsRegistry metrics;
  obs::Counter ticks = metrics.GetCounter("ticks");
  MetricsHistory history(4);
  ticks.Increment(5);
  history.Sample(metrics, 1.0);
  ticks.Increment(5);
  history.Sample(metrics, 1.0);  // same stamp: dt = 0
  std::string json = history.RenderJson();
  EXPECT_NE(json.find("\"ticks\":0"), std::string::npos);
}

}  // namespace
}  // namespace icrowd
