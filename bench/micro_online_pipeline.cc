// Microbenchmarks (google-benchmark) for the parallel online pipeline: the
// scheme-recompute kernel (per-task top-worker-set fan-out + greedy
// worker-disjoint selection, Algorithm 2 step 1 + Algorithm 3) at 1/2/4/8
// threads, and a full adaptive campaign at each thread count. Every
// parallel variant is checked against the serial scheme before timing —
// thread count must never change a single assignment (see DESIGN.md
// "Concurrency model"). Speedups require real cores; on a single-core host
// the numbers show the (small) coordination overhead instead.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "assign/greedy_assign.h"
#include "assign/top_workers.h"
#include "common/thread_pool.h"
#include "sim/experiment.h"
#include "datagen/itemcompare.h"
#include "gbench_adapter.h"
#include "model/campaign_state.h"
#include "obs/flight_recorder.h"
#include "obs/http/http_client.h"
#include "obs/http/http_server.h"
#include "obs/http/series.h"
#include "obs/metrics.h"

namespace icrowd {
namespace {

constexpr size_t kTasks = 8000;
constexpr size_t kWorkers = 160;
constexpr int kAssignmentSize = 3;

// Deterministic stand-in for the estimator: a cheap hash mix of (worker,
// task) mapped into [0.5, 1). Pure and thread-safe by construction, like
// the frozen snapshot the real pipeline hands out.
double HashAccuracy(WorkerId w, TaskId t) {
  uint64_t x = static_cast<uint64_t>(w) * 0x9e3779b97f4a7c15ull ^
               static_cast<uint64_t>(t) * 0xc2b2ae3d27d4eb4full;
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  return 0.5 + 0.5 * static_cast<double>(x % 10'000) / 10'000.0;
}

struct Kernel {
  CampaignState state{kTasks, kAssignmentSize};
  std::vector<WorkerId> active;
  AccuracyFn accuracy = HashAccuracy;

  Kernel() {
    for (size_t w = 0; w < kWorkers; ++w) {
      active.push_back(state.RegisterWorker());
    }
  }
};

// Bucket-wise difference of two snapshots of the same histogram: the
// registry accumulates across every benchmark variant in this binary, so
// each variant's percentiles must come from its own observations.
obs::HistogramSnapshot SnapshotDelta(const obs::HistogramSnapshot& before,
                                     const obs::HistogramSnapshot& after) {
  if (before.buckets.size() != after.buckets.size()) return after;
  obs::HistogramSnapshot delta;
  delta.bounds = after.bounds;
  delta.buckets.resize(after.buckets.size());
  for (size_t b = 0; b < after.buckets.size(); ++b) {
    delta.buckets[b] = after.buckets[b] - before.buckets[b];
    delta.count += delta.buckets[b];
  }
  delta.sum = after.sum - before.sum;
  return delta;
}

bool SameScheme(const std::vector<TopWorkerSet>& a,
                const std::vector<TopWorkerSet>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].task != b[i].task || a[i].workers != b[i].workers ||
        a[i].accuracies != b[i].accuracies) {
      return false;
    }
  }
  return true;
}

std::vector<TopWorkerSet> RecomputeScheme(const Kernel& kernel,
                                          ThreadPool* pool) {
  return GreedyAssign(ComputeTopWorkerSets(kernel.state.UncompletedTasks(),
                                           kernel.state, kernel.active,
                                           kernel.accuracy, pool));
}

void BM_SchemeRecompute(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  static Kernel kernel;  // shared: setup cost paid once across variants
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);

  // Determinism gate before timing: the parallel scheme must be
  // bit-identical to the serial one.
  std::vector<TopWorkerSet> serial = RecomputeScheme(kernel, nullptr);
  if (!SameScheme(serial, RecomputeScheme(kernel, pool.get()))) {
    state.SkipWithError("parallel scheme diverged from serial scheme");
    return;
  }

  for (auto _ : state) {
    auto scheme = RecomputeScheme(kernel, pool.get());
    benchmark::DoNotOptimize(scheme);
  }
  state.SetItemsProcessed(state.iterations() * kTasks);
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_SchemeRecompute)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_AdaptiveCampaign(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  ItemCompareOptions options;
  options.tasks_per_domain = 30;
  auto ds = GenerateItemCompare(options);
  auto workers = GenerateItemCompareWorkers(*ds);
  ICrowdConfig config;
  HostConfig host;
  host.num_threads = threads;

  // Determinism gate: the campaign at `threads` must reproduce the serial
  // campaign answer-for-answer.
  auto serial = RunExperiment(*ds, workers, config);
  auto parallel = RunExperiment(*ds, workers, config, host);
  if (!serial.ok() || !parallel.ok()) {
    state.SkipWithError("campaign failed");
    return;
  }
  if (serial->sim.consensus != parallel->sim.consensus ||
      serial->sim.answers.size() != parallel->sim.answers.size() ||
      serial->sim.total_cost != parallel->sim.total_cost) {
    state.SkipWithError("parallel campaign diverged from serial campaign");
    return;
  }

  double refresh_seconds = 0.0, recompute_seconds = 0.0;
  size_t runs = 0;
  auto& registry = obs::MetricsRegistry::Global();
  // Per-event (per RequestTask) latency tail: the simulator observes every
  // ICrowd::RequestTask call into icrowd.sim.request_seconds; diffing the
  // snapshot around the timed loop isolates this variant's distribution.
  obs::HistogramSnapshot requests_before =
      registry.HistogramValue("icrowd.sim.request_seconds");
  for (auto _ : state) {
    auto result = RunExperiment(*ds, workers, config, host);
    benchmark::DoNotOptimize(result);
    refresh_seconds += result->sim.assigner.refresh_seconds;
    recompute_seconds += result->sim.assigner.scheme_recompute_seconds;
    ++runs;
  }
  obs::HistogramSnapshot requests = SnapshotDelta(
      requests_before, registry.HistogramValue("icrowd.sim.request_seconds"));
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["refresh_ms"] =
      1e3 * refresh_seconds / static_cast<double>(runs);
  state.counters["recompute_ms"] =
      1e3 * recompute_seconds / static_cast<double>(runs);
  state.counters["request_p50_ms"] = 1e3 * requests.Percentile(50);
  state.counters["request_p99_ms"] = 1e3 * requests.Percentile(99);
}
BENCHMARK(BM_AdaptiveCampaign)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Instrumentation overhead on the hottest kernel: range(0) == 1 runs with
// the registry recording (the shipped configuration), 0 with recording
// disabled — the closest runtime approximation of compiling the
// instrumentation out (every record call early-returns after one relaxed
// load). Acceptance bar: enabled within 5% of disabled at 4 threads.
void BM_MetricsOverhead(benchmark::State& state) {
  const bool enabled = state.range(0) == 1;
  static Kernel kernel;
  ThreadPool pool(4);
  auto& registry = obs::MetricsRegistry::Global();
  registry.SetEnabled(enabled);
  for (auto _ : state) {
    auto scheme = RecomputeScheme(kernel, &pool);
    benchmark::DoNotOptimize(scheme);
  }
  registry.SetEnabled(true);
  state.SetItemsProcessed(state.iterations() * kTasks);
  state.counters["metrics_enabled"] = enabled ? 1.0 : 0.0;
}
BENCHMARK(BM_MetricsOverhead)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// Flight-recorder overhead on the same kernel: the metrics registry stays
// in the shipped (enabled) configuration while range(0) toggles only the
// recorder, so the delta isolates the always-on black box — every trace
// scope on this path writes a span-begin/span-end pair into the recording
// thread's ring. Acceptance bar (DESIGN.md §14): enabled within 5% of
// disabled, gated by bench_compare against the committed baseline.
void BM_FlightRecorderOverhead(benchmark::State& state) {
  const bool enabled = state.range(0) == 1;
  static Kernel kernel;
  ThreadPool pool(4);
  auto& flight = obs::FlightRecorder::Global();
  flight.SetEnabled(enabled);
  for (auto _ : state) {
    auto scheme = RecomputeScheme(kernel, &pool);
    benchmark::DoNotOptimize(scheme);
  }
  flight.SetEnabled(true);
  state.SetItemsProcessed(state.iterations() * kTasks);
  state.counters["flight_enabled"] = enabled ? 1.0 : 0.0;
}
BENCHMARK(BM_FlightRecorderOverhead)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// Live-scrape overhead on the same kernel: range(0) == 1 attaches the full
// observability stack — a loopback ObsServer, a 1 Hz SeriesSampler, and a
// scraper thread hitting /metricsz + /seriesz once a second (the shipped
// "Prometheus scraping a running campaign" configuration) — while 0 runs
// bare. The registry stays enabled in both variants so the delta isolates
// the server + sampler + scrape traffic. Acceptance bar (DESIGN.md §15):
// attached within 5% of bare, gated by bench_compare against the
// committed baseline.
void BM_ScrapeOverhead(benchmark::State& state) {
  const bool scraped = state.range(0) == 1;
  static Kernel kernel;
  ThreadPool pool(4);
  std::unique_ptr<obs::MetricsHistory> history;
  std::unique_ptr<obs::SeriesSampler> sampler;
  std::unique_ptr<obs::ObsServer> server;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> scrapes{0};
  std::thread scraper;
  if (scraped) {
    history = std::make_unique<obs::MetricsHistory>(64);
    sampler = std::make_unique<obs::SeriesSampler>(history.get());
    obs::ObsServer::Options options;
    options.history = history.get();
    server = std::make_unique<obs::ObsServer>(options);
    if (!server->Start()) {
      sampler->Stop();
      state.SkipWithError("obs server failed to start");
      return;
    }
    scraper = std::thread([&] {
      while (!stop.load(std::memory_order_acquire)) {
        obs::HttpResponse metricsz =
            obs::HttpGet("127.0.0.1", server->port(), "/metricsz");
        obs::HttpResponse seriesz =
            obs::HttpGet("127.0.0.1", server->port(), "/seriesz");
        benchmark::DoNotOptimize(metricsz.body.size() + seriesz.body.size());
        scrapes.fetch_add(1, std::memory_order_relaxed);
        // 1 Hz cadence, checked every 50ms so teardown never waits a
        // full period.
        for (int i = 0; i < 20; ++i) {
          if (stop.load(std::memory_order_acquire)) break;
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
      }
    });
  }
  for (auto _ : state) {
    auto scheme = RecomputeScheme(kernel, &pool);
    benchmark::DoNotOptimize(scheme);
  }
  if (scraped) {
    stop.store(true, std::memory_order_release);
    scraper.join();
    server->Stop();
    sampler->Stop();
  }
  state.SetItemsProcessed(state.iterations() * kTasks);
  state.counters["scraper_attached"] = scraped ? 1.0 : 0.0;
  state.counters["scrapes"] = static_cast<double>(scrapes.load());
}
BENCHMARK(BM_ScrapeOverhead)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace icrowd

// The shared harness owns main() now: it strips --metrics-out/--deterministic
// itself and dumps the global registry after the body returns, so the
// custom main this binary used to carry is gone.
ICROWD_BENCH("micro_online_pipeline") {
  icrowd::bench::RunGoogleBenchmarks(ctx);
}
