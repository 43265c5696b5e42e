// End-to-end determinism of the parallel online pipeline: a full campaign
// on the ItemCompare generator, and one on entity resolution busy enough to
// refresh in the pool, must produce bit-identical results for a fixed seed
// at any thread count. The refresh/fan-out stages snapshot their
// inputs and merge in index order (see DESIGN.md "Concurrency model"), so
// num_threads only changes wall-clock, never a single answer.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/experiment.h"
#include "datagen/entity_resolution.h"
#include "datagen/itemcompare.h"
#include "obs/metrics.h"

namespace icrowd {
namespace {

struct Fixture {
  Dataset dataset;
  std::vector<WorkerProfile> workers;
};

Fixture SmallItemCompare() {
  ItemCompareOptions options;
  options.tasks_per_domain = 30;
  auto ds = GenerateItemCompare(options);
  EXPECT_TRUE(ds.ok());
  auto workers = GenerateItemCompareWorkers(*ds);
  return {ds.MoveValueOrDie(), std::move(workers)};
}

Result<ExperimentResult> RunStrategy(const Fixture& fx, ICrowdConfig config,
                                     StrategyKind kind,
                                     const HostConfig& host = {}) {
  config.strategy = kind;
  return RunExperiment(fx.dataset, fx.workers, config, host);
}

// AnswerRecord carries no operator==; compare every field explicitly so a
// divergence names the first differing record.
void ExpectSameAnswers(const std::vector<AnswerRecord>& a,
                       const std::vector<AnswerRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].task, b[i].task) << "answer " << i;
    EXPECT_EQ(a[i].worker, b[i].worker) << "answer " << i;
    EXPECT_EQ(a[i].label, b[i].label) << "answer " << i;
    EXPECT_EQ(a[i].time, b[i].time) << "answer " << i;
  }
}

void ExpectSameCampaign(const ExperimentResult& a, const ExperimentResult& b,
                        const char* what) {
  SCOPED_TRACE(what);
  ExpectSameAnswers(a.sim.answers, b.sim.answers);
  ExpectSameAnswers(a.sim.work_answers, b.sim.work_answers);
  EXPECT_EQ(a.sim.consensus, b.sim.consensus);
  EXPECT_EQ(a.sim.total_cost, b.sim.total_cost);
  EXPECT_EQ(a.sim.qualification_cost, b.sim.qualification_cost);
  EXPECT_EQ(a.sim.num_requests, b.sim.num_requests);
  EXPECT_EQ(a.sim.workers_spawned, b.sim.workers_spawned);
  EXPECT_EQ(a.sim.workers_rejected, b.sim.workers_rejected);
  EXPECT_EQ(a.sim.completed_all, b.sim.completed_all);
  EXPECT_EQ(a.sim.assigner.scheme_recomputations,
            b.sim.assigner.scheme_recomputations);
  EXPECT_EQ(a.sim.assigner.test_assignments, b.sim.assigner.test_assignments);
  EXPECT_EQ(a.predictions, b.predictions);
  EXPECT_EQ(a.report.overall, b.report.overall);
}

class DeterminismTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DeterminismTest, ThreadCountNeverChangesCampaignResults) {
  Fixture fx = SmallItemCompare();
  ICrowdConfig config;
  config.seed = GetParam();
  HostConfig host;

  host.num_threads = 1;
  auto serial = RunStrategy(fx, config, StrategyKind::kAdapt, host);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_FALSE(serial->sim.answers.empty());

  for (size_t threads : {size_t{2}, size_t{8}}) {
    host.num_threads = threads;
    auto parallel = RunStrategy(fx, config, StrategyKind::kAdapt, host);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    ExpectSameCampaign(*serial, *parallel,
                       threads == 2 ? "2 threads vs serial"
                                    : "8 threads vs serial");
  }
}

TEST_P(DeterminismTest, MetricDumpsAreBitIdenticalAcrossThreadCounts) {
  // The observability layer must honor the same contract as the pipeline:
  // a deterministic metric dump (counters, histograms, trajectory events —
  // everything registered deterministic) is the same bytes whether the
  // campaign ran on 1 thread or 8. Doubles are accumulated fixed-point, so
  // shard merges are integer sums; spans and timing metrics are excluded
  // from the deterministic export.
  Fixture fx = SmallItemCompare();
  ICrowdConfig config;
  config.seed = GetParam();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();

  auto run_and_dump = [&](size_t threads) {
    registry.ResetForTesting();
    HostConfig host;
    host.num_threads = threads;
    auto result = RunStrategy(fx, config, StrategyKind::kAdapt, host);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return registry.ExportJsonlString({/*deterministic=*/true});
  };

  std::string serial = run_and_dump(1);
  std::string parallel = run_and_dump(8);
  registry.ResetForTesting();
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel)
      << "deterministic metric export depends on thread count";
}

TEST_P(DeterminismTest, SharedPoolMatchesPerAssignerPool) {
  // A pool handed in via config (spawned once per process) must behave
  // exactly like the per-assigner pool the factory otherwise creates.
  Fixture fx = SmallItemCompare();
  ICrowdConfig config;
  config.seed = GetParam();
  HostConfig host;
  host.num_threads = 4;

  auto owned = RunStrategy(fx, config, StrategyKind::kAdapt, host);
  ASSERT_TRUE(owned.ok());

  host.pool = std::make_shared<ThreadPool>(4);
  auto shared = RunStrategy(fx, config, StrategyKind::kAdapt, host);
  ASSERT_TRUE(shared.ok());
  ExpectSameCampaign(*owned, *shared, "shared pool vs owned pool");
}

// Eight workers who stay for the whole campaign give about 90 of its 726
// answers each (280 entity-resolution tasks), so a completed task dirties
// workers holding over 200 answers between them late in the campaign: the
// batches cross RefreshMany's serial cutoff (kParallelRefreshAnswers), and
// a pooled run refreshes in the pool, which the ItemCompare campaigns
// above never do.
Fixture BusyEntityResolution() {
  EntityResolutionOptions options;
  options.tasks_per_family = 70;
  auto ds = GenerateEntityResolution(options);
  EXPECT_TRUE(ds.ok());
  auto workers = GenerateEntityResolutionWorkers(*ds, 8);
  for (WorkerProfile& worker : workers) worker.willingness = 1000;
  return {ds.MoveValueOrDie(), std::move(workers)};
}

TEST(PooledRefreshDeterminismTest, PooledRefreshesMatchSerialBitForBit) {
  Fixture fx = BusyEntityResolution();
  ICrowdConfig config;
  config.seed = 3;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  struct Run {
    ExperimentResult result;
    std::string dump;
    uint64_t submitted = 0;
  };
  auto run = [&](size_t threads) {
    registry.ResetForTesting();
    HostConfig host;
    host.num_threads = threads;
    auto result = RunStrategy(fx, config, StrategyKind::kAdapt, host);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return Run{result.MoveValueOrDie(),
               registry.ExportJsonlString({/*deterministic=*/true}),
               registry.CounterValue("icrowd.pool.tasks_submitted")};
  };

  const Run serial = run(1);
  ASSERT_FALSE(serial.dump.empty());
  for (size_t threads : {size_t{2}, size_t{8}}) {
    const Run pooled = run(threads);
    const std::string what = std::to_string(threads) + " threads vs serial";
    // The PPR precompute submits the same tasks to its own pool in every
    // run, and 280 tasks by 8 workers is far below the scoring pool's
    // cutoff, so what a pooled run submits beyond the serial one is
    // refresh work.
    EXPECT_GT(pooled.submitted, serial.submitted) << what;
    ExpectSameCampaign(serial.result, pooled.result, what.c_str());
    EXPECT_EQ(serial.dump, pooled.dump)
        << "deterministic metric export depends on thread count: " << what;
  }
  registry.ResetForTesting();
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminismTest,
                         ::testing::Values(1u, 7u, 42u),
                         [](const auto& param_info) {
                           return "Seed" + std::to_string(param_info.param);
                         });

}  // namespace
}  // namespace icrowd
