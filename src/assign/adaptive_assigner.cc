#include "assign/adaptive_assigner.h"

#include <algorithm>

#include "assign/greedy_assign.h"
#include "common/stopwatch.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace icrowd {

void AdaptiveAssigner::OnWorkerRegistered(WorkerId worker,
                                          double warmup_accuracy,
                                          const CampaignState& state) {
  estimator_->RegisterWorker(worker, warmup_accuracy);
  // Even QF-Only seeds its estimates from the qualification answers; it
  // just never updates them afterwards.
  estimator_->Refresh(worker, state, *dataset_);
  scheme_dirty_ = true;
}

void AdaptiveAssigner::OnAnswer(const AnswerRecord& answer,
                                const CampaignState& state) {
  if (!state.IsCompleted(answer.task)) return;
  scheme_dirty_ = true;
  if (options_.adaptive_updates) {
    for (const AnswerRecord& a : state.Answers(answer.task)) {
      dirty_workers_.insert(a.worker);
    }
  }
}

void AdaptiveAssigner::RefreshDirtyWorkers(const CampaignState& state) {
  if (dirty_workers_.empty()) return;
  auto& registry = obs::MetricsRegistry::Global();
  static const obs::Counter refresh_rounds = registry.GetCounter(
      "icrowd.assign.refresh_rounds",
      {true, "dirty-worker refresh rounds (one per affected RequestTask)"});
  static const obs::Histogram dirty_count = registry.GetHistogram(
      "icrowd.assign.dirty_workers", obs::ExponentialBuckets(1, 2, 8),
      {true, "workers re-estimated per refresh round"});
  static const obs::Gauge refresh_seconds = registry.GetGauge(
      "icrowd.assign.refresh_seconds",
      {false, "cumulative wall-clock inside dirty-worker refreshes"});
  ICROWD_TRACE_SCOPE("assign.refresh");
  refresh_rounds.Increment();
  dirty_count.Observe(static_cast<double>(dirty_workers_.size()));
  Stopwatch timer;
  std::vector<WorkerId> dirty(dirty_workers_.begin(), dirty_workers_.end());
  std::sort(dirty.begin(), dirty.end());
  dirty_workers_.clear();
  // The snapshot-then-fan-out mechanics (and the thread-count invariance
  // argument) live with the estimator so the batched ingest path and this
  // per-request path amortize dirty sets through the same code.
  estimator_->RefreshMany(dirty, state, *dataset_, pool());
  scheme_dirty_ = true;
  double elapsed = timer.ElapsedSeconds();
  refresh_fp_.fetch_add(obs::ToFixedPoint(elapsed),
                        std::memory_order_relaxed);
  refresh_seconds.Add(elapsed);
}

void AdaptiveAssigner::RecomputeScheme(
    const CampaignState& state, const std::vector<WorkerId>& active_workers) {
  auto& registry = obs::MetricsRegistry::Global();
  static const obs::Counter recomputations = registry.GetCounter(
      "icrowd.assign.scheme_recomputations",
      {true, "full Algorithm 2/3 scheme rebuilds"});
  static const obs::Counter planned_assignments = registry.GetCounter(
      "icrowd.assign.planned_assignments",
      {true, "worker->task plan entries produced by scheme rebuilds"});
  static const obs::Gauge recompute_seconds = registry.GetGauge(
      "icrowd.assign.recompute_seconds",
      {false, "cumulative wall-clock inside scheme rebuilds"});
  static const obs::Histogram planning_rounds = registry.GetHistogram(
      "icrowd.assign.planning_rounds", obs::ExponentialBuckets(1, 2, 7),
      {true, "Algorithm 3 planning rounds per scheme rebuild"});
  ICROWD_TRACE_SCOPE("assign.recompute");
  recomputations.Increment();
  scheme_recomputations_.fetch_add(1, std::memory_order_relaxed);
  Stopwatch timer;
  planned_.clear();
  // Scratch is per thread, not per assigner: a host runs many campaigns on
  // each shard thread, and per-campaign buffers kept between rebuilds
  // added 13% to perfbench fleet's peak RSS (32 campaigns, 3 shards).
  thread_local SchemePlanner planner;
  const AccuracyEstimator& estimator = *estimator_;
  size_t rounds = planner.Plan(
      state.UncompletedTasks(), state, active_workers,
      [&estimator](WorkerId w, TaskId t) { return estimator.Accuracy(w, t); },
      options_.multi_round_planning, pool(), &planned_);
  planning_rounds.Observe(static_cast<double>(rounds));
  scheme_dirty_ = false;
  planned_assignments.Increment(planned_.size());
  double elapsed = timer.ElapsedSeconds();
  scheme_recompute_fp_.fetch_add(obs::ToFixedPoint(elapsed),
                                 std::memory_order_relaxed);
  recompute_seconds.Add(elapsed);
}

std::optional<TaskId> AdaptiveAssigner::TestAssignment(
    WorkerId worker, const CampaignState& state) const {
  // §4.1 step 3: prefer tasks where (a) the estimate for this worker is
  // uncertain (beta variance) and (b) the already-assigned workers are
  // accurate, making the consensus-based grading of the test reliable.
  std::optional<TaskId> best;
  double best_score = -1.0;
  for (TaskId t : AssignableTasks(worker, state)) {
    double uncertainty = estimator_->Uncertainty(worker, t);
    const std::vector<WorkerId>& assigned = state.AssignedWorkers(t);
    double quality = 0.5;
    if (!assigned.empty()) {
      double acc = 0.0;
      for (WorkerId w : assigned) acc += estimator_->Accuracy(w, t);
      quality = acc / static_cast<double>(assigned.size());
    }
    double score = uncertainty * quality;
    if (score > best_score) {
      best_score = score;
      best = t;
    }
  }
  return best;
}

std::optional<TaskId> AdaptiveAssigner::RequestTask(
    WorkerId worker, const CampaignState& state,
    const std::vector<WorkerId>& active_workers) {
  if (options_.adaptive_updates) RefreshDirtyWorkers(state);

  // Plan-cache effectiveness counters: both are pure functions of the event
  // stream (deterministic), so the batch-invariance suite can assert the
  // amortization behaves identically on the batched path.
  static const obs::Counter plan_hits =
      obs::MetricsRegistry::Global().GetCounter(
          "icrowd.assign.plan_hits",
          {true, "requests served from the cached plan without a rebuild"});
  static const obs::Counter plan_stale =
      obs::MetricsRegistry::Global().GetCounter(
          "icrowd.assign.plan_stale",
          {true, "cached plan entries found unassignable when served"});

  bool recomputed = false;
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (scheme_dirty_ || !planned_.count(worker)) {
      RecomputeScheme(state, active_workers);
      recomputed = true;
    }
    auto it = planned_.find(worker);
    if (it != planned_.end()) {
      TaskId t = it->second;
      planned_.erase(it);
      if (state.CanAssign(t, worker)) {
        if (!recomputed) plan_hits.Increment();
        return t;
      }
      // Plan went stale (task completed early / slot consumed): recompute
      // once, then fall through to testing.
      plan_stale.Increment();
      scheme_dirty_ = true;
      continue;
    }
    break;
  }

  if (!options_.performance_testing) return std::nullopt;
  std::optional<TaskId> test = TestAssignment(worker, state);
  if (test.has_value()) {
    static const obs::Counter test_counter =
        obs::MetricsRegistry::Global().GetCounter(
            "icrowd.assign.test_assignments",
            {true, "assignments served by step-3 performance testing"});
    test_counter.Increment();
    test_assignments_.fetch_add(1, std::memory_order_relaxed);
  }
  return test;
}

Status AdaptiveAssigner::SerializeState(BinaryWriter* writer) const {
  estimator_->SerializeState(writer);
  std::vector<WorkerId> dirty(dirty_workers_.begin(), dirty_workers_.end());
  std::sort(dirty.begin(), dirty.end());
  writer->U64(dirty.size());
  for (WorkerId w : dirty) writer->I32(w);
  std::vector<std::pair<WorkerId, TaskId>> planned(planned_.begin(),
                                                   planned_.end());
  std::sort(planned.begin(), planned.end());
  writer->U64(planned.size());
  for (const auto& [w, t] : planned) {
    writer->I32(w);
    writer->I32(t);
  }
  writer->U8(scheme_dirty_ ? 1 : 0);
  writer->U64(scheme_recomputations_.load(std::memory_order_relaxed));
  writer->U64(test_assignments_.load(std::memory_order_relaxed));
  return Status::OK();
}

Status AdaptiveAssigner::RestoreState(BinaryReader* reader) {
  ICROWD_RETURN_NOT_OK(estimator_->RestoreState(reader));
  dirty_workers_.clear();
  uint64_t dirty = reader->U64();
  for (uint64_t i = 0; i < dirty && reader->ok(); ++i) {
    dirty_workers_.insert(reader->I32());
  }
  planned_.clear();
  uint64_t planned = reader->U64();
  for (uint64_t i = 0; i < planned && reader->ok(); ++i) {
    WorkerId w = reader->I32();
    planned_[w] = reader->I32();
  }
  scheme_dirty_ = reader->U8() != 0;
  scheme_recomputations_.store(static_cast<size_t>(reader->U64()),
                               std::memory_order_relaxed);
  test_assignments_.store(static_cast<size_t>(reader->U64()),
                          std::memory_order_relaxed);
  scheme_recompute_fp_.store(0, std::memory_order_relaxed);
  refresh_fp_.store(0, std::memory_order_relaxed);
  return reader->status();
}

}  // namespace icrowd
