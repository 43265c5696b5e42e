#include "assign/top_workers.h"

#include <algorithm>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace icrowd {

double TopWorkerSet::SumAccuracy() const {
  double acc = 0.0;
  for (double p : accuracies) acc += p;
  return acc;
}

double TopWorkerSet::AvgAccuracy() const {
  if (workers.empty()) return 0.0;
  return SumAccuracy() / static_cast<double>(workers.size());
}

TopWorkerSet ComputeTopWorkerSet(TaskId task, const CampaignState& state,
                                 const std::vector<WorkerId>& active_workers,
                                 const AccuracyFn& accuracy) {
  TopWorkerSet result;
  result.task = task;
  int slots = state.RemainingSlots(task);
  if (slots <= 0) return result;

  // Eligible workers W^u(t) with their accuracy estimates.
  std::vector<std::pair<double, WorkerId>> scored;
  scored.reserve(active_workers.size());
  for (WorkerId w : active_workers) {
    if (!state.IsAssignedTo(task, w)) {
      scored.emplace_back(accuracy(w, task), w);
    }
  }
  size_t keep = std::min<size_t>(slots, scored.size());
  // Descending accuracy; ties toward smaller worker id.
  std::partial_sort(scored.begin(), scored.begin() + keep, scored.end(),
                    [](const auto& a, const auto& b) {
                      if (a.first != b.first) return a.first > b.first;
                      return a.second < b.second;
                    });
  result.workers.reserve(keep);
  result.accuracies.reserve(keep);
  for (size_t i = 0; i < keep; ++i) {
    result.workers.push_back(scored[i].second);
    result.accuracies.push_back(scored[i].first);
  }
  return result;
}

std::vector<TopWorkerSet> ComputeTopWorkerSets(
    const std::vector<TaskId>& tasks, const CampaignState& state,
    const std::vector<WorkerId>& active_workers, const AccuracyFn& accuracy,
    ThreadPool* pool) {
  auto& registry = obs::MetricsRegistry::Global();
  static const obs::Counter sets_computed = registry.GetCounter(
      "icrowd.assign.top_sets_computed",
      {true, "Definition 3 top worker sets computed"});
  static const obs::Counter sets_skipped = registry.GetCounter(
      "icrowd.assign.top_sets_skipped",
      {true, "candidate sets dropped as empty"});
  static const obs::Histogram set_size = registry.GetHistogram(
      "icrowd.assign.top_set_size", obs::LinearBuckets(0, 1, 8),
      {true, "workers per kept top worker set"});
  ICROWD_TRACE_SCOPE("assign.top_worker_sets");
  // Fan out one slot per task, then merge in index order: the output is the
  // same sequence the serial loop produces, at any thread count.
  std::vector<TopWorkerSet> per_task(tasks.size());
  auto compute_one = [&](size_t i) {
    per_task[i] = ComputeTopWorkerSet(tasks[i], state, active_workers,
                                      accuracy);
  };
  if (pool != nullptr && tasks.size() > 1) {
    pool->ParallelFor(tasks.size(), compute_one);
  } else {
    for (size_t i = 0; i < tasks.size(); ++i) compute_one(i);
  }
  sets_computed.Increment(tasks.size());
  std::vector<TopWorkerSet> sets;
  sets.reserve(tasks.size());
  for (size_t i = 0; i < tasks.size(); ++i) {
    TopWorkerSet& set = per_task[i];
    if (set.empty()) {
      sets_skipped.Increment();
      continue;
    }
    set_size.Observe(static_cast<double>(set.workers.size()));
    sets.push_back(std::move(set));
  }
  return sets;
}

}  // namespace icrowd
