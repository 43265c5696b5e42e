#include "assign/greedy_assign.h"

#include <algorithm>
#include <unordered_set>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace icrowd {

std::vector<TopWorkerSet> GreedyAssign(std::vector<TopWorkerSet> candidates) {
  auto& registry = obs::MetricsRegistry::Global();
  static const obs::Counter heap_pops = registry.GetCounter(
      "icrowd.assign.heap_pops",
      {true, "candidate sets popped off the Algorithm 3 lazy heap"});
  static const obs::Counter conflict_rejections = registry.GetCounter(
      "icrowd.assign.conflict_rejections",
      {true, "popped sets rejected for overlapping an already-used worker"});
  static const obs::Counter scheme_sets = registry.GetCounter(
      "icrowd.assign.scheme_sets",
      {true, "disjoint sets accepted into assignment schemes"});
  static const obs::Histogram scheme_avg_accuracy = registry.GetHistogram(
      "icrowd.assign.scheme_avg_accuracy", obs::LinearBuckets(0.1, 0.1, 9),
      {true, "average estimated accuracy of each accepted set"});
  ICROWD_TRACE_SCOPE("assign.greedy");
  // Lazy max-heap keyed by (average accuracy desc, task id asc). Candidate
  // sets are fixed, so keys never change and stale-entry reinsertion is
  // unnecessary; "lazy" here means overlap is only checked when a candidate
  // reaches the top. Compared to sorting everything up front, the heap pays
  // O(n) to build and O(log n) per pop, and the pop loop stops as soon as
  // every worker appearing in any candidate is used — in the multi-round
  // planner the early rounds consume all workers within a few pops while
  // thousands of candidates remain unsorted.
  std::vector<double> avg(candidates.size());
  std::unordered_set<WorkerId> universe;
  std::vector<size_t> heap;
  heap.reserve(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (candidates[i].empty()) continue;
    avg[i] = candidates[i].AvgAccuracy();
    heap.push_back(i);
    for (WorkerId w : candidates[i].workers) universe.insert(w);
  }
  // std::*_heap keeps the max at front; "less" orders worse candidates
  // first. Task ids are unique, so the order is total and deterministic.
  auto worse = [&](size_t a, size_t b) {
    if (avg[a] != avg[b]) return avg[a] < avg[b];
    return candidates[a].task > candidates[b].task;
  };
  std::make_heap(heap.begin(), heap.end(), worse);

  std::vector<TopWorkerSet> scheme;
  std::unordered_set<WorkerId> used;
  while (!heap.empty() && used.size() < universe.size()) {
    std::pop_heap(heap.begin(), heap.end(), worse);
    size_t index = heap.back();
    TopWorkerSet& candidate = candidates[index];
    heap.pop_back();
    heap_pops.Increment();
    bool overlaps = false;
    for (WorkerId w : candidate.workers) {
      if (used.count(w)) {
        overlaps = true;
        break;
      }
    }
    if (overlaps) {
      conflict_rejections.Increment();
      continue;
    }
    for (WorkerId w : candidate.workers) used.insert(w);
    scheme_sets.Increment();
    scheme_avg_accuracy.Observe(avg[index]);
    scheme.push_back(std::move(candidate));
  }
  return scheme;
}

double SchemeObjective(const std::vector<TopWorkerSet>& scheme) {
  double total = 0.0;
  for (const TopWorkerSet& set : scheme) total += set.SumAccuracy();
  return total;
}

}  // namespace icrowd
