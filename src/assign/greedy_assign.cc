#include "assign/greedy_assign.h"

#include <algorithm>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace icrowd {

void GreedyAssign(const CandidateSets& candidates,
                  std::vector<uint8_t>* used_workers,
                  std::vector<uint32_t>* scheme) {
  auto& registry = obs::MetricsRegistry::Global();
  static const obs::Counter resolved_counter = registry.GetCounter(
      "icrowd.assign.heap_pops",
      {true, "Algorithm 3 candidate sets resolved (accepted plus rejected)"});
  static const obs::Counter rejected_counter = registry.GetCounter(
      "icrowd.assign.conflict_rejections",
      {true, "candidate sets rejected for overlapping an already-used "
             "worker"});
  static const obs::Counter scheme_sets = registry.GetCounter(
      "icrowd.assign.scheme_sets",
      {true, "disjoint sets accepted into assignment schemes"});
  static const obs::Histogram scheme_avg_accuracy = registry.GetHistogram(
      "icrowd.assign.scheme_avg_accuracy", obs::LinearBuckets(0.1, 0.1, 9),
      {true, "average estimated accuracy of each accepted set"});
  ICROWD_TRACE_SCOPE("assign.greedy");
  std::vector<uint8_t>& used = *used_workers;
  std::vector<uint32_t>& order = *scheme;
  // order[0, accepted) holds the accepted candidates, order[accepted, live)
  // the ones still undecided.
  order.resize(candidates.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<uint32_t>(i);
  }
  auto overlaps = [&](uint32_t c) {
    for (size_t i = candidates.begin[c]; i < candidates.begin[c + 1]; ++i) {
      if (used[candidates.workers[i]]) return true;
    }
    return false;
  };
  // Total order: average desc, then task id asc (task ids are unique).
  auto better = [&](uint32_t a, uint32_t b) {
    if (candidates.avg[a] != candidates.avg[b]) {
      return candidates.avg[a] > candidates.avg[b];
    }
    return candidates.tasks[a] < candidates.tasks[b];
  };
  size_t accepted = 0;
  size_t live = order.size();
  while (accepted < live) {
    size_t best = live;
    size_t kept = accepted;
    for (size_t i = accepted; i < live; ++i) {
      const uint32_t c = order[i];
      if (overlaps(c)) continue;
      order[kept] = c;
      if (best == live || better(c, order[best])) best = kept;
      ++kept;
    }
    live = kept;
    if (accepted == live) break;
    std::swap(order[accepted], order[best]);
    const uint32_t c = order[accepted++];
    for (size_t i = candidates.begin[c]; i < candidates.begin[c + 1]; ++i) {
      used[candidates.workers[i]] = 1;
    }
    scheme_avg_accuracy.Observe(candidates.avg[c]);
  }
  order.resize(accepted);
  resolved_counter.Increment(candidates.size());
  rejected_counter.Increment(candidates.size() - accepted);
  scheme_sets.Increment(accepted);
}

std::vector<TopWorkerSet> GreedyAssign(
    const std::vector<TopWorkerSet>& candidates) {
  CandidateSets flat;
  WorkerId max_worker = -1;
  for (const TopWorkerSet& set : candidates) {
    if (set.empty()) continue;
    flat.Append(set);
    for (WorkerId w : set.workers) max_worker = std::max(max_worker, w);
  }
  std::vector<uint8_t> used(static_cast<size_t>(max_worker + 1), 0);
  std::vector<uint32_t> accepted;
  GreedyAssign(flat, &used, &accepted);
  std::vector<TopWorkerSet> scheme;
  scheme.reserve(accepted.size());
  for (uint32_t c : accepted) scheme.push_back(flat.Get(c));
  return scheme;
}

double SchemeObjective(const std::vector<TopWorkerSet>& scheme) {
  double total = 0.0;
  for (const TopWorkerSet& set : scheme) total += set.SumAccuracy();
  return total;
}

size_t SchemePlanner::Plan(const std::vector<TaskId>& tasks,
                           const CampaignState& state,
                           const std::vector<WorkerId>& workers,
                           const AccuracyRows& rows, bool multi_round,
                           ThreadPool* pool,
                           std::unordered_map<WorkerId, TaskId>* plan) {
  selector_.Score(tasks, state, workers, rows, pool);
  return PlanRounds(tasks.size(), state.num_tasks(), workers, multi_round,
                    plan);
}

size_t SchemePlanner::PlanRounds(size_t num_open, size_t num_tasks,
                                 const std::vector<WorkerId>& workers,
                                 bool multi_round,
                                 std::unordered_map<WorkerId, TaskId>* plan) {
  WorkerId max_worker = -1;
  for (WorkerId w : workers) max_worker = std::max(max_worker, w);
  worker_used_.assign(static_cast<size_t>(max_worker + 1), 0);
  task_planned_.assign(num_tasks, 0);
  size_t workers_left = workers.size();
  size_t rounds = 0;
  while (workers_left > 0 && num_open > 0 && (rounds == 0 || multi_round)) {
    ++rounds;
    selector_.Select(task_planned_, worker_used_, &candidates_);
    GreedyAssign(candidates_, &worker_used_, &scheme_);
    if (scheme_.empty()) break;
    for (uint32_t c : scheme_) {
      const TaskId task = candidates_.tasks[c];
      task_planned_[task] = 1;
      --num_open;
      for (size_t i = candidates_.begin[c]; i < candidates_.begin[c + 1];
           ++i) {
        (*plan)[candidates_.workers[i]] = task;
        --workers_left;
      }
    }
  }
  return rounds;
}

}  // namespace icrowd
