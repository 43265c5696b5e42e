#include "assign/top_workers.h"

#include <algorithm>
#include <array>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace icrowd {

namespace {

// Below this many scored pairs (open tasks × active workers) the scoring
// pass runs serially even when a pool is given. Measured with Release
// builds on a shared 4-vCPU x86-64 container, timing whole rebuilds: at
// 11k-75k pairs (entity-resolution corpora of 800-2,400 tasks, 40
// workers) a 2-thread pool was within noise of the serial pass, and on
// perfbench's big_corpus (at most 64k pairs) it saved no rebuild time but
// cost 5-15% more CPU per event; at 167k pairs (Figure 10, 5,000 tasks,
// 50 workers) it cut the rebuild from 6.4 to 4.9 ms, at 417k from 12.9 to
// 9.1 ms.
constexpr size_t kParallelScoringPairs = 100'000;

// Top-set sizes counted per round before they reach the histogram; larger
// sets (assignment sizes above this) are observed one by one.
constexpr size_t kCountedSetSizes = 8;

}  // namespace

double TopWorkerSet::SumAccuracy() const {
  double acc = 0.0;
  for (double p : accuracies) acc += p;
  return acc;
}

double TopWorkerSet::AvgAccuracy() const {
  if (workers.empty()) return 0.0;
  return SumAccuracy() / static_cast<double>(workers.size());
}

void CandidateSets::clear() {
  tasks.clear();
  avg.clear();
  begin.assign(1, 0);
  workers.clear();
  accuracies.clear();
}

void CandidateSets::Commit(TaskId task) {
  // Same summation order as TopWorkerSet::SumAccuracy, so the key is
  // bit-identical to AvgAccuracy() of the materialized set.
  double sum = 0.0;
  for (size_t i = begin.back(); i < accuracies.size(); ++i) {
    sum += accuracies[i];
  }
  tasks.push_back(task);
  avg.push_back(sum / static_cast<double>(accuracies.size() - begin.back()));
  begin.push_back(accuracies.size());
}

void CandidateSets::Append(const TopWorkerSet& set) {
  workers.insert(workers.end(), set.workers.begin(), set.workers.end());
  accuracies.insert(accuracies.end(), set.accuracies.begin(),
                    set.accuracies.end());
  Commit(set.task);
}

TopWorkerSet CandidateSets::Get(size_t i) const {
  TopWorkerSet set;
  set.task = tasks[i];
  set.workers.assign(workers.begin() + static_cast<ptrdiff_t>(begin[i]),
                     workers.begin() + static_cast<ptrdiff_t>(begin[i + 1]));
  set.accuracies.assign(
      accuracies.begin() + static_cast<ptrdiff_t>(begin[i]),
      accuracies.begin() + static_cast<ptrdiff_t>(begin[i + 1]));
  return set;
}

void TopWorkerSelector::Reset(const std::vector<TaskId>& tasks,
                              const CampaignState& state,
                              const std::vector<WorkerId>& workers) {
  tasks_.assign(tasks.begin(), tasks.end());
  workers_.assign(workers.begin(), workers.end());
  slots_.resize(tasks_.size());
  for (size_t row = 0; row < tasks_.size(); ++row) {
    slots_[row] = state.RemainingSlots(tasks_[row]);
  }
  scores_.resize(tasks_.size() * workers_.size());
}

void TopWorkerSelector::ForEachRow(ThreadPool* pool,
                                   const std::function<void(size_t)>& fn) {
  ICROWD_TRACE_SCOPE("assign.score");
  if (pool != nullptr &&
      tasks_.size() * workers_.size() >= kParallelScoringPairs) {
    pool->ParallelFor(tasks_.size(), fn);
  } else {
    for (size_t row = 0; row < tasks_.size(); ++row) fn(row);
  }
}

void TopWorkerSelector::Select(const std::vector<uint8_t>& task_planned,
                               const std::vector<uint8_t>& worker_used,
                               CandidateSets* out) {
  auto& registry = obs::MetricsRegistry::Global();
  static const obs::Counter sets_computed = registry.GetCounter(
      "icrowd.assign.top_sets_computed",
      {true, "Definition 3 top worker sets computed (one per open task and "
             "planning round)"});
  static const obs::Counter sets_skipped = registry.GetCounter(
      "icrowd.assign.top_sets_skipped",
      {true, "candidate sets dropped as empty"});
  static const obs::Histogram set_size = registry.GetHistogram(
      "icrowd.assign.top_set_size", obs::LinearBuckets(0, 1, 8),
      {true, "workers per kept top worker set"});
  ICROWD_TRACE_SCOPE("assign.top_worker_sets");
  out->clear();
  in_play_.clear();
  for (size_t j = 0; j < workers_.size(); ++j) {
    if (!worker_used[workers_[j]]) {
      in_play_.push_back(static_cast<uint32_t>(j));
    }
  }
  const size_t width = workers_.size();
  size_t computed = 0;
  size_t skipped = 0;
  std::array<uint64_t, kCountedSetSizes> sizes{};
  for (size_t row = 0; row < tasks_.size(); ++row) {
    const TaskId task = tasks_[row];
    if (task_planned[task]) continue;
    ++computed;
    if (slots_[row] <= 0) {  // Score() left this row unscored
      ++skipped;
      continue;
    }
    const size_t slots = static_cast<size_t>(slots_[row]);
    const double* scores = &scores_[row * width];
    // Insertion buffer at the tail of `out`: the best `slots` workers seen
    // so far, in (accuracy desc, worker id asc) order.
    const size_t first = out->workers.size();
    size_t kept = 0;
    for (uint32_t j : in_play_) {
      const double a = scores[j];
      if (a == kIneligible) continue;
      const WorkerId w = workers_[j];
      auto better = [&](size_t i) {
        const double b = out->accuracies[i];
        return a != b ? a > b : w < out->workers[i];
      };
      size_t pos;
      if (kept < slots) {
        out->workers.push_back(w);
        out->accuracies.push_back(a);
        pos = first + kept++;
      } else if (kept > 0 && better(first + kept - 1)) {
        pos = first + kept - 1;
      } else {
        continue;
      }
      for (; pos > first && better(pos - 1); --pos) {
        out->workers[pos] = out->workers[pos - 1];
        out->accuracies[pos] = out->accuracies[pos - 1];
      }
      out->workers[pos] = w;
      out->accuracies[pos] = a;
    }
    if (kept == 0) {
      ++skipped;
      continue;
    }
    out->Commit(task);
    if (kept < kCountedSetSizes) {
      ++sizes[kept];
    } else {
      set_size.Observe(static_cast<double>(kept));
    }
  }
  sets_computed.Increment(computed);
  sets_skipped.Increment(skipped);
  for (size_t n = 0; n < sizes.size(); ++n) {
    if (sizes[n] > 0) set_size.Observe(static_cast<double>(n), sizes[n]);
  }
}

std::vector<TopWorkerSet> ComputeTopWorkerSets(
    const std::vector<TaskId>& tasks, const CampaignState& state,
    const std::vector<WorkerId>& active_workers, const AccuracyFn& accuracy,
    ThreadPool* pool) {
  TopWorkerSelector selector;
  selector.Score(tasks, state, active_workers, accuracy, pool);
  WorkerId max_worker = -1;
  for (WorkerId w : active_workers) max_worker = std::max(max_worker, w);
  CandidateSets candidates;
  selector.Select(std::vector<uint8_t>(state.num_tasks(), 0),
                  std::vector<uint8_t>(static_cast<size_t>(max_worker + 1), 0),
                  &candidates);
  std::vector<TopWorkerSet> sets;
  sets.reserve(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    sets.push_back(candidates.Get(i));
  }
  return sets;
}

}  // namespace icrowd
