#ifndef ICROWD_ASSIGN_ADAPTIVE_ASSIGNER_H_
#define ICROWD_ASSIGN_ADAPTIVE_ASSIGNER_H_

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "assign/assigner.h"
#include "common/binary_io.h"
#include "common/thread_pool.h"
#include "estimation/accuracy_estimator.h"
#include "obs/metrics.h"

namespace icrowd {

struct AdaptiveAssignerOptions {
  /// When false the accuracy estimates are frozen after warm-up — this is
  /// exactly the QF-Only alternative of §6.3.2.
  bool adaptive_updates = true;
  /// Whether step 3 (worker performance testing) may hand out tasks to
  /// workers absent from the optimal scheme.
  bool performance_testing = true;
  /// Plan in multiple greedy rounds (SchemePlanner: remove planned
  /// workers/tasks and re-run Algorithm 3) so every active worker lands in
  /// the scheme. With false, a single Algorithm 3 pass plans only the top
  /// few disjoint sets and everyone else falls to step-3 testing. The
  /// `ablation_assignment` bench quantifies this choice.
  bool multi_round_planning = true;
  /// Pool for the online hot path (the dirty-worker estimate refresh and
  /// the per-task scoring fan-out, each above its serial cutoff); null =
  /// serial. The assigner only borrows it: the host or the strategy
  /// factory creates it (DESIGN.md "Concurrency model"). Results are
  /// bit-identical with or without one: Eq. (5) always reads the refreshed
  /// workers' accuracy rows as frozen before the round, and each task's
  /// scores land in its own row.
  std::shared_ptr<ThreadPool> pool;
};

/// iCrowd's ADAPTIVE ASSIGNER (Algorithm 2 / §4):
///   1. top worker sets for every uncompleted task (Definition 3),
///   2. greedy optimal microtask assignment (Algorithm 3) over them,
///   3. performance-test assignment (beta-variance uncertainty × co-worker
///      quality) for workers left out of the scheme.
/// The computed scheme is cached as a worker→task plan — the "effective
/// index" §6.5 credits for real-time assignment — and invalidated when new
/// consensus results change the estimates.
///
/// Threading contract: single-writer, like the campaign that owns it. The
/// driving thread mutates estimates and the plan cache without locks; the
/// only cross-thread surface is stats(), whose counters are all atomics so
/// a concurrent poller reads torn-free snapshots. Internal ParallelFor
/// fan-out synchronizes via the pool's own mutex (level 1 in
/// tools/lock_order.txt), never via state in this class.
class AdaptiveAssigner : public Assigner {
 public:
  /// `dataset` must outlive the assigner.
  AdaptiveAssigner(const Dataset* dataset,
                   std::unique_ptr<AccuracyEstimator> estimator,
                   AdaptiveAssignerOptions options = {})
      : dataset_(dataset),
        estimator_(std::move(estimator)),
        options_(std::move(options)) {}

  std::string name() const override {
    return options_.adaptive_updates ? "Adapt" : "QF-Only";
  }

  void OnWorkerRegistered(WorkerId worker, double warmup_accuracy,
                          const CampaignState& state) override;

  std::optional<TaskId> RequestTask(
      WorkerId worker, const CampaignState& state,
      const std::vector<WorkerId>& active_workers) override;

  void OnAnswer(const AnswerRecord& answer,
                const CampaignState& state) override;

  const AccuracyEstimator& estimator() const { return *estimator_; }

  /// Snapshot of the pipeline counters. Safe to call from any thread while
  /// the assigner is serving requests: every field is an atomic (seconds
  /// are stored fixed-point), so a concurrent poller — the dashboard use
  /// case — reads torn-free values rather than racing on plain doubles.
  AssignerStats Stats() const override {
    return {scheme_recomputations_.load(std::memory_order_relaxed),
            test_assignments_.load(std::memory_order_relaxed),
            obs::FromFixedPoint(
                scheme_recompute_fp_.load(std::memory_order_relaxed)),
            obs::FromFixedPoint(
                refresh_fp_.load(std::memory_order_relaxed))};
  }

  /// Serializes the estimator models plus this assigner's scheduling state
  /// (dirty set, partially-consumed plan cache, counters) for
  /// ICrowd::Snapshot(). Wall-clock timer accumulators are not serialized
  /// and restart from zero on restore.
  Status SerializeState(BinaryWriter* writer) const override;
  Status RestoreState(BinaryReader* reader,
                      const CampaignState& state) override;

 private:
  ThreadPool* pool() const { return options_.pool.get(); }
  void RefreshDirtyWorkers(const CampaignState& state);
  void RecomputeScheme(const CampaignState& state,
                       const std::vector<WorkerId>& active_workers);
  std::optional<TaskId> TestAssignment(WorkerId worker,
                                       const CampaignState& state) const;

  const Dataset* dataset_;
  std::unique_ptr<AccuracyEstimator> estimator_;
  AdaptiveAssignerOptions options_;

  std::unordered_set<WorkerId> dirty_workers_;
  std::unordered_map<WorkerId, TaskId> planned_;
  bool scheme_dirty_ = true;
  std::atomic<size_t> scheme_recomputations_{0};
  std::atomic<size_t> test_assignments_{0};
  // Fixed-point seconds (obs::kFixedPointScale) so Stats() never reads a
  // torn double.
  std::atomic<int64_t> scheme_recompute_fp_{0};
  std::atomic<int64_t> refresh_fp_{0};
};

}  // namespace icrowd

#endif  // ICROWD_ASSIGN_ADAPTIVE_ASSIGNER_H_
