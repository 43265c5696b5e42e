#ifndef ICROWD_ESTIMATION_ACCURACY_ESTIMATOR_H_
#define ICROWD_ESTIMATION_ACCURACY_ESTIMATOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/binary_io.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "estimation/observed_accuracy.h"
#include "graph/ppr.h"
#include "graph/similarity_graph.h"
#include "model/campaign_state.h"
#include "model/dataset.h"

namespace icrowd {

struct AccuracyEstimatorOptions {
  PprOptions ppr;
  /// Accuracy assumed for a worker with no observations at all (a random
  /// binary guesser scores 0.5; the default is mildly optimistic).
  double default_accuracy = 0.6;
  /// Pseudo-observation weight shrinking estimates toward the worker's
  /// average accuracy; guards against overconfidence off one data point.
  /// Measured in units of the seed self-mass r = α/(1+α). PPR kernel mass
  /// reaching a task from a *neighboring* observation is typically only a
  /// few percent of r, so this must stay well below 1 or the prior swamps
  /// the graph signal and every task collapses to the worker's average.
  double prior_strength = 0.02;
  /// Kernel mass below which a task is considered unreachable from the
  /// worker's observations and falls back to the average accuracy.
  double min_mass = 1e-9;
  /// Weight each observed-accuracy entry by its grading confidence
  /// |2q - 1| so near-coin-flip Eq. (5) grades carry little signal. The
  /// `ablation_estimator` bench quantifies this choice.
  bool confidence_weighting = true;
};

/// The ACCURACY ESTIMATOR component (§3, Algorithm 1). Offline it
/// precomputes per-seed personalized-PageRank vectors on the similarity
/// graph; online it computes a worker's observed accuracies q^w (Eq. 5) and
/// propagates them over the graph by linearity (Lemma 3).
///
/// Calibration note: the raw Eq. (3) output is a *score* whose magnitude
/// depends on graph topology, while Eq. (1)/(5) consume probabilities. We
/// therefore normalize kernel-style: with m_j(i) = p_{t_j}(i) the PPR
/// proximity of observed task j to task i,
///     p_i^w = (Σ_j q_j m_j(i) + λ·r·avg_w) / (Σ_j m_j(i) + λ·r)
/// (λ = prior_strength, r = α/(1+α) the seed self-mass, avg_w the worker's
/// average observed accuracy). Both sums are Lemma 3 linearity evaluations,
/// preserving the paper's O(|T|) online complexity; the raw scores remain
/// available via RawScores().
class AccuracyEstimator {
 public:
  static Result<AccuracyEstimator> Create(
      const SimilarityGraph& graph, const AccuracyEstimatorOptions& options);

  /// As Create, over an engine already precomputed (or loaded from a
  /// corpus index) under options.ppr. The engine is immutable, so any
  /// number of estimators — on any threads — may share it.
  static Result<AccuracyEstimator> FromEngine(
      std::shared_ptr<const PprEngine> engine,
      const AccuracyEstimatorOptions& options);

  /// Tasks with requester ground truth used by the warm-up; their q entries
  /// come from exact comparison rather than Eq. (5).
  void SetQualificationTasks(const std::vector<TaskId>& tasks);

  /// Allocates per-worker state. `warmup_accuracy` is the average accuracy
  /// the warm-up component measured on qualification tasks. Re-registering
  /// an estimated worker replaces its fallback and rewrites its rows.
  void RegisterWorker(WorkerId worker, double warmup_accuracy);
  /// Registers `worker` with the default accuracy if not yet registered.
  /// Parallel Refresh callers must pre-register every worker serially:
  /// registration may grow the worker table.
  void EnsureRegistered(WorkerId worker);
  bool IsRegistered(WorkerId worker) const {
    return worker >= 0 && static_cast<size_t>(worker) < workers_.size() &&
           workers_[worker].registered;
  }

  /// Recomputes q^w from the campaign state (Eq. 5 uses co-workers'
  /// *current* estimates) and refreshes p^w. Call after each batch of new
  /// consensus results involving `worker`.
  void Refresh(WorkerId worker, const CampaignState& state,
               const Dataset& dataset);

  /// Amortized dirty-set refresh (DESIGN.md §12): refreshes every listed
  /// worker against one pre-round view — the listed workers' accuracy
  /// rows frozen before any is overwritten, everyone else's live rows — so
  /// every Eq. (5) grade this round reads the same pre-round estimates no
  /// matter which worker refreshed first. Registers the workers serially,
  /// then fans the per-worker refreshes out on `pool` when the batch is
  /// large enough (serial when null). `workers` must be duplicate-free and
  /// should be sorted so the round is a deterministic function of the set.
  void RefreshMany(const std::vector<WorkerId>& workers,
                   const CampaignState& state, const Dataset& dataset,
                   ThreadPool* pool);

  /// Estimated p_t^w, read from the worker's row. Falls back to the
  /// worker's average accuracy on tasks unreachable from its observations
  /// (and before its first estimate), and to default_accuracy for
  /// unregistered workers.
  double Accuracy(WorkerId worker, TaskId task) const {
    if (!IsRegistered(worker)) return options_.default_accuracy;
    const WorkerModel& model = workers_[worker];
    if (task < 0 || static_cast<size_t>(task) >= model.accuracy.size()) {
      return model.fallback;
    }
    return model.accuracy[task];
  }

  /// The |T|-length row Accuracy() serves `worker` from, indexed by task
  /// id; unregistered workers share a row of default_accuracy. Valid until
  /// the worker is next registered, refreshed or restored.
  const double* AccuracyRow(WorkerId worker) const {
    return IsRegistered(worker) ? workers_[worker].accuracy.data()
                                : default_row_.data();
  }

  /// AccuracyRow for every worker id below `num_workers`: the view of the
  /// live estimates that the scheme rebuild scores from and Eq. (5) grades
  /// against.
  AccuracyRows LiveRows(size_t num_workers) const;

  /// Worker's average observed accuracy (the warm-up average until data
  /// accumulates).
  double FallbackAccuracy(WorkerId worker) const;

  /// Latest q^w computed by Refresh (empty before the first Refresh).
  const SparseEntries& Observed(WorkerId worker) const;

  /// Uncalibrated Eq. (3) scores Σ_j q_j p_{t_j} for diagnostics/tests.
  std::vector<double> RawScores(WorkerId worker) const;

  /// §4.1 step 3 uncertainty: variance of Beta(N1+1, N0+1) where N1/N0 are
  /// the (kernel-weighted) counts of correct/incorrect completed tasks
  /// similar to `task`. Maximal (1/12) for never-observed regions.
  double Uncertainty(WorkerId worker, TaskId task) const;

  const PprEngine& engine() const { return *engine_; }
  size_t num_tasks() const { return engine_->num_tasks(); }

  /// Adapter for components taking an AccuracyFn (aggregation, tests).
  AccuracyFn AsAccuracyFn() const;

  /// Serializes per-worker model state for ICrowd::Snapshot(). Only the
  /// irreducible inputs (warm-up accuracy, observed q^w) are stored; the
  /// rows are recomputed on restore through the same code path Refresh
  /// uses, so restored estimates are bit-identical.
  void SerializeState(BinaryWriter* writer) const;
  Status RestoreState(BinaryReader* reader);

 private:
  /// A registered worker carries two |T|-length rows, written whenever its
  /// estimate changes and read as is by Accuracy() and Uncertainty().
  struct WorkerModel {
    bool registered = false;
    double fallback = 0.6;
    double warmup_accuracy = 0.6;
    SparseEntries observed;
    std::vector<double> accuracy;     // calibrated p_t^w per task
    std::vector<double> uncertainty;  // Beta variance per task
    bool has_estimate = false;
  };

  AccuracyEstimator(std::shared_ptr<const PprEngine> engine,
                    AccuracyEstimatorOptions options)
      : engine_(std::move(engine)),
        options_(options),
        default_row_(engine_->num_tasks(), options_.default_accuracy) {}

  /// Refresh against an explicit view of co-workers' estimates. Concurrent
  /// calls on distinct registered workers are safe as long as no view
  /// entry points at a row being refreshed.
  void RefreshAgainst(WorkerId worker, const CampaignState& state,
                      const Dataset& dataset, const AccuracyRows& coworkers);

  /// Recomputes fallback from model.observed and model.warmup_accuracy,
  /// sets has_estimate and rewrites the rows. Shared by Refresh and
  /// RestoreState so both derive the estimate through identical arithmetic.
  void RebuildModelFromObserved(WorkerModel& model);

  /// Writes model's rows from its observations and current fallback:
  /// without an estimate every task reads the fallback and maximal
  /// uncertainty; with one, the two Lemma 3 sums (numerator Σ_j q_j·m_j(i)
  /// and mass Σ_j m_j(i)) are scattered into the rows and calibrated in
  /// place.
  void WriteRows(WorkerModel& model) const;

  double SeedSelfMass() const {
    return options_.ppr.alpha / (1.0 + options_.ppr.alpha);
  }

  std::shared_ptr<const PprEngine> engine_;
  AccuracyEstimatorOptions options_;
  std::vector<uint8_t> is_qualification_;  // indexed by task id
  std::vector<WorkerModel> workers_;
  std::vector<double> default_row_;  // unregistered workers' AccuracyRow
  SparseEntries empty_observed_;
};

}  // namespace icrowd

#endif  // ICROWD_ESTIMATION_ACCURACY_ESTIMATOR_H_
