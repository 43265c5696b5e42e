#include "estimation/accuracy_estimator.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/math_util.h"
#include "obs/metrics.h"

namespace icrowd {

namespace {

Status ValidateOptions(const AccuracyEstimatorOptions& options) {
  if (options.default_accuracy <= 0.0 || options.default_accuracy >= 1.0) {
    return Status::InvalidArgument("default_accuracy must be in (0, 1)");
  }
  if (options.prior_strength < 0.0) {
    return Status::InvalidArgument("prior_strength must be >= 0");
  }
  return Status::OK();
}

}  // namespace

Result<AccuracyEstimator> AccuracyEstimator::Create(
    const SimilarityGraph& graph, const AccuracyEstimatorOptions& options) {
  ICROWD_RETURN_NOT_OK(ValidateOptions(options));
  auto engine = PprEngine::Precompute(graph, options.ppr);
  if (!engine.ok()) return engine.status();
  return AccuracyEstimator(
      std::make_shared<const PprEngine>(engine.MoveValueOrDie()), options);
}

Result<AccuracyEstimator> AccuracyEstimator::FromEngine(
    std::shared_ptr<const PprEngine> engine,
    const AccuracyEstimatorOptions& options) {
  ICROWD_RETURN_NOT_OK(ValidateOptions(options));
  if (engine == nullptr) {
    return Status::InvalidArgument("no PPR engine to estimate over");
  }
  if (!(engine->options() == options.ppr)) {
    return Status::InvalidArgument(
        "PPR engine was solved under other options than the estimator's");
  }
  return AccuracyEstimator(std::move(engine), options);
}

void AccuracyEstimator::SetQualificationTasks(
    const std::vector<TaskId>& tasks) {
  qualification_ = std::set<TaskId>(tasks.begin(), tasks.end());
}

void AccuracyEstimator::RegisterWorker(WorkerId worker,
                                       double warmup_accuracy) {
  if (worker < 0) return;
  if (static_cast<size_t>(worker) >= workers_.size()) {
    workers_.resize(worker + 1);
  }
  WorkerModel& model = workers_[worker];
  model.registered = true;
  model.warmup_accuracy = ClampProbability(warmup_accuracy, 0.02);
  model.fallback = model.warmup_accuracy;
}

void AccuracyEstimator::EnsureRegistered(WorkerId worker) {
  if (!IsRegistered(worker)) RegisterWorker(worker, options_.default_accuracy);
}

void AccuracyEstimator::Refresh(WorkerId worker, const CampaignState& state,
                                const Dataset& dataset) {
  // Eq. (5) consumes co-workers' *current* estimates, which is exactly this
  // estimator queried before the update below.
  Refresh(worker, state, dataset, AsAccuracyFn());
}

void AccuracyEstimator::Refresh(WorkerId worker, const CampaignState& state,
                                const Dataset& dataset,
                                const AccuracyFn& coworker_accuracy) {
  auto& registry = obs::MetricsRegistry::Global();
  static const obs::Counter refreshes = registry.GetCounter(
      "icrowd.estimation.refreshes",
      {true, "per-worker Eq. (5) estimate refreshes"});
  static const obs::Counter observed_entries = registry.GetCounter(
      "icrowd.estimation.observed_entries",
      {true, "graded (task, accuracy) observations consumed by refreshes"});
  EnsureRegistered(worker);
  WorkerModel& model = workers_[worker];
  model.observed = ComputeObservedAccuracies(worker, state, dataset,
                                             qualification_, coworker_accuracy);
  refreshes.Increment();
  observed_entries.Increment(model.observed.size());
  RebuildModelFromObserved(model);
}

void AccuracyEstimator::RefreshMany(const std::vector<WorkerId>& workers,
                                    const CampaignState& state,
                                    const Dataset& dataset, ThreadPool* pool) {
  if (workers.empty()) return;
  // Snapshot the Eq. (5) inputs before any model is overwritten: every
  // refresh this round grades against the same pre-round estimates, so the
  // results cannot depend on refresh order — which makes the parallel
  // fan-out below bit-identical to the serial loop at any thread count.
  // The listed workers are exactly the set being mutated; everyone else's
  // live state is read-only during the round.
  AccuracyFn pre_round = SnapshotAccuracyFn(workers);
  // Registration may grow the worker table — do it serially up front.
  for (WorkerId w : workers) EnsureRegistered(w);
  auto refresh_one = [&](size_t i) {
    Refresh(workers[i], state, dataset, pre_round);
  };
  if (pool != nullptr) {
    pool->ParallelFor(workers.size(), refresh_one);
  } else {
    for (size_t i = 0; i < workers.size(); ++i) refresh_one(i);
  }
}

void AccuracyEstimator::RebuildModelFromObserved(WorkerModel& model) {
  // Average observed accuracy, shrunk toward the warm-up measurement.
  double q_sum = 0.0;
  for (const auto& [_, q] : model.observed) q_sum += q;
  double count = static_cast<double>(model.observed.size());
  model.fallback = ClampProbability(
      (model.warmup_accuracy * options_.prior_strength + q_sum) /
          (options_.prior_strength + count),
      0.02);

  // Weight each observation by grading confidence |2q - 1|: qualification
  // grades (q in {0, 1}) count fully, while a near-coin-flip Eq. (5) grade
  // (q ~ 0.5, a split vote among weak co-workers) carries almost no signal
  // and would otherwise just drag estimates toward 0.5.
  //
  // Both Lemma 3 sums — numerator with weights q·c, mass with weights c —
  // in one pass over each observed seed vector, into the model's own
  // buffers. Each accumulator still adds its terms in observed-task order
  // and skips its own zero weights, so both are bit-identical to two
  // separate propagations (and counted as two).
  const size_t n = engine_->num_tasks();
  model.numerator.assign(n, 0.0);
  model.mass.assign(n, 0.0);
  double* const numerator = model.numerator.data();
  double* const mass = model.mass.data();
  uint64_t terms = 0;
  for (const auto& [t, q] : model.observed) {
    const double confidence =
        options_.confidence_weighting ? std::abs(2.0 * q - 1.0) : 1.0;
    const double weighted = q * confidence;
    // weighted != 0 implies confidence != 0, so these three cases cover
    // every pair of zero skips.
    if (confidence == 0.0) continue;
    const SparseEntries& seed = engine_->SeedVector(static_cast<size_t>(t));
    if (weighted == 0.0) {
      terms += seed.size();
      for (const auto& [j, v] : seed) mass[j] += confidence * v;
    } else {
      terms += 2 * seed.size();
      for (const auto& [j, v] : seed) {
        numerator[j] += weighted * v;
        mass[j] += confidence * v;
      }
    }
  }
  PprEngine::CountEstimates(2, terms);
  model.has_estimate = true;
}

double AccuracyEstimator::AccuracyFromModel(const WorkerModel& model,
                                            TaskId task) const {
  if (!model.registered) return options_.default_accuracy;
  if (!model.has_estimate || task < 0 ||
      static_cast<size_t>(task) >= model.mass.size()) {
    return model.fallback;
  }
  double mass = model.mass[task];
  if (mass <= options_.min_mass) return model.fallback;
  double prior_mass = options_.prior_strength * SeedSelfMass();
  double p = (model.numerator[task] + prior_mass * model.fallback) /
             (mass + prior_mass);
  return ClampProbability(p, 0.02);
}

double AccuracyEstimator::Accuracy(WorkerId worker, TaskId task) const {
  if (!IsRegistered(worker)) return options_.default_accuracy;
  return AccuracyFromModel(workers_[worker], task);
}

AccuracyFn AccuracyEstimator::SnapshotAccuracyFn(
    const std::vector<WorkerId>& workers) const {
  static const obs::Counter snapshots =
      obs::MetricsRegistry::Global().GetCounter(
          "icrowd.estimation.snapshots",
          {true, "pre-round model snapshots taken for parallel refreshes"});
  snapshots.Increment();
  auto frozen =
      std::make_shared<std::unordered_map<WorkerId, WorkerModel>>();
  frozen->reserve(workers.size());
  for (WorkerId w : workers) {
    // Unregistered workers freeze as a default model (registered = false),
    // matching what Accuracy() would have returned for them right now.
    (*frozen)[w] = IsRegistered(w) ? workers_[w] : WorkerModel{};
  }
  return [this, frozen](WorkerId w, TaskId t) {
    auto it = frozen->find(w);
    if (it != frozen->end()) return AccuracyFromModel(it->second, t);
    return Accuracy(w, t);
  };
}

double AccuracyEstimator::FallbackAccuracy(WorkerId worker) const {
  if (!IsRegistered(worker)) return options_.default_accuracy;
  return workers_[worker].fallback;
}

const SparseEntries& AccuracyEstimator::Observed(WorkerId worker) const {
  if (!IsRegistered(worker)) return empty_observed_;
  return workers_[worker].observed;
}

std::vector<double> AccuracyEstimator::RawScores(WorkerId worker) const {
  if (!IsRegistered(worker) || !workers_[worker].has_estimate) {
    return std::vector<double>(num_tasks(), 0.0);
  }
  return engine_->EstimateFromObserved(workers_[worker].observed);
}

double AccuracyEstimator::Uncertainty(WorkerId worker, TaskId task) const {
  // Beta(1, 1) variance (= 1/12): maximal uncertainty.
  if (!IsRegistered(worker) || !workers_[worker].has_estimate) {
    return BetaVariance(1.0, 1.0);
  }
  const WorkerModel& model = workers_[worker];
  if (task < 0 || static_cast<size_t>(task) >= model.mass.size()) {
    return BetaVariance(1.0, 1.0);
  }
  // Kernel masses converted to effective counts: a completed task identical
  // to `task` contributes self-mass r, i.e. one unit.
  double scale = 1.0 / SeedSelfMass();
  double n1 = std::max(0.0, model.numerator[task] * scale);
  double n = std::max(n1, model.mass[task] * scale);
  double n0 = n - n1;
  return BetaVariance(n1 + 1.0, n0 + 1.0);
}

AccuracyFn AccuracyEstimator::AsAccuracyFn() const {
  return [this](WorkerId w, TaskId t) { return Accuracy(w, t); };
}

void AccuracyEstimator::SerializeState(BinaryWriter* writer) const {
  writer->U64(workers_.size());
  for (const WorkerModel& model : workers_) {
    writer->U8(model.registered ? 1 : 0);
    writer->U8(model.has_estimate ? 1 : 0);
    writer->F64(model.warmup_accuracy);
    writer->U64(model.observed.size());
    for (const auto& [task, q] : model.observed) {
      writer->I32(task);
      writer->F64(q);
    }
  }
}

Status AccuracyEstimator::RestoreState(BinaryReader* reader) {
  uint64_t count = reader->U64();
  workers_.clear();
  for (uint64_t i = 0; i < count && reader->ok(); ++i) {
    WorkerModel model;
    model.registered = reader->U8() != 0;
    bool has_estimate = reader->U8() != 0;
    model.warmup_accuracy = reader->F64();
    model.fallback = model.warmup_accuracy;
    uint64_t observed = reader->U64();
    for (uint64_t j = 0; j < observed && reader->ok(); ++j) {
      TaskId task = reader->I32();
      double q = reader->F64();
      // The rebuild below indexes the engine's seed vectors by task.
      if (task < 0 || static_cast<size_t>(task) >= num_tasks()) {
        return Status::InvalidArgument(
            "snapshot has an observation for unknown task " +
            std::to_string(task));
      }
      model.observed.emplace_back(task, q);
    }
    if (!reader->ok()) break;
    // numerator/mass are pure functions of (observed, warmup_accuracy);
    // rebuilding through the Refresh code path reproduces them bit-exactly.
    if (has_estimate) RebuildModelFromObserved(model);
    workers_.push_back(std::move(model));
  }
  return reader->status();
}

}  // namespace icrowd
