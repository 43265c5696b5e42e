#include "estimation/accuracy_estimator.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <string>
#include <utility>

#include "common/math_util.h"
#include "obs/metrics.h"

namespace icrowd {

namespace {

// Below this many answers held by a batch's dirty workers (a proxy for
// the Eq. (5) and Lemma 3 work of refreshing them) RefreshMany refreshes
// serially even when a pool is given. Measured with Release builds on a
// shared 4-vCPU x86-64 container, micro_assign's BM_RefreshMany on a
// 1,600-task entity-resolution corpus, serial vs a 2-thread pool: with
// about 40 answers per worker the pool was within noise up to 6 workers
// (4: 0.21 vs 0.23 ms; 6: 0.31 vs 0.30) and won from 8 (0.42 -> 0.36 ms)
// to 16 (0.94 -> 0.65); with about 100 per worker it won from 2 workers
// (0.20 -> 0.14 ms; 3: 0.40 -> 0.29; 4: 0.49 -> 0.38). Counting workers
// alone kept perfbench's big_corpus batches (about 3 late-campaign workers)
// serial, which saved CPU per event but left throughput below the pooled
// round's.
constexpr size_t kParallelRefreshAnswers = 200;

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
  is_qualification_.assign(num_tasks(), 0);
  for (TaskId t : tasks) {
    if (t >= 0 && static_cast<size_t>(t) < is_qualification_.size()) {
      is_qualification_[t] = 1;
    }
  }
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
  // The fallback is part of every served accuracy, so an estimated worker's
  // rows are rebuilt too, from its unchanged observations.
  WriteRows(model);
}

void AccuracyEstimator::EnsureRegistered(WorkerId worker) {
  if (!IsRegistered(worker)) RegisterWorker(worker, options_.default_accuracy);
}

AccuracyRows AccuracyEstimator::LiveRows(size_t num_workers) const {
  AccuracyRows rows(num_workers);
  for (size_t w = 0; w < num_workers; ++w) {
    rows[w] = AccuracyRow(static_cast<WorkerId>(w));
  }
  return rows;
}

void AccuracyEstimator::Refresh(WorkerId worker, const CampaignState& state,
                                const Dataset& dataset) {
  // Eq. (5) consumes co-workers' *current* estimates, which is exactly this
  // estimator's live rows before the update below.
  EnsureRegistered(worker);
  RefreshAgainst(worker, state, dataset,
                 LiveRows(std::max(state.num_workers(), workers_.size())));
}

void AccuracyEstimator::RefreshAgainst(WorkerId worker,
                                       const CampaignState& state,
                                       const Dataset& dataset,
                                       const AccuracyRows& coworkers) {
  auto& registry = obs::MetricsRegistry::Global();
  static const obs::Counter refreshes = registry.GetCounter(
      "icrowd.estimation.refreshes",
      {true, "per-worker Eq. (5) estimate refreshes"});
  static const obs::Counter observed_entries = registry.GetCounter(
      "icrowd.estimation.observed_entries",
      {true, "graded (task, accuracy) observations consumed by refreshes"});
  WorkerModel& model = workers_[worker];
  model.observed = ComputeObservedAccuracies(worker, state, dataset,
                                             is_qualification_, coworkers);
  refreshes.Increment();
  observed_entries.Increment(model.observed.size());
  RebuildModelFromObserved(model);
}

void AccuracyEstimator::RefreshMany(const std::vector<WorkerId>& workers,
                                    const CampaignState& state,
                                    const Dataset& dataset, ThreadPool* pool) {
  static const obs::Counter snapshots =
      obs::MetricsRegistry::Global().GetCounter(
          "icrowd.estimation.snapshots",
          {true, "pre-round row views frozen for dirty-set refreshes"});
  if (workers.empty()) return;
  snapshots.Increment();
  // Freeze the batch's accuracy rows before any is overwritten: every
  // refresh this round grades against the same pre-round estimates, so the
  // results cannot depend on refresh order, which makes the parallel
  // fan-out below bit-identical to the serial loop at any thread count.
  // The listed workers are exactly the ones being rewritten; everyone
  // else's live row is read-only during the round. An unregistered worker
  // freezes the default row, which is what it reads as right now.
  const size_t n = num_tasks();
  thread_local std::vector<double> frozen;
  frozen.resize(workers.size() * n);
  for (size_t i = 0; i < workers.size(); ++i) {
    const double* row = AccuracyRow(workers[i]);
    std::copy(row, row + n, frozen.begin() + static_cast<ptrdiff_t>(i * n));
  }
  // Registration may grow the worker table — do it serially up front.
  for (WorkerId w : workers) EnsureRegistered(w);
  AccuracyRows pre_round =
      LiveRows(std::max(state.num_workers(), workers_.size()));
  for (size_t i = 0; i < workers.size(); ++i) {
    pre_round[workers[i]] = &frozen[i * n];
  }
  auto refresh_one = [&](size_t i) {
    RefreshAgainst(workers[i], state, dataset, pre_round);
  };
  size_t answers = 0;
  for (WorkerId w : workers) answers += state.WorkerAnswers(w).size();
  if (pool != nullptr && answers >= kParallelRefreshAnswers) {
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
  model.has_estimate = true;
  WriteRows(model);
}

void AccuracyEstimator::WriteRows(WorkerModel& model) const {
  const size_t n = engine_->num_tasks();
  if (!model.has_estimate) {
    model.accuracy.assign(n, model.fallback);
    model.uncertainty.assign(n, BetaVariance(1.0, 1.0));
    return;
  }
  // Weight each observation by grading confidence |2q - 1|: qualification
  // grades (q in {0, 1}) count fully, while a near-coin-flip Eq. (5) grade
  // (q ~ 0.5, a split vote among weak co-workers) carries almost no signal
  // and would otherwise just drag estimates toward 0.5.
  //
  // Both Lemma 3 sums — numerator with weights q·c, mass with weights c —
  // in one pass over each observed seed vector, into the two rows, one
  // contiguous run of task ids at a time (its first id, which every run
  // has, before the loop, as in PprEngine::EstimateFromObserved). Each
  // accumulator still adds its terms in observed-task order and skips its
  // own zero weights, so both are bit-identical to two separate
  // propagations (and counted as two).
  model.accuracy.assign(n, 0.0);
  model.uncertainty.assign(n, 0.0);
  double* const numerator = model.accuracy.data();
  double* const mass = model.uncertainty.data();
  uint64_t terms = 0;
  for (const auto& [t, q] : model.observed) {
    const double confidence =
        options_.confidence_weighting ? std::abs(2.0 * q - 1.0) : 1.0;
    const double weighted = q * confidence;
    // weighted != 0 implies confidence != 0, so these three cases cover
    // every pair of zero skips.
    if (confidence == 0.0) continue;
    const SeedVectorView seed = engine_->SeedVector(static_cast<size_t>(t));
    const double* v = seed.values().data();
    if (weighted == 0.0) {
      terms += seed.size();
      for (const SeedRun& run : seed.runs()) {
        double* const m = mass + run.start;
        m[0] += confidence * v[0];
        for (int32_t k = 1; k < run.length; ++k) m[k] += confidence * v[k];
        v += run.length;
      }
    } else {
      terms += 2 * seed.size();
      for (const SeedRun& run : seed.runs()) {
        double* const num = numerator + run.start;
        double* const m = mass + run.start;
        num[0] += weighted * v[0];
        m[0] += confidence * v[0];
        for (int32_t k = 1; k < run.length; ++k) {
          num[k] += weighted * v[k];
          m[k] += confidence * v[k];
        }
        v += run.length;
      }
    }
  }
  PprEngine::CountEstimates(2, terms);

  // Calibrate in place. Accuracy is the prior-smoothed kernel average
  //   p_i = (numerator_i + λ·r·fallback) / (mass_i + λ·r)
  // (the fallback where no observation reaches i); uncertainty converts
  // both masses to effective counts — a completed task identical to i
  // contributes self-mass r, i.e. one unit — and takes the Beta variance.
  const double prior_mass = options_.prior_strength * SeedSelfMass();
  const double scale = 1.0 / SeedSelfMass();
  for (size_t i = 0; i < n; ++i) {
    const double num = numerator[i];
    const double m = mass[i];
    numerator[i] = m <= options_.min_mass
                       ? model.fallback
                       : ClampProbability((num + prior_mass * model.fallback) /
                                              (m + prior_mass),
                                          0.02);
    const double n1 = std::max(0.0, num * scale);
    const double n0 = std::max(n1, m * scale) - n1;
    mass[i] = BetaVariance(n1 + 1.0, n0 + 1.0);
  }
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
  if (!IsRegistered(worker)) return BetaVariance(1.0, 1.0);
  const WorkerModel& model = workers_[worker];
  if (task < 0 || static_cast<size_t>(task) >= model.uncertainty.size()) {
    return BetaVariance(1.0, 1.0);
  }
  return model.uncertainty[task];
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
    // The rows are pure functions of (observed, warmup_accuracy); rebuilding
    // through the Refresh code path reproduces them bit-exactly.
    if (has_estimate) {
      RebuildModelFromObserved(model);
    } else if (model.registered) {
      WriteRows(model);
    }
    workers_.push_back(std::move(model));
  }
  return reader->status();
}

}  // namespace icrowd
