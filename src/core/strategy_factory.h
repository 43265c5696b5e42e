#ifndef ICROWD_CORE_STRATEGY_FACTORY_H_
#define ICROWD_CORE_STRATEGY_FACTORY_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "assign/assigner.h"
#include "common/result.h"
#include "core/config.h"
#include "estimation/accuracy_estimator.h"
#include "host/host_config.h"
#include "model/answer.h"
#include "model/dataset.h"

namespace icrowd {

const char* StrategyName(StrategyKind kind);

/// How a strategy's final per-task results are derived.
enum class AggregationKind {
  kConsensus,                   // majority consensus from the campaign
  kMajorityVote,                // majority vote over the answer log
  kDawidSkene,                  // EM over the answer log
  kProbabilisticVerification,   // accuracy-weighted likelihood
};

/// A ready-to-run strategy: the assigner plus the aggregation its paper
/// counterpart uses and whether warm-up elimination applies.
struct Strategy {
  std::unique_ptr<Assigner> assigner;
  AggregationKind aggregation = AggregationKind::kConsensus;
  /// The Random* baselines accept every worker; the others reject below
  /// the warm-up threshold.
  bool eliminate_bad_workers = true;
  std::string name;
  /// Per-(worker, task) accuracy estimates for accuracy-weighted
  /// aggregation; bound to the assigner's internal state (valid while
  /// `assigner` lives). Null for strategies that do not estimate.
  std::function<double(WorkerId, TaskId)> accuracy_fn;
};

/// Builds `config.strategy` for `dataset`. `estimator` is the campaign's
/// graph-based estimator with its qualification tasks already set; the
/// estimating strategies take ownership of it and the others drop it.
/// `dataset` must outlive the returned strategy. `host` supplies the
/// execution-only knobs (hot-path threads, shared pool); the default is
/// serial. An adaptive strategy borrows `host.pool`, or gets a fresh pool
/// of `host.num_threads` when that is null and num_threads != 1.
Result<Strategy> MakeStrategy(const Dataset& dataset,
                              std::unique_ptr<AccuracyEstimator> estimator,
                              const ICrowdConfig& config,
                              const HostConfig& host = {});

/// Applies a strategy's aggregation, producing per-task predictions:
/// consensus-based strategies return `consensus` (one entry per task), the
/// log-based ones re-aggregate `work_answers` (answers to non-qualification
/// tasks).
Result<std::vector<Label>> AggregatePredictions(
    const Strategy& strategy, const std::vector<Label>& consensus,
    const std::vector<AnswerRecord>& work_answers);

}  // namespace icrowd

#endif  // ICROWD_CORE_STRATEGY_FACTORY_H_
