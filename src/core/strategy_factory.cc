#include "core/strategy_factory.h"

#include "agg/dawid_skene.h"
#include "agg/majority_vote.h"
#include "agg/probabilistic_verification.h"
#include "assign/adaptive_assigner.h"
#include "assign/avgacc_assigner.h"
#include "assign/best_effort_assigner.h"
#include "assign/hungarian_assigner.h"
#include "assign/random_assigner.h"

namespace icrowd {

const char* StrategyName(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kRandomMV:
      return "RandomMV";
    case StrategyKind::kRandomEM:
      return "RandomEM";
    case StrategyKind::kAvgAccPV:
      return "AvgAccPV";
    case StrategyKind::kQfOnly:
      return "QF-Only";
    case StrategyKind::kBestEffort:
      return "BestEffort";
    case StrategyKind::kAdapt:
      return "iCrowd";
    case StrategyKind::kAdaptSingleRound:
      return "SingleRound";
    case StrategyKind::kAdaptNoTesting:
      return "NoPerfTesting";
    case StrategyKind::kHungarian:
      return "Hungarian";
  }
  return "?";
}

Result<Strategy> MakeStrategy(const Dataset& dataset,
                              std::unique_ptr<AccuracyEstimator> estimator,
                              const ICrowdConfig& config,
                              const HostConfig& host) {
  if (estimator == nullptr) {
    return Status::InvalidArgument("MakeStrategy needs an accuracy estimator");
  }
  Strategy strategy;
  strategy.name = StrategyName(config.strategy);
  AdaptiveAssignerOptions adaptive;
  switch (config.strategy) {
    case StrategyKind::kRandomMV:
    case StrategyKind::kRandomEM:
      strategy.assigner = std::make_unique<RandomAssigner>(config.seed);
      strategy.aggregation = config.strategy == StrategyKind::kRandomMV
                                 ? AggregationKind::kMajorityVote
                                 : AggregationKind::kDawidSkene;
      strategy.eliminate_bad_workers = false;
      return strategy;
    case StrategyKind::kAvgAccPV: {
      AvgAccAssignerOptions options;
      options.accept_threshold = config.warmup.rejection_threshold;
      options.seed = config.seed;
      auto assigner = std::make_unique<AvgAccAssigner>(options);
      AvgAccAssigner* raw = assigner.get();
      strategy.assigner = std::move(assigner);
      strategy.aggregation = AggregationKind::kProbabilisticVerification;
      strategy.accuracy_fn = [raw](WorkerId w, TaskId) {
        return raw->AverageAccuracy(w);
      };
      return strategy;
    }
    case StrategyKind::kBestEffort:
      strategy.accuracy_fn = estimator->AsAccuracyFn();
      strategy.assigner =
          std::make_unique<BestEffortAssigner>(&dataset, std::move(estimator));
      return strategy;
    case StrategyKind::kHungarian:
      strategy.accuracy_fn = estimator->AsAccuracyFn();
      strategy.assigner =
          std::make_unique<HungarianAssigner>(&dataset, std::move(estimator));
      return strategy;
    case StrategyKind::kQfOnly:
      adaptive.adaptive_updates = false;
      break;
    case StrategyKind::kAdaptSingleRound:
      adaptive.multi_round_planning = false;
      break;
    case StrategyKind::kAdaptNoTesting:
      adaptive.performance_testing = false;
      break;
    case StrategyKind::kAdapt:
      break;
    default:
      return Status::InvalidArgument("unknown strategy kind");
  }
  // One of the two places a pool is created, under the same rule as
  // CampaignManager::Start: a hosted campaign arrives with the host's
  // shared pool, so only a solo facade reaches the make_shared.
  adaptive.pool = host.pool;
  if (adaptive.pool == nullptr && host.num_threads != 1) {
    adaptive.pool = std::make_shared<ThreadPool>(host.num_threads);
  }
  strategy.accuracy_fn = estimator->AsAccuracyFn();
  strategy.assigner = std::make_unique<AdaptiveAssigner>(
      &dataset, std::move(estimator), std::move(adaptive));
  return strategy;
}

Result<std::vector<Label>> AggregatePredictions(
    const Strategy& strategy, const std::vector<Label>& consensus,
    const std::vector<AnswerRecord>& work_answers) {
  switch (strategy.aggregation) {
    case AggregationKind::kConsensus:
      return consensus;
    case AggregationKind::kMajorityVote:
      return MajorityVoteAggregator().Aggregate(consensus.size(),
                                                work_answers);
    case AggregationKind::kDawidSkene:
      return DawidSkeneAggregator().Aggregate(consensus.size(), work_answers);
    case AggregationKind::kProbabilisticVerification:
      if (!strategy.accuracy_fn) {
        return Status::FailedPrecondition(
            "probabilistic verification needs strategy.accuracy_fn");
      }
      return ProbabilisticVerificationAggregator(strategy.accuracy_fn)
          .Aggregate(consensus.size(), work_answers);
  }
  return Status::InvalidArgument("unknown aggregation kind");
}

}  // namespace icrowd
