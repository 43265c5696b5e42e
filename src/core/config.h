#ifndef ICROWD_CORE_CONFIG_H_
#define ICROWD_CORE_CONFIG_H_

#include <cstdint>
#include <memory>

#include "core/clock.h"
#include "estimation/accuracy_estimator.h"
#include "graph/similarity_graph.h"
#include "journal/journal.h"
#include "qualification/warmup.h"

namespace icrowd {

/// Every assignment/aggregation strategy evaluated in §6, plus the
/// assignment ablations. The values are stable: they enter the campaign
/// fingerprint and name parameterized tests.
enum class StrategyKind {
  kRandomMV,    // random assignment + majority voting
  kRandomEM,    // random assignment + Dawid-Skene EM
  kAvgAccPV,    // gold average accuracy + probabilistic verification [22]
  kQfOnly,      // qualification-frozen estimates + optimal assignment
  kBestEffort,  // adaptive estimates, worker-local greedy assignment
  kAdapt,       // full iCrowd (graph estimation + Algorithm 2)
  kAdaptSingleRound,  // ablation: one Algorithm 3 pass per scheme
  kAdaptNoTesting,    // ablation: no §4.1 step-3 performance testing
  kHungarian,  // ablation: adaptive estimates + one-to-one Hungarian matching
};

/// Every *decision-relevant* knob of the iCrowd pipeline, defaulted to the
/// paper's settings: k = 3 (§6.1), Q = 10 (§6.3.1), α = 1.0 (§D.2),
/// Cos(topic) similarity at threshold 0.8 (§D.1), warm-up with 5
/// qualification tasks and rejection threshold 0.6 (§2.2).
///
/// Everything here (plus the dataset) enters the campaign fingerprint that
/// binds journals and snapshots to their campaign — except the two
/// injection points `clock` and `journal_sink`, which carry no decisions of
/// their own (the clock's *readings* are journaled; the sink only stores
/// bytes). Execution knobs — thread counts, pools, shard layout, journal
/// paths, observability ports — live in HostConfig (host/host_config.h):
/// the v2 API split that makes "same config, any machine shape, identical
/// bytes" a type-system guarantee.
struct ICrowdConfig {
  /// Assignment strategy and result aggregation (built by MakeStrategy).
  StrategyKind strategy = StrategyKind::kAdapt;
  /// Assignment size k: answers solicited per microtask (odd).
  int assignment_size = 3;
  /// Number Q of qualification microtasks the requester labels.
  size_t num_qualification = 10;
  /// Select qualification tasks by greedy influence maximization (InfQF,
  /// Algorithm 4) instead of uniformly at random (RandomQF).
  bool qualification_greedy = true;
  /// PPR mass below this does not count as influence when selecting
  /// qualification tasks (Definition 5 counts "non-zero" entries; a small
  /// threshold makes coverage reflect *useful* propagation mass, stopping
  /// the greedy from favoring hubs whose normalized per-neighbor mass is
  /// negligible).
  double influence_epsilon = 0.003;
  /// Similarity-graph construction (§3.3 / §D.1).
  GraphBuildOptions graph;
  /// Graph-based estimation (§3.1); estimator.ppr.alpha is the paper's α.
  AccuracyEstimatorOptions estimator;
  /// Warm-up / bad-worker elimination (§2.2).
  WarmupOptions warmup;
  /// §4.1 step 1: a worker counts as active while its last task request is
  /// within this window (the paper suggests 30 minutes).
  double activity_window_seconds = 1800.0;
  /// Time source for §4.1 activity tracking. Null (the default) runs a
  /// deterministic logical clock advancing one second per RequestTask;
  /// platform integrations inject a SteadyClock (or ManualClock in tests).
  /// All configuration is fixed at construction — there is no setter.
  std::shared_ptr<Clock> clock;
  /// Write-ahead journal destination. When set, every mutating platform
  /// callback is journaled before state changes and the campaign can be
  /// recovered with ICrowd::Restore(); null runs unjournaled.
  std::shared_ptr<JournalSink> journal_sink;
  uint64_t seed = 123;
};

}  // namespace icrowd

#endif  // ICROWD_CORE_CONFIG_H_
