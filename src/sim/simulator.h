#ifndef ICROWD_SIM_SIMULATOR_H_
#define ICROWD_SIM_SIMULATOR_H_

#include <vector>

#include "assign/assigner.h"
#include "common/result.h"
#include "core/icrowd.h"
#include "sim/worker_profile.h"

namespace icrowd {

struct SimulationOptions {
  /// Seed of the crowd's answer noise.
  uint64_t seed = 123;
  /// Hard cap on simulated events (guards against livelock).
  size_t max_events = 5'000'000;
  /// When every worker has left but tasks remain, fresh workers with the
  /// same profiles arrive (the dynamic worker set of §2.1). Caps how many
  /// times the pool may be recycled.
  int max_pool_respawns = 50;
  /// Payment per completed assignment in dollars (the paper priced each
  /// assignment at $0.1, Appendix A / §6.1). Workers cannot tell
  /// qualification tasks apart, so those assignments are paid too.
  double price_per_assignment = 0.1;
};

/// What a campaign run produced, for downstream aggregation/metrics.
struct SimulationResult {
  /// Per-task result: the majority consensus (Campaign semantics) with
  /// qualification tasks fixed to their ground truth; kNoLabel when a task
  /// never completed.
  std::vector<Label> consensus;
  /// Every recorded answer, including qualification answers (time-ordered).
  std::vector<AnswerRecord> answers;
  /// Answers excluding qualification tasks.
  std::vector<AnswerRecord> work_answers;
  std::vector<TaskId> qualification_tasks;
  /// WorkerId -> index into the profile pool (ids beyond the first spawn
  /// wrap around on respawns).
  std::vector<size_t> worker_profile;
  /// Task requests that reached the strategy's assigner (warm-up
  /// qualification requests excluded).
  size_t num_requests = 0;
  size_t workers_spawned = 0;
  size_t workers_rejected = 0;
  /// Online-pipeline counters copied from the assigner at campaign end
  /// (scheme recomputations, step-3 test assignments, and the wall-clock
  /// split between scheme recompute and estimate refresh).
  AssignerStats assigner;
  /// Requester spend: every recorded answer is one paid assignment.
  double total_cost = 0.0;
  /// Portion of total_cost spent on qualification (warm-up) answers.
  double qualification_cost = 0.0;
  bool completed_all = false;
};

/// Discrete-event crowd model standing in for AMT (Appendix A). It holds
/// only what the crowd owns — worker arrivals and dwell times, per-domain
/// answer accuracy, willingness, pool respawns and payments — and drives a
/// campaign through exactly the platform callbacks a real integration
/// uses: OnWorkerArrived, RequestTask, SubmitAnswer and OnWorkerLeft. Every
/// assignment decision, warm-up grade and piece of bookkeeping is the
/// ICrowd facade's own. Workers leave when their willingness is exhausted
/// or nothing is assignable to them.
class CrowdSimulator {
 public:
  /// `profiles` must outlive the simulator.
  CrowdSimulator(const std::vector<WorkerProfile>* profiles,
                 SimulationOptions options)
      : profiles_(profiles), options_(std::move(options)) {}

  /// Runs `system` to completion. Its config.clock must be a ManualClock:
  /// the simulator sets it to event time before every request. Every task
  /// needs ground truth (used to generate worker answers). A fresh campaign
  /// is expected — the pool arrives in profile order, so worker ids index
  /// the profiles.
  Result<SimulationResult> Run(ICrowd* system);

 private:
  const std::vector<WorkerProfile>* profiles_;
  SimulationOptions options_;
};

}  // namespace icrowd

#endif  // ICROWD_SIM_SIMULATOR_H_
