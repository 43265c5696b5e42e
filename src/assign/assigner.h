#ifndef ICROWD_ASSIGN_ASSIGNER_H_
#define ICROWD_ASSIGN_ASSIGNER_H_

#include <optional>
#include <string>
#include <vector>

#include "common/binary_io.h"
#include "model/campaign_state.h"
#include "model/dataset.h"

namespace icrowd {

/// Online-pipeline counters an assigner may expose (zeros for strategies
/// that keep no scheme). The driver copies them into SimulationResult so
/// benches can attribute wall-clock to the scheme recompute vs the
/// estimate refresh without reaching into strategy internals.
struct AssignerStats {
  /// Times the full Algorithm 2/3 scheme was rebuilt (the "effective
  /// index" metric of §6.5).
  size_t scheme_recomputations = 0;
  /// Assignments served by §4.1 step-3 performance testing.
  size_t test_assignments = 0;
  /// Wall-clock seconds inside scheme recomputation (top worker sets +
  /// greedy pass) and inside the dirty-worker estimate refresh.
  double scheme_recompute_seconds = 0.0;
  double refresh_seconds = 0.0;
};

/// A task-assignment strategy (the MICROTASK ASSIGNER of Figure 1 and the
/// baselines of §6). The ICrowd facade owns the CampaignState: it calls
/// RequestTask when a worker asks for work, performs the
/// MarkAssigned/RecordAnswer bookkeeping itself, and forwards every
/// submitted answer through OnAnswer.
class Assigner {
 public:
  virtual ~Assigner() = default;

  virtual std::string name() const = 0;

  virtual AssignerStats Stats() const { return {}; }

  /// Notifies that `worker` passed warm-up with the given average accuracy
  /// on qualification tasks and is now eligible for real tasks. `state`
  /// already contains the worker's qualification answers.
  virtual void OnWorkerRegistered(WorkerId worker, double warmup_accuracy,
                                  const CampaignState& state) {
    (void)worker;
    (void)warmup_accuracy;
    (void)state;
  }

  /// Chooses a task for the requesting worker. `active_workers` is the
  /// current dynamic worker set W (§2.1). Returns nullopt when nothing can
  /// be assigned to this worker (all tasks completed/held/answered).
  virtual std::optional<TaskId> RequestTask(
      WorkerId worker, const CampaignState& state,
      const std::vector<WorkerId>& active_workers) = 0;

  /// Observes a recorded answer (already reflected in `state`).
  virtual void OnAnswer(const AnswerRecord& answer,
                        const CampaignState& state) {
    (void)answer;
    (void)state;
  }

  /// Serializes the strategy's scheduling state for ICrowd::Snapshot().
  /// Strategies without a serializable form return Unimplemented: their
  /// campaigns recover from the journal alone, whose replay re-derives
  /// every decision.
  virtual Status SerializeState(BinaryWriter* writer) const {
    (void)writer;
    return Status::Unimplemented("strategy " + name() +
                                 " has no snapshot form; recover its "
                                 "campaign from the journal");
  }
  /// Reads what SerializeState wrote. `state` is the campaign state the
  /// same snapshot restored: ids read here are checked against it.
  virtual Status RestoreState(BinaryReader* reader,
                              const CampaignState& state) {
    (void)reader;
    (void)state;
    return Status::Unimplemented("strategy " + name() +
                                 " has no snapshot form");
  }
};

/// Tasks the worker could take right now: uncompleted, has a free slot, and
/// not already assigned to this worker. Ascending by task id.
std::vector<TaskId> AssignableTasks(WorkerId worker,
                                    const CampaignState& state);

}  // namespace icrowd

#endif  // ICROWD_ASSIGN_ASSIGNER_H_
