#include "sim/campaign_driver.h"

#include "common/random.h"

namespace icrowd {

namespace {

/// SplitMix64-style mixer deriving an independent answer-noise seed per
/// (campaign seed, worker, task) triple.
uint64_t MixSeed(uint64_t seed, WorkerId worker, TaskId task) {
  uint64_t z = seed;
  z ^= 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(
                                   static_cast<int64_t>(worker)) *
                                   0xbf58476d1ce4e5b9ull;
  z ^= 0x94d049bb133111ebull + static_cast<uint64_t>(
                                   static_cast<int64_t>(task)) *
                                   0x2545f4914f6cdd1dull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Post-warm-up answers after which worker w departs (leave_after > 0).
size_t LeaveThreshold(const CampaignDriverOptions& options, WorkerId w) {
  return static_cast<size_t>(options.leave_after) +
         static_cast<size_t>(w % 3);
}

}  // namespace

Label SimulatedAnswer(uint64_t seed, WorkerId worker, TaskId task,
                      const Microtask& microtask,
                      const WorkerProfile& profile) {
  Rng rng(MixSeed(seed, worker, task));
  Label truth = microtask.ground_truth.value_or(kNo);
  if (rng.Bernoulli(profile.TrueAccuracy(microtask))) return truth;
  if (microtask.num_choices <= 1) return truth;
  // Uniform over the wrong labels in [0, num_choices).
  Label wrong = static_cast<Label>(
      rng.UniformInt(0, microtask.num_choices - 2));
  if (wrong >= truth && truth >= 0) ++wrong;
  return wrong;
}

Result<DriveOutcome> DriveCampaign(ICrowd* system,
                                   const std::vector<WorkerProfile>& profiles,
                                   size_t num_workers,
                                   const CampaignDriverOptions& options) {
  if (system == nullptr) {
    return Status::InvalidArgument("system must not be null");
  }
  if (profiles.empty()) {
    return Status::InvalidArgument("need at least one worker profile");
  }
  if (num_workers == 0) {
    return Status::InvalidArgument("need at least one worker");
  }
  DriveOutcome outcome;
  // A restored campaign already carries its workers; arrive only the rest.
  while (system->state().num_workers() < num_workers) {
    auto arrived = system->OnWorkerArrived();
    if (!arrived.ok()) return arrived.status();
  }
  // A restored campaign can carry an in-flight assignment (the crash cut
  // between serve and answer). The uninterrupted drive answered every serve
  // before anyone requested again, so settle it before any request.
  for (size_t i = 0; i < num_workers; ++i) {
    WorkerId w = static_cast<WorkerId>(i);
    if (auto held = system->HeldTask(w)) {
      const WorkerProfile& profile = profiles[i % profiles.size()];
      Label answer = SimulatedAnswer(options.seed, w, *held,
                                     system->dataset().task(*held), profile);
      ICROWD_RETURN_NOT_OK(system->SubmitAnswer(w, *held, answer));
      ++outcome.answers;
    }
  }
  for (int round = 0; round < options.max_rounds && !system->Finished();
       ++round) {
    outcome.rounds = round + 1;
    bool served = false;
    for (size_t i = 0; i < num_workers && !system->Finished(); ++i) {
      WorkerId w = static_cast<WorkerId>(i);
      ICrowd::WorkerStatus status = system->worker_status(w);
      if (status != ICrowd::WorkerStatus::kWarmup &&
          status != ICrowd::WorkerStatus::kActive) {
        continue;
      }
      if (options.leave_after > 0 &&
          status == ICrowd::WorkerStatus::kActive &&
          system->state().WorkerAnswers(w).size() >=
              LeaveThreshold(options, w)) {
        ICROWD_RETURN_NOT_OK(system->OnWorkerLeft(w));
        continue;
      }
      auto task = system->RequestTask(w);
      if (!task.ok()) return task.status();
      if (!task->has_value()) continue;
      served = true;
      TaskId t = task->value();
      const WorkerProfile& profile = profiles[i % profiles.size()];
      Label answer = SimulatedAnswer(options.seed, w, t,
                                     system->dataset().task(t), profile);
      ICROWD_RETURN_NOT_OK(system->SubmitAnswer(w, t, answer));
      ++outcome.answers;
      if (options.snapshot_every > 0 &&
          system->state().AllAnswers().size() %
                  static_cast<size_t>(options.snapshot_every) ==
              0) {
        auto snapshot = system->Snapshot();
        if (!snapshot.ok()) return snapshot.status();
        outcome.snapshots.push_back(
            {system->events_applied(), snapshot.MoveValueOrDie()});
      }
    }
    if (!served) break;
  }
  outcome.finished = system->Finished();
  return outcome;
}

}  // namespace icrowd
