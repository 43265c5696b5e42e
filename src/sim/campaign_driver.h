#ifndef ICROWD_SIM_CAMPAIGN_DRIVER_H_
#define ICROWD_SIM_CAMPAIGN_DRIVER_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "core/icrowd.h"
#include "sim/worker_profile.h"

namespace icrowd {

/// Drives simulated workers through the ICrowd *public* platform API
/// (OnWorkerArrived / RequestTask / SubmitAnswer / OnWorkerLeft) in
/// round-robin, the journaled-campaign counterpart of the event-timed
/// CrowdSimulator. Every decision the driver makes is a pure function of
/// (seed, campaign state), never of driver-internal counters — so a driver
/// pointed at a campaign restored mid-run continues exactly as the
/// uninterrupted driver would have. The crash-recovery tests depend on
/// this property.
struct CampaignDriverOptions {
  /// Seed for simulated answer noise. The answer a worker gives to a task
  /// is a pure function of (seed, worker, task): re-serving the same pair
  /// after a restore reproduces the same answer.
  uint64_t seed = 1;
  /// Upper bound on round-robin sweeps over the worker pool (livelock
  /// guard; generous relative to tasks * k).
  int max_rounds = 10000;
  /// Take an ICrowd::Snapshot() whenever the campaign's total answer count
  /// is a positive multiple of this. 0 disables snapshotting.
  int snapshot_every = 0;
  /// When > 0, worker w leaves after answering leave_after + (w % 3) tasks
  /// post-warm-up (derived from campaign state, so it survives restores).
  int leave_after = 0;
};

/// One snapshot captured mid-drive, tagged with the journal position it
/// covers (ICrowd::events_applied() at capture time).
struct CapturedSnapshot {
  uint64_t events_applied = 0;
  std::vector<uint8_t> bytes;
};

struct DriveOutcome {
  bool finished = false;
  int rounds = 0;
  /// Answers submitted by this drive (not counting pre-restore history).
  size_t answers = 0;
  std::vector<CapturedSnapshot> snapshots;
};

/// The simulated answer of `worker` to `task`: correct with the profile's
/// true accuracy, otherwise a uniformly random wrong label. Pure in
/// (seed, worker, task) — the noise stream is derived per pair, not drawn
/// from a shared sequence.
Label SimulatedAnswer(uint64_t seed, WorkerId worker, TaskId task,
                      const Microtask& microtask,
                      const WorkerProfile& profile);

/// Round-robin drives `num_workers` simulated workers (profile of worker w
/// is profiles[w % profiles.size()]) until the campaign finishes, no
/// worker can make progress, or max_rounds is hit. Workers already
/// registered (a restored campaign) are not re-arrived.
Result<DriveOutcome> DriveCampaign(ICrowd* system,
                                   const std::vector<WorkerProfile>& profiles,
                                   size_t num_workers,
                                   const CampaignDriverOptions& options);

}  // namespace icrowd

#endif  // ICROWD_SIM_CAMPAIGN_DRIVER_H_
