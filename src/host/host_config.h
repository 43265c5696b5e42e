#ifndef ICROWD_HOST_HOST_CONFIG_H_
#define ICROWD_HOST_HOST_CONFIG_H_

#include <cstddef>
#include <memory>
#include <string>

#include "common/thread_pool.h"

namespace icrowd {

/// Execution-only configuration: everything about *where and how fast* a
/// campaign runs, never about *what it decides*. No field here enters the
/// campaign fingerprint — a journal recorded under one HostConfig replays
/// bit-identically under any other (DESIGN.md §16). Decision-relevant knobs
/// live in ICrowdConfig; the two are separate types so the compiler keeps
/// the fingerprint boundary honest.
///
/// One struct serves both hosting modes: the single-campaign ICrowd facade
/// reads only the threading knobs (num_threads, pool); CampaignManager
/// reads those plus the shard/queue/journal-directory knobs and is the only
/// reader of the observability fields (campaign_label, serve_obs_*).
struct HostConfig {
  /// CampaignManager shards: each shard is one consumer thread owning a
  /// disjoint set of campaigns. Ignored by the single-campaign facade.
  size_t num_shards = 1;
  /// Threads for the *online* assignment hot path (dirty-worker estimate
  /// refresh + per-task top-worker-set fan-out). 1 = serial, 0 = hardware
  /// concurrency. Campaign results are bit-identical at any value; see
  /// DESIGN.md "Concurrency model". (The *offline* PPR precompute always
  /// spreads its seeds over every hardware thread.)
  size_t num_threads = 1;
  /// Optional pre-built pool shared across strategies/experiments/campaigns
  /// so threads are spawned once per process, not per campaign. When null
  /// and num_threads != 1, CampaignManager::Start creates one for all its
  /// campaigns and a solo ICrowd facade's MakeStrategy creates one for its
  /// adaptive assigner.
  std::shared_ptr<ThreadPool> pool;
  /// Label stamped on the host's registry /metricsz lines
  /// (campaign="<label>") by its embedded observability server. Empty =
  /// unlabeled. Read by CampaignManager only; the host block labels each
  /// campaign's samples by the campaign's own name.
  std::string campaign_label;
  /// CampaignManager journal root: campaign journals land under
  /// <journal_dir>/shard-<s>/<name>.journal so each shard owns one
  /// directory and kill-and-recover sweeps replay per shard. Empty keeps
  /// journals in memory (readable back via CampaignManager::JournalBytes).
  /// Ignored by the single-campaign facade, which takes an explicit sink
  /// via ICrowdConfig::journal_sink.
  std::string journal_dir;
  /// Fsync journal files on every flush (CampaignManager file journals
  /// only). Off by default: crash tests cut process state, not the disk.
  bool fsync_journal = false;
  /// CampaignManager's embedded observability server (DESIGN.md §15).
  /// Negative = disabled (the default); 0 binds an ephemeral port readable
  /// back via CampaignManager::obs_port(); > 0 binds that port, and a
  /// failed bind fails CampaignManager::Start. When enabled a 1 Hz series
  /// sampler also feeds GET /seriesz. The ICrowd facade ignores it.
  int serve_obs_port = -1;
  /// Bind address for CampaignManager's observability server. Loopback by
  /// default; "0.0.0.0" opts into off-host scraping.
  std::string serve_obs_bind = "127.0.0.1";
  /// Capacity of each shard's bounded ingest queue (events). Producers
  /// block when a shard falls this far behind (backpressure, DESIGN.md §12).
  size_t queue_capacity = 1024;
  /// Max events a shard consumer pops per batch; each campaign's slice of
  /// the batch is applied through one ApplyEventBatch group commit.
  size_t max_batch = 64;
};

}  // namespace icrowd

#endif  // ICROWD_HOST_HOST_CONFIG_H_
