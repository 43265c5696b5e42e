#ifndef ICROWD_HOST_CAMPAIGN_MANAGER_H_
#define ICROWD_HOST_CAMPAIGN_MANAGER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "common/thread_annotations.h"
#include "core/config.h"
#include "core/icrowd.h"
#include "host/campaign_handle.h"
#include "host/host_config.h"
#include "ingest/event.h"
#include "ingest/event_queue.h"
#include "model/dataset.h"

namespace icrowd {

namespace obs {
class EmbeddedObs;
}  // namespace obs

/// The multi-campaign host (DESIGN.md §16), and the only ingest consumer:
/// one process serving many concurrent ICrowd campaigns behind the
/// handle-based v2 API — a single campaign is a 1-shard host. The manager
/// owns `HostConfig::num_shards` shards; each shard is one consumer thread
/// plus one BoundedEventQueue, and every hosted campaign is pinned to
/// exactly one shard (round-robin by creation order, so placement is a
/// deterministic function of the creation sequence). SubmitEvent stamps
/// the event with the owning campaign's slot on its shard and pushes it
/// onto that shard's queue; the shard thread pops batches, regroups them
/// per campaign (per-campaign FIFO is preserved — only events of
/// *different* campaigns reorder relative to each other), and applies each
/// campaign's slice through ICrowd::ApplyEventBatch. Campaigns therefore
/// keep the facade's single-writer contract — the owning shard thread is
/// the only mutator — and a hosted campaign's journal, results and
/// deterministic metrics are bit-identical to the same event stream run
/// through a solo ICrowd (tests/host_test.cc enforces this isolation).
///
/// Journal placement: with HostConfig::journal_dir set, each campaign
/// journals to `<journal_dir>/shard-<s>/<name>.journal` (directories are
/// created on demand); with it empty, each campaign journals to an
/// in-memory VectorSink readable via JournalBytes(). An explicit
/// ICrowdConfig::journal_sink on CampaignOptions overrides both — that is
/// the fault-injection test hook.
///
/// Threading contract: all methods are thread-safe across *different*
/// handles — any number of producer threads may drive disjoint campaigns
/// concurrently. Calls on the *same* handle must be externally serialized
/// (the per-campaign analogue of ICrowd's single-writer rule), and
/// Inspect()/JournalBytes() reads are valid only at quiescent points,
/// i.e. after a Drain() with no Submit racing it.
class CampaignManager {
 public:
  /// Everything that defines one hosted campaign. `name` doubles as the
  /// journal file stem and the /metricsz campaign label, so it must be
  /// unique within the manager, non-empty, and limited to
  /// [A-Za-z0-9_.-].
  struct CampaignOptions {
    std::string name;
    Dataset dataset;
    ICrowdConfig config;
    /// OpenCampaign only: explicit recovery images. When both are empty,
    /// OpenCampaign locates `<name>.journal` under journal_dir instead.
    std::vector<uint8_t> snapshot;
    std::vector<uint8_t> journal;
  };

  /// One campaign's host-side ledger, as /metricsz and /statusz see it.
  struct CampaignStats {
    uint64_t id = 0;
    std::string name;
    size_t shard = 0;
    uint64_t submitted = 0;
    uint64_t settled = 0;
    uint64_t events_applied = 0;
    /// Settled events the campaign refused with a per-event error (e.g.
    /// an answer for a task the worker does not hold). SubmitEvent and
    /// Drain still return OK for them; this column is their trace.
    uint64_t refused = 0;
    uint64_t answers = 0;
    uint64_t workers = 0;
    bool finished = false;
    bool failed = false;
  };

  /// Builds the shards, starts one consumer thread per shard, and — when
  /// host.serve_obs_port >= 0 — starts the embedded ObsServer with the
  /// manager's per-campaign /metricsz and /statusz providers attached and
  /// a 1 Hz series history behind /seriesz.
  /// With num_threads != 1 (0 = hardware concurrency) and no explicit
  /// pool, one ThreadPool is created here and shared by every hosted
  /// campaign (a pool per campaign would not survive thousands of them).
  static Result<std::unique_ptr<CampaignManager>> Start(HostConfig host);

  /// Shutdown(), then stops the observability stack.
  ~CampaignManager();
  CampaignManager(const CampaignManager&) = delete;
  CampaignManager& operator=(const CampaignManager&) = delete;

  /// Creates a fresh campaign (ICrowd::Create) on the next shard in
  /// round-robin order and returns its handle. Fails on duplicate or
  /// malformed names, after Shutdown, or when pipeline construction /
  /// journal creation fails — in which case nothing is registered.
  Result<CampaignHandle> CreateCampaign(CampaignOptions options);

  /// Recovers a campaign (ICrowd::Restore) from options.snapshot/journal
  /// when given, else from its `<journal_dir>/shard-*/<name>.journal`
  /// file (every shard directory is searched: the campaign may land on a
  /// different shard than the run that wrote the journal — placement is
  /// execution state, never identity). New events append to the same
  /// journal file; with explicit images, new events go to a fresh
  /// VectorSink and JournalBytes() returns only the post-open tail.
  Result<CampaignHandle> OpenCampaign(CampaignOptions options);

  /// Routes one platform event to the owning shard's queue. Blocks on a
  /// full queue (backpressure); fails without enqueueing when the handle
  /// is unknown, the campaign already failed, or the host is shut down.
  /// An OK here is an *accepted* event, not an applied one — the ack
  /// point is the next Drain().
  Status SubmitEvent(CampaignHandle handle, const IngestEvent& event);

  /// Blocks until every event accepted for `handle` before this call has
  /// been applied (or abandoned by a failure), then returns the
  /// campaign's sticky first failure — OK on a healthy campaign; a
  /// poisoning Status, or Internal when the apply stage threw. Other
  /// campaigns' traffic keeps flowing while this waits.
  Status Drain(CampaignHandle handle);

  /// Drain + ICrowd::Snapshot: the serialized campaign covering every
  /// event accepted before the call.
  Result<std::vector<uint8_t>> Snapshot(CampaignHandle handle);

  /// Drain, unregister the handle, and destroy the campaign (flushing its
  /// journal sink). Returns the campaign's sticky failure; the handle is
  /// gone either way. The manager outlives its campaigns naturally —
  /// closing is per-handle, the shard thread keeps serving the rest.
  Status CloseCampaign(CampaignHandle handle);

  /// The hosted facade, for reading results/state at a quiescent point
  /// (after Drain, no Submit racing). Valid until CloseCampaign.
  Result<const ICrowd*> Inspect(CampaignHandle handle) const;

  /// The campaign's in-memory journal bytes (VectorSink mode only; fails
  /// FailedPrecondition when the campaign journals to a file or an
  /// explicit sink). Same quiescence contract as Inspect.
  Result<std::vector<uint8_t>> JournalBytes(CampaignHandle handle) const;

  /// Drains every live campaign; returns the first failure encountered
  /// (all campaigns are drained regardless).
  Status DrainAll();

  /// Per-campaign ledgers, sorted by name (deterministic render order).
  std::vector<CampaignStats> Stats() const;

  size_t num_campaigns() const ICROWD_EXCLUDES(manager_mu_);
  size_t num_shards() const { return shards_.size(); }

  /// The embedded ObsServer's bound port; -1 when disabled.
  int obs_port() const;

  /// The per-campaign /metricsz block (ObsServer::Options::extra_metricsz
  /// provider): one HELP/TYPE'd `icrowd_host_*` family per ledger column,
  /// one `campaign="<name>"`-labeled sample per hosted campaign. Metric
  /// names are disjoint from the global registry's families.
  std::string RenderCampaignMetrics() const;

  /// The `-- host --` /statusz section (extra_statusz provider, text mode
  /// only): a summary line plus one line per campaign, capped.
  std::string RenderCampaignStatusz() const;

  /// Closes every shard queue, drains and joins the shard threads, and
  /// wakes any Drain() still waiting (they fail with Internal unless
  /// their campaign already settled). Campaigns stay readable via
  /// Inspect(); Submit/Create fail afterwards. Idempotent; called by the
  /// destructor.
  void Shutdown();

 private:
  struct Campaign;

  /// One shard: the queue feeding its consumer thread plus the settle
  /// ledger every hosted campaign on it shares. shard_mu_ ranks between
  /// manager_mu_ and BoundedEventQueue::mu_ in tools/lock_order.txt; it is
  /// never held across a queue call or a campaign apply.
  struct Shard {
    explicit Shard(size_t capacity);

    const std::unique_ptr<BoundedEventQueue> queue;
    mutable Mutex shard_mu_;
    CondVar settled_cv_;
    /// slot index -> campaign; null once the campaign is closed. Slots
    /// are append-only so a route stamped at submit time stays valid.
    std::vector<Campaign*> slots ICROWD_GUARDED_BY(shard_mu_);
    /// Set by the consumer thread on exit (after draining a closed
    /// queue): no further settles will come, Drain waiters must give up.
    bool stopped ICROWD_GUARDED_BY(shard_mu_) = false;
  };

  /// Pair a lookup resolves a handle to. The Campaign pointer is stable
  /// until CloseCampaign (the map owns it by unique_ptr).
  struct Ref {
    Shard* shard = nullptr;
    Campaign* campaign = nullptr;
  };

  CampaignManager(HostConfig host, std::vector<std::unique_ptr<Shard>> shards);

  Result<Ref> Lookup(CampaignHandle handle) const
      ICROWD_EXCLUDES(manager_mu_);

  /// Registers a built campaign under a pre-reserved (id, name): assigns
  /// its shard slot and publishes the handle.
  CampaignHandle Register(std::unique_ptr<Campaign> campaign)
      ICROWD_EXCLUDES(manager_mu_);

  /// Shared Create/Open tail: reserve name + id + shard, build the
  /// facade, register or roll the reservation back.
  Result<CampaignHandle> AddCampaign(CampaignOptions options, bool restore);

  /// Attaches the campaign's journal (a new or reopened file under
  /// journal_dir, an in-memory sink, or the explicit one), acquires the
  /// corpus engine, and creates or restores the facade.
  Result<std::unique_ptr<ICrowd>> BuildCampaign(Campaign* campaign,
                                                CampaignOptions options,
                                                bool restore)
      ICROWD_EXCLUDES(manager_mu_);

  /// Drain's body against an already-resolved ref.
  Status DrainRef(const Ref& ref);

  void RunShard(size_t shard_index);
  /// Applies one campaign's slice of a popped batch and settles it.
  void ApplyCampaignSlice(Shard* shard, uint32_t slot,
                          const std::vector<IngestEvent>& events);
  /// Writes the campaign's checkpoint when its journal position has reached
  /// the next multiple of kCheckpointInterval (file-journaled campaigns
  /// only; called by the shard thread right after a group commit).
  void MaybeCheckpoint(Campaign* campaign);
  /// Every campaign's offline phase (DESIGN.md §16): the PPR engine of
  /// `dataset`'s corpus under `config`. It shares the engine this manager
  /// already holds for the corpus fingerprint — for CreateCampaign only one
  /// it built, for OpenCampaign (`restore`) any. Otherwise OpenCampaign
  /// loads the corpus index under journal_dir, and failing that the engine
  /// is built; a build under journal_dir is written as the corpus index.
  /// Two callers racing on a new corpus may both build: the first to
  /// publish wins, and the other shares the winner's engine.
  Result<std::shared_ptr<const PprEngine>> CorpusEngine(
      const Dataset& dataset, const ICrowdConfig& config, bool restore)
      ICROWD_EXCLUDES(manager_mu_);

  /// Corpora with at least one open campaign on their engine.
  size_t LiveCorpora() const ICROWD_EXCLUDES(manager_mu_);

  /// host_.pool also keeps the Start-created shared pool alive.
  const HostConfig host_;
  /// Shard array is fixed at Start (const: campaigns move, shards never).
  const std::vector<std::unique_ptr<Shard>> shards_;

  /// Registry lock (tools/lock_order.txt, above Shard::shard_mu_): guards
  /// the handle map, name set, id/shard allocators and thread handles.
  /// Never held across campaign construction or a queue call.
  mutable Mutex manager_mu_;
  std::unordered_map<uint64_t, std::unique_ptr<Campaign>> campaigns_
      ICROWD_GUARDED_BY(manager_mu_);
  std::unordered_set<std::string> names_ ICROWD_GUARDED_BY(manager_mu_);
  uint64_t next_id_ ICROWD_GUARDED_BY(manager_mu_) = 1;
  size_t next_shard_ ICROWD_GUARDED_BY(manager_mu_) = 0;
  std::vector<std::thread> shard_threads_ ICROWD_GUARDED_BY(manager_mu_);
  bool shutdown_ ICROWD_GUARDED_BY(manager_mu_) = false;
  /// One entry per corpus fingerprint a campaign was created or opened on.
  /// The weak_ptr does not keep the engine alive: it is freed when the last
  /// campaign on the corpus closes.
  struct CorpusEntry {
    std::weak_ptr<const PprEngine> engine;
    /// Built by this manager, not loaded from an index file that another
    /// build of the program may have written: only such an engine is
    /// shared with CreateCampaign.
    bool built_here = false;
  };
  std::unordered_map<uint64_t, CorpusEntry> corpora_
      ICROWD_GUARDED_BY(manager_mu_);

  /// Embedded observability stack (created before the shard threads,
  /// stopped after them: declared last, so destroyed first once the
  /// destructor has joined the shards); const unique_ptr: the stack is
  /// internally synchronized.
  const std::unique_ptr<obs::EmbeddedObs> obs_;
};

}  // namespace icrowd

#endif  // ICROWD_HOST_CAMPAIGN_MANAGER_H_
