#ifndef ICROWD_ICROWD_VERSION_H_
#define ICROWD_ICROWD_VERSION_H_

/// API version of the public surface exported by icrowd_api.h. Split out
/// of the umbrella so leaf translation units (the /buildz info block in
/// src/obs/build_info.cc) can stamp the version without pulling the whole
/// public API in — obs is the bottom of the dependency stack and must not
/// include headers from the layers above it.
///
/// ICROWD_API_VERSION bumps MINOR on additions and MAJOR on breaking
/// changes to anything exported from the umbrella (DESIGN.md §11 records
/// the policy).

// 2.0: the v2 multi-campaign redesign — execution knobs moved from
// ICrowdConfig into HostConfig (breaking), ICrowd::Create/Restore take a
// HostConfig, the process-global /metricsz campaign label was replaced by
// per-server and per-campaign labels, and the CampaignManager /
// CampaignHandle host API joined the surface.
// 3.0: one ingest path — the standalone batch ingestor (with its options
// struct) and the facade's SubmitEvent/Drain buffer are gone (breaking);
// single-campaign ingest is a 1-shard CampaignManager, and
// ICrowd::ApplyEventBatch is the only way to apply events.
// 4.0: one campaign loop — the strategy is ICrowdConfig::strategy (a
// fingerprinted field) instead of a RunExperiment argument; RunExperiment
// lost its prebuilt-graph overload and drives an ICrowd through the
// simulated crowd; MakeStrategy takes the campaign's estimator instead of
// the graph; ICrowd::estimator() and graph() are gone (strategy(),
// qualification() and Predictions() join); CrowdSimulator::Run takes the
// facade and SimulationOptions/SimulationResult lost their campaign-side
// fields (breaking). experiment.h moved from core/ to sim/.
// 5.0: one span sink — ICROWD_TRACE_SCOPE/TraceScope moved to
// obs/flight_recorder.h and record only into the flight recorder; the
// metrics registry's span log, its export option and read-back, and
// PprOptions::num_threads are gone (breaking). The campaign fingerprint now covers the graph build and PPR
// solver options, so journals and snapshots written by 4.x are refused.
// obs::EmbeddedObs (server + series sampler + history) joins the surface.
// 6.0: one assigner — ComputeTopWorkerSets keeps only the explicit
// task-list overload and loses its full-sets-only flag;
// AdaptiveAssignerOptions::num_threads and the AdaptiveAssigner
// scheme_recomputations()/test_assignments() accessors are gone (read
// Stats()); the PPR engine's sparse-estimate variant and the side-index
// assignment module are gone (breaking). With HostConfig::num_threads = 0
// a CampaignManager now shares one pool.
// 7.0: one event path — journal replay runs the live callbacks, so
// ICrowd::Restore refuses a record the live path refuses (breaking for
// journals the live path could not have written); the sim driver's
// journal re-driver and ICrowd::obs_port() are gone, and the facade no
// longer starts an observability server (only CampaignManager reads
// HostConfig's serve_obs_* fields). CampaignManager::CampaignStats gains
// `refused`.
// 8.0: score once per scheme rebuild — the single-task
// ComputeTopWorkerSet is gone (call ComputeTopWorkerSets); GreedyAssign
// takes its candidates by const reference and gains a flat CandidateSets
// overload; TopWorkerSelector, CandidateSets and SchemePlanner join the
// surface, and obs::Histogram gains a counted Observe.
// 9.0: checkpoints and the corpus index — Assigner::RestoreState takes the
// restored CampaignState to check ids against (breaking for custom
// assigners); ICrowd::Create/Restore take an optional loaded PprEngine,
// ICrowd::BuildEngine/CorpusFingerprint, AccuracyEstimator::FromEngine,
// PprEngine::Encode/Decode/CountEstimates and StatusCode::kDataLoss join
// the surface; ReadJournal returns DataLoss for mid-log corruption.
// 10.0: one shared PPR engine per corpus — ICrowd::Create/Restore and
// AccuracyEstimator::FromEngine take std::shared_ptr<const PprEngine>
// (null = build) instead of std::optional<PprEngine> (breaking); a
// CampaignManager shares one engine among the campaigns of a corpus.
// 11.0: accuracy served from per-worker rows — AccuracyEstimator loses
// SnapshotAccuracyFn, qualification_tasks() and the Refresh overload
// taking an AccuracyFn, and gains AccuracyRow/LiveRows;
// ComputeObservedAccuracies and ObservedAccuracyOnConsensusTask read
// AccuracyRows (worker id -> estimate row) and per-task qualification
// flags instead of an AccuracyFn and a std::set; TopWorkerSelector::Score
// and SchemePlanner::Plan take AccuracyRows instead of a functor
// (breaking).
// 12.0: run-length seed storage — PprEngine::SeedVector returns a
// SeedVectorView (values plus runs of consecutive task ids, iterating as
// sorted (id, value) pairs) instead of a const SparseEntries& (breaking);
// PprEngine::seed_bytes joins the surface, and LogSumExp takes a
// std::span or an initializer_list instead of a const std::vector&.
// The .ppr index format is unchanged.
// 13.0: one stall verdict — the obs stall watchdog (its class, options
// struct and trips counter, with that counter's statusz lines) is gone;
// /healthz (a heartbeat busy and silent for more than 5 s) is the only
// stall check. ObsServer::Options loses its stall-bound and request-size
// fields, now the constants kHealthzStallSeconds (5 s) and
// kMaxRequestBytes (4096) (breaking).
// 13.1: ICrowd::RestoreParsed restores from a JournalParse the caller
// already decoded; Restore is ReadJournal followed by it.
#define ICROWD_API_VERSION_MAJOR 13
#define ICROWD_API_VERSION_MINOR 1
#define ICROWD_API_VERSION \
  (ICROWD_API_VERSION_MAJOR * 1000 + ICROWD_API_VERSION_MINOR)

#endif  // ICROWD_ICROWD_VERSION_H_
