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
#define ICROWD_API_VERSION_MAJOR 8
#define ICROWD_API_VERSION_MINOR 0
#define ICROWD_API_VERSION \
  (ICROWD_API_VERSION_MAJOR * 1000 + ICROWD_API_VERSION_MINOR)

#endif  // ICROWD_ICROWD_VERSION_H_
