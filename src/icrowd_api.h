#ifndef ICROWD_ICROWD_API_H_
#define ICROWD_ICROWD_API_H_

/// Umbrella header: the stable public surface of the iCrowd library.
/// Integrations and the bundled examples include only this header —
/// everything else under src/ is internal and may change without notice
/// (enforced by the `api-include` lint rule). The surface has two tiers:
///
///   * the platform API — ICrowd facade, configuration, clock and journal
///     injection, snapshot/restore recovery, and the v2 multi-campaign
///     host (CampaignManager + CampaignHandle, DESIGN.md §16);
///   * the experiment/tooling API — strategy factory, experiment runner,
///     dataset generators, simulation drivers, CSV I/O and metrics export
///     used by the §6 reproduction programs.
///
/// ICROWD_API_VERSION bumps MINOR on additions and MAJOR on breaking
/// changes to anything exported here (DESIGN.md §11 records the policy);
/// the macros live in icrowd_version.h so build-info stamping does not
/// need the umbrella.

#include "icrowd_version.h"

// Platform API: the durable campaign facade and its injection points.
#include "core/clock.h"
#include "core/config.h"
#include "core/icrowd.h"
#include "host/campaign_handle.h"
#include "host/campaign_manager.h"
#include "host/host_config.h"
#include "ingest/event.h"
#include "ingest/event_queue.h"
#include "journal/journal.h"

// Experiment/tooling API: §6 reproduction harness.
#include "assign/greedy_assign.h"
#include "assign/top_workers.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/strategy_factory.h"
#include "datagen/entity_resolution.h"
#include "datagen/itemcompare.h"
#include "datagen/poi.h"
#include "datagen/worker_pool.h"
#include "datagen/yahooqa.h"
#include "estimation/accuracy_estimator.h"
#include "graph/similarity_graph.h"
#include "io/dataset_io.h"
#include "obs/build_info.h"
#include "obs/exporter.h"
#include "obs/flight_recorder.h"
#include "obs/heartbeat.h"
#include "obs/http/http_client.h"
#include "obs/http/http_server.h"
#include "obs/http/prometheus.h"
#include "obs/http/series.h"
#include "obs/statusz.h"
#include "qualification/qualification_selector.h"
#include "sim/campaign_driver.h"
#include "sim/experiment.h"
#include "sim/metrics.h"

#endif  // ICROWD_ICROWD_API_H_
