// Command-line experiment driver: run any §6 strategy on any built-in
// dataset with the paper's knobs exposed as flags.
//
//   icrowd_cli [--dataset=yahooqa|itemcompare|entity|poi] [--strategy=NAME]
//              [--k=3] [--q=10] [--alpha=1.0] [--threshold=0.8]
//              [--measure=topic|jaccard|tfidf] [--threads=1]
//              [--seeds=5] [--seed-base=1000]
//              [--random-qualification] [--per-domain]
//              [--export-dataset=FILE] [--export-answers=FILE]
//              [--metrics-out=FILE.jsonl] [--deterministic]
//              [--journal=FILE] [--resume] [--snapshot=FILE]
//              [--journal-dump=FILE.jsonl]
//              [--statusz[=json]] [--statusz-out=FILE]
//              [--serve-obs=PORT] [--serve-obs-bind=ADDR]
//              [--serve-obs-linger=SECONDS]
//
// Prints overall (and optionally per-domain) accuracy averaged over seeds;
// optionally exports the dataset and the last run's answer log as CSV.
// --statusz renders the runtime-introspection snapshot (DESIGN.md §14)
// after the run — heartbeats, pipeline counters, and per-stage latency —
// to stdout, or to --statusz-out=FILE.
//
// --serve-obs=PORT starts the embedded observability server (DESIGN.md
// §15) before the run: GET /statusz, /metricsz (Prometheus), /flightz,
// /healthz, /seriesz, /buildz on ADDR:PORT (loopback by default; port 0
// picks an ephemeral port, printed on stdout). A 1 Hz series sampler
// feeds /seriesz for the duration. --serve-obs-linger keeps the server
// up that many seconds after the run so scrapers can collect the final
// state (the CI smoke job curls every endpoint during the linger).
//
// With --journal=FILE the driver instead runs one durable campaign of
// --strategy through the journaled platform API: every callback is written
// ahead to FILE, so a killed run can be continued with --resume (crash
// recovery replays the journal — plus --snapshot=FILE if one was saved —
// and picks up where the campaign stopped). Only strategies with a
// snapshot form (icrowd, qfonly) accept --snapshot. --journal-dump renders
// a journal as JSONL for humans.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <thread>

#include "icrowd_api.h"

using namespace icrowd;  // NOLINT: example brevity

namespace {

struct CliOptions {
  std::string dataset = "itemcompare";
  std::string strategy = "icrowd";
  ICrowdConfig config;
  HostConfig host;  // execution-only knobs (v2 split): --threads
  int seeds = 5;
  uint64_t seed_base = 1000;
  bool per_domain = false;
  std::string export_dataset;  // write the dataset CSV here
  std::string export_answers;  // write the last run's answer log here
  std::string journal;         // durable mode: write-ahead journal file
  bool resume = false;         // recover from an existing journal
  std::string snapshot;        // snapshot file to save (and load on resume)
  std::string journal_dump;    // dump --journal as JSONL and exit
  bool statusz = false;        // render the statusz snapshot after the run
  bool statusz_json = false;   // ... as JSON instead of text
  std::string statusz_out;     // write statusz here instead of stdout
  int serve_obs_port = -1;     // -1 = no server; 0 = ephemeral port
  std::string serve_obs_bind = "127.0.0.1";
  double serve_obs_linger = 0.0;  // keep serving this long after the run
};

bool ParseFlag(const std::string& arg, const std::string& name,
               std::string* value) {
  std::string prefix = "--" + name + "=";
  if (!StartsWith(arg, prefix)) return false;
  *value = arg.substr(prefix.size());
  return true;
}

/// Stores a checked numeric flag value (ParseInt/ParseUint/ParseDouble) in
/// `*out`. A malformed or out-of-range value is reported and returns
/// false, so the caller exits through Usage() instead of aborting on an
/// uncaught exception or wrapping silently.
template <typename T, typename V>
bool SetNumber(const std::string& arg, const Result<V>& parsed, T* out) {
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s: %s\n", arg.c_str(),
                 parsed.status().ToString().c_str());
    return false;
  }
  *out = static_cast<T>(*parsed);
  return true;
}

constexpr int64_t kIntMax = std::numeric_limits<int>::max();

int Usage() {
  std::fprintf(
      stderr,
      "usage: icrowd_cli [--dataset=yahooqa|itemcompare|entity|poi]\n"
      "                  [--strategy=randommv|randomem|avgaccpv|qfonly|\n"
      "                   besteffort|icrowd]\n"
      "                  [--k=3] [--q=10] [--alpha=1.0] [--threshold=0.8]\n"
      "                  [--measure=topic|jaccard|tfidf] [--threads=1]\n"
      "                  [--seeds=5]\n"
      "                  [--seed-base=1000] [--random-qualification]\n"
      "                  [--per-domain] [--export-dataset=FILE]\n"
      "                  [--export-answers=FILE]\n"
      "                  [--metrics-out=FILE.jsonl] [--deterministic]\n"
      "                  [--journal=FILE] [--resume] [--snapshot=FILE]\n"
      "                  [--journal-dump=FILE.jsonl]\n"
      "                  [--statusz[=json]] [--statusz-out=FILE]\n"
      "                  [--serve-obs=PORT] [--serve-obs-bind=ADDR]\n"
      "                  [--serve-obs-linger=SECONDS]\n");
  return 2;
}

/// The --serve-obs observability stack (obs::EmbeddedObs: HTTP scrape
/// server plus the 1 Hz series sampler feeding /seriesz, both on the
/// process-wide registries). Owned by main() so the server spans the whole
/// run (and the linger).
struct ObsServe {
  std::unique_ptr<obs::EmbeddedObs> stack;

  /// Starts the server (hard failure: the user asked for it explicitly).
  bool Start(const CliOptions& options) {
    if (options.serve_obs_port < 0) return true;
    obs::ObsServer::Options server_options;
    server_options.bind_address = options.serve_obs_bind;
    server_options.port = options.serve_obs_port;
    // The label rides in the server options (per-server, not process
    // state): every /metricsz sample this server renders carries
    // campaign="<dataset>".
    server_options.campaign_label = options.dataset;
    stack = obs::EmbeddedObs::Start(std::move(server_options));
    if (stack == nullptr) return false;
    // The CI scrape job (and any operator script) parses this line for
    // the resolved ephemeral port.
    std::printf("obs server listening on %s:%d\n",
                options.serve_obs_bind.c_str(), stack->port());
    std::fflush(stdout);
    return true;
  }

  /// Holds the server up through the linger window, then tears down.
  void Finish(const CliOptions& options) {
    if (stack == nullptr) return;
    if (options.serve_obs_linger > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(
          options.serve_obs_linger));
    }
    stack.reset();
  }
};

/// Renders the post-run statusz snapshot to stdout or --statusz-out.
/// Returns false (after printing why) if the output file cannot be written.
bool EmitStatuszIfRequested(const CliOptions& options) {
  if (!options.statusz) return true;
  obs::StatuszOptions statusz_options;
  statusz_options.json = options.statusz_json;
  std::string rendered = obs::RenderStatusz(statusz_options);
  if (options.statusz_out.empty()) {
    std::fputs(rendered.c_str(), stdout);
    return true;
  }
  std::FILE* out = std::fopen(options.statusz_out.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", options.statusz_out.c_str());
    return false;
  }
  size_t written = std::fwrite(rendered.data(), 1, rendered.size(), out);
  bool closed = std::fclose(out) == 0;
  if (written != rendered.size() || !closed) {
    std::fprintf(stderr, "cannot write statusz to %s\n",
                 options.statusz_out.c_str());
    return false;
  }
  return true;
}

/// Durable-campaign mode: one journaled run of the full platform pipeline.
/// Fresh runs start a new journal; --resume recovers the campaign from the
/// journal (and snapshot, if given) and continues appending to it.
int RunDurableCampaign(const CliOptions& options, const Dataset& dataset,
                       const std::vector<WorkerProfile>& workers) {
  ICrowdConfig config = options.config;
  config.seed = options.seed_base;

  Result<std::unique_ptr<ICrowd>> system =
      Status::Internal("durable campaign not initialized");
  if (options.resume) {
    auto bytes = ReadFileBytes(options.journal);
    if (!bytes.ok()) {
      std::fprintf(stderr, "cannot read journal: %s\n",
                   bytes.status().ToString().c_str());
      return 1;
    }
    // A torn tail (mid-append crash) is recoverable, but the garbage bytes
    // must not stay on disk ahead of the append position — truncate the
    // file to its intact prefix before reattaching.
    auto parsed = ReadJournal(*bytes);
    if (!parsed.ok()) {
      std::fprintf(stderr, "journal unreadable: %s\n",
                   parsed.status().ToString().c_str());
      return 1;
    }
    if (parsed->dropped_bytes > 0) {
      std::fprintf(stderr,
                   "note: dropping %zu torn bytes from journal tail\n",
                   parsed->dropped_bytes);
      bytes->resize(parsed->valid_bytes);
      Status truncated = WriteFileBytes(options.journal, *bytes);
      if (!truncated.ok()) {
        std::fprintf(stderr, "cannot truncate torn journal: %s\n",
                     truncated.ToString().c_str());
        return 1;
      }
    }
    std::vector<uint8_t> snapshot_bytes;
    if (!options.snapshot.empty()) {
      auto snap = ReadFileBytes(options.snapshot);
      // A missing snapshot file just means full-journal replay.
      if (snap.ok()) snapshot_bytes = snap.MoveValueOrDie();
    }
    auto sink = FileSink::Open(options.journal, /*truncate=*/false);
    if (!sink.ok()) {
      std::fprintf(stderr, "cannot reopen journal: %s\n",
                   sink.status().ToString().c_str());
      return 1;
    }
    config.journal_sink = sink.MoveValueOrDie();
    system = ICrowd::Restore(dataset, config, snapshot_bytes, *bytes,
                             options.host);
  } else {
    auto sink = FileSink::Open(options.journal, /*truncate=*/true);
    if (!sink.ok()) {
      std::fprintf(stderr, "cannot open journal: %s\n",
                   sink.status().ToString().c_str());
      return 1;
    }
    config.journal_sink = sink.MoveValueOrDie();
    system = ICrowd::Create(dataset, config, options.host);
  }
  if (!system.ok()) {
    std::fprintf(stderr, "%s failed: %s\n",
                 options.resume ? "recovery" : "campaign start",
                 system.status().ToString().c_str());
    return 1;
  }
  ICrowd& campaign = **system;
  if (options.resume) {
    std::printf("resumed campaign at journal position %llu "
                "(%zu answers already in)\n",
                static_cast<unsigned long long>(campaign.events_applied()),
                campaign.state().AllAnswers().size());
  }

  CampaignDriverOptions driver_options;
  driver_options.seed = options.seed_base;
  auto outcome =
      DriveCampaign(&campaign, workers, workers.size(), driver_options);
  if (!outcome.ok()) {
    std::fprintf(stderr, "campaign drive failed: %s\n",
                 outcome.status().ToString().c_str());
    return 1;
  }

  if (!options.snapshot.empty()) {
    auto snap = campaign.Snapshot();
    if (!snap.ok()) {
      std::fprintf(stderr, "snapshot failed: %s\n",
                   snap.status().ToString().c_str());
      return 1;
    }
    Status written = WriteFileBytes(options.snapshot, *snap);
    if (!written.ok()) {
      std::fprintf(stderr, "snapshot write failed: %s\n",
                   written.ToString().c_str());
      return 1;
    }
  }

  auto predictions = campaign.Predictions();
  if (!predictions.ok()) {
    std::fprintf(stderr, "aggregation failed: %s\n",
                 predictions.status().ToString().c_str());
    return 1;
  }
  std::set<TaskId> qual(campaign.qualification_tasks().begin(),
                        campaign.qualification_tasks().end());
  AccuracyReport report = EvaluateAccuracy(dataset, *predictions, qual);
  std::printf("dataset=%s journal=%s %s after %d rounds, %zu answers "
              "(journal position %llu)\n",
              options.dataset.c_str(), options.journal.c_str(),
              outcome->finished ? "completed" : "stopped",
              outcome->rounds, outcome->answers,
              static_cast<unsigned long long>(campaign.events_applied()));
  if (options.per_domain) {
    for (const DomainAccuracy& d : report.per_domain) {
      std::printf("  %-18s %s\n", d.domain.c_str(),
                  FormatDouble(d.accuracy, 3).c_str());
    }
  }
  std::printf("overall accuracy: %s\n",
              FormatDouble(report.overall, 3).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A fatal signal or std::terminate reads out the flight recorder and a
  // statusz snapshot on stderr before the process dies.
  obs::InstallIntrospectionCrashHandler();
  // Shared observability flags (--metrics-out=PATH, --deterministic) are
  // stripped before the driver's own flag loop sees argv.
  obs::MetricsCliOptions metrics_options =
      obs::ConsumeMetricsFlags(&argc, argv);
  CliOptions options;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    bool parsed = true;
    if (ParseFlag(arg, "dataset", &value)) {
      options.dataset = value;
    } else if (ParseFlag(arg, "strategy", &value)) {
      options.strategy = ToLowerAscii(value);
    } else if (ParseFlag(arg, "k", &value)) {
      parsed = SetNumber(arg, ParseInt(value, 1, kIntMax),
                         &options.config.assignment_size);
    } else if (ParseFlag(arg, "q", &value)) {
      parsed = SetNumber(arg, ParseUint(value),
                         &options.config.num_qualification);
    } else if (ParseFlag(arg, "alpha", &value)) {
      parsed = SetNumber(arg, ParseDouble(value),
                         &options.config.estimator.ppr.alpha);
    } else if (ParseFlag(arg, "threshold", &value)) {
      parsed = SetNumber(arg, ParseDouble(value),
                         &options.config.graph.threshold);
    } else if (ParseFlag(arg, "measure", &value)) {
      if (value == "jaccard") {
        options.config.graph.measure = SimilarityMeasure::kJaccard;
      } else if (value == "tfidf") {
        options.config.graph.measure = SimilarityMeasure::kCosineTfIdf;
      } else if (value == "topic") {
        options.config.graph.measure = SimilarityMeasure::kCosineTopic;
      } else {
        return Usage();
      }
    } else if (ParseFlag(arg, "threads", &value)) {
      parsed = SetNumber(arg, ParseUint(value), &options.host.num_threads);
    } else if (ParseFlag(arg, "seeds", &value)) {
      parsed = SetNumber(arg, ParseInt(value, 1, kIntMax), &options.seeds);
    } else if (ParseFlag(arg, "seed-base", &value)) {
      parsed = SetNumber(arg, ParseUint(value), &options.seed_base);
    } else if (arg == "--random-qualification") {
      options.config.qualification_greedy = false;
    } else if (arg == "--per-domain") {
      options.per_domain = true;
    } else if (ParseFlag(arg, "export-dataset", &value)) {
      options.export_dataset = value;
    } else if (ParseFlag(arg, "export-answers", &value)) {
      options.export_answers = value;
    } else if (ParseFlag(arg, "journal", &value)) {
      options.journal = value;
    } else if (arg == "--resume") {
      options.resume = true;
    } else if (ParseFlag(arg, "snapshot", &value)) {
      options.snapshot = value;
    } else if (ParseFlag(arg, "journal-dump", &value)) {
      options.journal_dump = value;
    } else if (arg == "--statusz") {
      options.statusz = true;
    } else if (ParseFlag(arg, "statusz", &value)) {
      if (value == "json") {
        options.statusz_json = true;
      } else if (value != "text") {
        return Usage();
      }
      options.statusz = true;
    } else if (ParseFlag(arg, "statusz-out", &value)) {
      options.statusz_out = value;
      options.statusz = true;
    } else if (ParseFlag(arg, "serve-obs", &value)) {
      parsed =
          SetNumber(arg, ParseInt(value, 0, 65535), &options.serve_obs_port);
    } else if (ParseFlag(arg, "serve-obs-bind", &value)) {
      options.serve_obs_bind = value;
    } else if (ParseFlag(arg, "serve-obs-linger", &value)) {
      parsed = SetNumber(arg, ParseDouble(value), &options.serve_obs_linger);
    } else {
      return Usage();
    }
    if (!parsed) return Usage();
  }
  if ((options.resume || !options.journal_dump.empty()) &&
      options.journal.empty()) {
    std::fprintf(stderr, "--resume/--journal-dump need --journal=FILE\n");
    return Usage();
  }

  if (!options.journal_dump.empty()) {
    Status dumped = DumpJournalJsonl(options.journal, options.journal_dump);
    if (!dumped.ok()) {
      std::fprintf(stderr, "journal dump failed: %s\n",
                   dumped.ToString().c_str());
      return 1;
    }
    std::printf("journal %s dumped to %s\n", options.journal.c_str(),
                options.journal_dump.c_str());
    return 0;
  }

  // Up before any pipeline work so a scraper watches the whole run,
  // including graph build and PPR precompute.
  ObsServe obs_serve;
  if (!obs_serve.Start(options)) return 1;

  StrategyKind& kind = options.config.strategy;
  if (options.strategy == "randommv") {
    kind = StrategyKind::kRandomMV;
  } else if (options.strategy == "randomem") {
    kind = StrategyKind::kRandomEM;
  } else if (options.strategy == "avgaccpv") {
    kind = StrategyKind::kAvgAccPV;
  } else if (options.strategy == "qfonly") {
    kind = StrategyKind::kQfOnly;
  } else if (options.strategy == "besteffort") {
    kind = StrategyKind::kBestEffort;
  } else if (options.strategy == "icrowd" || options.strategy == "adapt") {
    kind = StrategyKind::kAdapt;
  } else {
    return Usage();
  }

  Result<Dataset> dataset = Status::InvalidArgument("unknown dataset");
  std::vector<WorkerProfile> workers;
  if (options.dataset == "yahooqa") {
    dataset = GenerateYahooQa();
    if (dataset.ok()) workers = GenerateYahooQaWorkers(*dataset);
  } else if (options.dataset == "itemcompare") {
    dataset = GenerateItemCompare();
    if (dataset.ok()) workers = GenerateItemCompareWorkers(*dataset);
  } else if (options.dataset == "entity") {
    dataset = GenerateEntityResolution();
    if (dataset.ok()) workers = GenerateEntityResolutionWorkers(*dataset);
  } else if (options.dataset == "poi") {
    dataset = GeneratePoiVerification();
    if (dataset.ok()) workers = GeneratePoiWorkers(*dataset);
    // Spatial tasks similarity comes from coordinates, not text.
    options.config.graph.measure = SimilarityMeasure::kEuclidean;
    if (options.config.graph.threshold > 0.9) {
      options.config.graph.threshold = 0.85;
    }
  } else {
    return Usage();
  }
  if (!dataset.ok()) {
    std::fprintf(stderr, "dataset generation failed: %s\n",
                 dataset.status().ToString().c_str());
    return 1;
  }

  if (!options.export_dataset.empty()) {
    Status st = WriteDatasetCsv(*dataset, options.export_dataset);
    if (!st.ok()) {
      std::fprintf(stderr, "export failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  if (!options.journal.empty()) {
    int rc = RunDurableCampaign(options, *dataset, workers);
    if (rc == 0 && !EmitStatuszIfRequested(options)) return 1;
    if (rc == 0 && !obs::WriteMetricsIfRequested(metrics_options)) return 1;
    obs_serve.Finish(options);
    return rc;
  }

  std::vector<double> per_domain(dataset->domains().size(), 0.0);
  double overall = 0.0;
  for (int s = 0; s < options.seeds; ++s) {
    ICrowdConfig config = options.config;
    config.seed = options.seed_base + s;
    auto result = RunExperiment(*dataset, workers, config, options.host);
    if (!result.ok()) {
      std::fprintf(stderr, "experiment failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    overall += result->report.overall;
    for (size_t d = 0; d < per_domain.size(); ++d) {
      per_domain[d] += result->report.per_domain[d].accuracy;
    }
    if (s + 1 == options.seeds && !options.export_answers.empty()) {
      Status st =
          WriteAnswersCsv(result->sim.answers, options.export_answers);
      if (!st.ok()) {
        std::fprintf(stderr, "export failed: %s\n", st.ToString().c_str());
        return 1;
      }
    }
  }

  std::printf("dataset=%s strategy=%s k=%d Q=%zu alpha=%s seeds=%d\n",
              options.dataset.c_str(), StrategyName(kind),
              options.config.assignment_size,
              options.config.num_qualification,
              FormatDouble(options.config.estimator.ppr.alpha, 2).c_str(),
              options.seeds);
  if (options.per_domain) {
    for (size_t d = 0; d < per_domain.size(); ++d) {
      std::printf("  %-18s %s\n", dataset->domains()[d].c_str(),
                  FormatDouble(per_domain[d] / options.seeds, 3).c_str());
    }
  }
  std::printf("overall accuracy: %s\n",
              FormatDouble(overall / options.seeds, 3).c_str());
  if (!EmitStatuszIfRequested(options)) return 1;
  if (!obs::WriteMetricsIfRequested(metrics_options)) return 1;
  obs_serve.Finish(options);
  return 0;
}
