// Offline-phase microbench (DESIGN.md §3, §7): what does campaign set-up
// cost, stage by stage? Each case runs the three steps ICrowd::Build runs
// before a campaign serves — the similarity graph from the task texts, the
// PPR seed precompute of Algorithm 1, and the greedy qualification
// selection of Algorithm 4 — with the default campaign configuration, and
// reports each stage's seconds as its own metric (`<case>.graph_s`,
// `<case>.ppr_s`, `<case>.qual_s`) next to the graph's edge count and the
// bytes the engine's seed vectors hold (`<case>.seed_bytes`). It then
// times the corpus index round trip a CampaignManager makes through its
// journal_dir (DESIGN.md §11): WriteCorpusIndexFile of the engine
// (`<case>.index_write_s`, no fsync) and ReadCorpusIndexFile back
// (`<case>.index_read_s`), in a fresh temporary directory, and checks that
// the decoded engine holds the same seed bytes.
//
// Cases: entity-resolution corpora at 480 and 1,600 tasks under Jaccard
// 0.3, uncapped; ItemCompare (360 tasks) under Cos(tf-idf) 0.3; and, in
// full runs only (not --smoke), entity resolution at 4,800 tasks with a
// 40-neighbor cap.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>

#include <unistd.h>

#include "bench_harness.h"
#include "common/stopwatch.h"
#include "core/config.h"
#include "core/icrowd.h"
#include "datagen/entity_resolution.h"
#include "datagen/itemcompare.h"
#include "graph/ppr.h"
#include "graph/similarity_graph.h"
#include "host/recovery_files.h"
#include "qualification/qualification_selector.h"

using namespace icrowd;         // NOLINT: bench brevity
using namespace icrowd::bench;  // NOLINT: bench brevity

namespace {

struct OfflineCase {
  const char* name;
  /// ItemCompare when set, entity resolution otherwise.
  bool item_compare;
  /// Tasks per ItemCompare domain or per product family.
  size_t size;
  SimilarityMeasure measure;
  size_t max_neighbors;
  /// Part of the --smoke (CI) run.
  bool smoke;
};

constexpr OfflineCase kCases[] = {
    {"er480_jaccard", false, 120, SimilarityMeasure::kJaccard, 0, true},
    {"er1600_jaccard", false, 400, SimilarityMeasure::kJaccard, 0, true},
    {"itemcompare360_tfidf", true, 90, SimilarityMeasure::kCosineTfIdf, 0,
     true},
    {"er4800_jaccard_cap40", false, 1200, SimilarityMeasure::kJaccard, 40,
     false},
};

Result<Dataset> MakeCorpus(const OfflineCase& c) {
  if (c.item_compare) {
    ItemCompareOptions options;
    options.tasks_per_domain = c.size;
    return GenerateItemCompare(options);
  }
  EntityResolutionOptions options;
  options.tasks_per_family = c.size;
  return GenerateEntityResolution(options);
}

/// Writes `engine` as a corpus index into a fresh temporary directory and
/// reads it back, timing each half; false on any failure or when the
/// decoded engine's seed bytes differ from the original's.
bool TimeIndexRoundTrip(const OfflineCase& c, const Dataset& dataset,
                        const ICrowdConfig& config, const PprEngine& engine,
                        double* write_s, double* read_s) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path dir = fs::temp_directory_path(ec) /
                       ("icrowd_micro_offline_" + std::to_string(getpid()));
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "%s: index dir: %s\n", c.name, ec.message().c_str());
    return false;
  }
  const std::string path = (dir / "corpus.ppr").string();
  const uint64_t fingerprint = ICrowd::CorpusFingerprint(dataset, config);
  Stopwatch watch;
  Status written =
      WriteCorpusIndexFile(path, fingerprint, engine, /*fsync=*/false);
  *write_s = watch.ElapsedSeconds();
  watch.Restart();
  auto loaded = written.ok()
                    ? ReadCorpusIndexFile(path, fingerprint, dataset.size(),
                                          config.estimator.ppr)
                    : Result<PprEngine>(written);
  *read_s = watch.ElapsedSeconds();
  fs::remove_all(dir, ec);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s: index: %s\n", c.name,
                 loaded.status().ToString().c_str());
    return false;
  }
  if (loaded->seed_bytes() != engine.seed_bytes()) {
    std::fprintf(stderr, "%s: index: decoded %zu seed bytes, built %zu\n",
                 c.name, loaded->seed_bytes(), engine.seed_bytes());
    return false;
  }
  return true;
}

/// Times the three offline stages and the index round trip on one corpus;
/// false on any failure.
bool RunCase(const OfflineCase& c, BenchContext& ctx) {
  auto dataset = MakeCorpus(c);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s: corpus: %s\n", c.name,
                 dataset.status().ToString().c_str());
    return false;
  }
  ICrowdConfig config;
  config.graph.measure = c.measure;
  config.graph.threshold = 0.3;
  config.graph.max_neighbors = c.max_neighbors;

  Stopwatch watch;
  auto graph = SimilarityGraph::Build(*dataset, config.graph);
  const double graph_s = watch.ElapsedSeconds();
  if (!graph.ok()) {
    std::fprintf(stderr, "%s: graph: %s\n", c.name,
                 graph.status().ToString().c_str());
    return false;
  }
  watch.Restart();
  auto engine = PprEngine::Precompute(*graph, config.estimator.ppr);
  const double ppr_s = watch.ElapsedSeconds();
  if (!engine.ok()) {
    std::fprintf(stderr, "%s: ppr: %s\n", c.name,
                 engine.status().ToString().c_str());
    return false;
  }
  watch.Restart();
  auto selection = SelectQualificationGreedy(
      *engine, std::min(config.num_qualification, dataset->size()),
      config.influence_epsilon);
  const double qual_s = watch.ElapsedSeconds();
  if (!selection.ok()) {
    std::fprintf(stderr, "%s: qualification: %s\n", c.name,
                 selection.status().ToString().c_str());
    return false;
  }

  double index_write_s = 0.0;
  double index_read_s = 0.0;
  if (!TimeIndexRoundTrip(c, *dataset, config, *engine, &index_write_s,
                          &index_read_s)) {
    return false;
  }

  const std::string prefix = std::string(c.name) + ".";
  ctx.ReportMetric(prefix + "graph_s", graph_s);
  ctx.ReportMetric(prefix + "ppr_s", ppr_s);
  ctx.ReportMetric(prefix + "qual_s", qual_s);
  ctx.ReportMetric(prefix + "index_write_s", index_write_s);
  ctx.ReportMetric(prefix + "index_read_s", index_read_s);
  ctx.ReportMetric(prefix + "edges", static_cast<double>(graph->num_edges()));
  ctx.ReportMetric(prefix + "seed_bytes",
                   static_cast<double>(engine->seed_bytes()));
  ctx.AddIterations(dataset->size());
  std::printf("%-22s tasks %5zu edges %7zu seeds %9zu B graph %8.4f s "
              "ppr %8.4f s qual %8.4f s index write %8.4f s read %8.4f s\n",
              c.name, dataset->size(), graph->num_edges(),
              engine->seed_bytes(), graph_s, ppr_s, qual_s, index_write_s,
              index_read_s);
  return true;
}

}  // namespace

ICROWD_BENCH("micro_offline") {
  for (const OfflineCase& c : kCases) {
    if (ctx.smoke() && !c.smoke) continue;
    if (!RunCase(c, ctx)) return;
  }
}
