#include "workload.h"

#include <sstream>

#include "datagen/entity_resolution.h"
#include "datagen/itemcompare.h"
#include "datagen/yahooqa.h"

namespace perfbench {

using icrowd::Result;
using icrowd::SimilarityMeasure;
using icrowd::Status;

namespace {

/// splitmix64: derives independent sub-seeds from the benchmark seed.
uint64_t Mix(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

icrowd::GraphBuildOptions Graph(SimilarityMeasure measure) {
  icrowd::GraphBuildOptions graph;
  graph.measure = measure;
  graph.threshold = measure == SimilarityMeasure::kCosineTopic ? 0.8 : 0.3;
  return graph;
}

CampaignSpec Campaign(const Workload& w, size_t index, size_t corpus,
                      SimilarityMeasure measure) {
  CampaignSpec spec;
  spec.name = w.name + "-" + std::to_string(index);
  spec.corpus = corpus;
  spec.config.graph = Graph(measure);
  spec.config.seed = Mix(w.seed, 1000 + index);
  spec.config.graph.lda.seed = Mix(0, 2000 + corpus);
  spec.drive.seed = Mix(0, 3000 + index);
  return spec;
}

// Corpus texts, worker pools and the workers' answers are fixed per
// workload, like the paper's datasets and crowds; the seed varies the
// campaign config seeds and the phase-A arrival schedule. Graph density
// follows the generated texts, and a campaign's cost follows which tasks
// its crowd completes when: seeding those made one campaign's CPU per
// event differ by 45% and its throughput by 3x from seed to seed, far
// more than any change under test.
CorpusSpec Corpus(size_t index, CorpusKind kind, size_t size,
                  size_t workers) {
  return {kind, size, Mix(0, 10 + index), Mix(0, 500 + index), workers};
}

// Why each workload exists (README.md has the layer map):
//  * fleet: many small paper-scale campaigns on a 3-shard host — the load
//    sits on routing, regrouping, the ingest queue and journal group commit.
//  * big_corpus: one 1,600-task campaign — graph, PPR and qualification
//    dominate set-up and recovery; the O(|T|) scheme rebuild and estimator
//    refresh dominate every event.
void Fleet(Workload* w) {
  static constexpr CorpusKind kKinds[] = {
      CorpusKind::kYahooQa, CorpusKind::kItemCompare,
      CorpusKind::kEntityResolution};
  static constexpr SimilarityMeasure kMeasures[] = {
      SimilarityMeasure::kJaccard, SimilarityMeasure::kCosineTfIdf,
      SimilarityMeasure::kCosineTopic};
  constexpr size_t kCorpora = 8;
  constexpr size_t kCampaignsPerCorpus = 4;
  for (size_t c = 0; c < kCorpora; ++c) {
    CorpusKind kind = kKinds[c % 3];
    size_t size = kind == CorpusKind::kYahooQa       ? 110
                  : kind == CorpusKind::kItemCompare ? 90
                                                     : 120;
    size_t workers = kind == CorpusKind::kEntityResolution ? 40 : 0;
    w->corpora.push_back(Corpus(c, kind, size, workers));
    // Every corpus kind meets every measure across the eight corpora.
    SimilarityMeasure measure = kMeasures[(c + c / 3) % 3];
    for (size_t k = 0; k < kCampaignsPerCorpus; ++k) {
      w->campaigns.push_back(
          Campaign(*w, w->campaigns.size(), c, measure));
    }
  }
  w->num_shards = 3;
  w->num_threads = 1;
  // Warm-up is 27-50% of these streams (10 qualification answers per
  // worker); half of each stream reaches the adaptive rounds.
  w->prefix_share = 0.5;
  w->phase_a_rate = 1000.0;
}

void BigCorpus(Workload* w) {
  w->corpora.push_back(Corpus(0, CorpusKind::kEntityResolution, 400, 40));
  w->campaigns.push_back(
      Campaign(*w, 0, 0, SimilarityMeasure::kJaccard));
  w->num_shards = 1;
  // Two pool threads exercise the parallel fan-out yet leave the host's
  // vCPUs free for the shard and producer threads; with four, a vCPU the
  // shared host takes away stalled every ParallelFor, and phase B ran up to
  // 2x slower for seconds at a time.
  w->num_threads = 2;
  w->prefix_share = 0.1;  // warm-up is the first 8% of this stream
  w->phase_a_rate = 250.0;
}

const char* KindName(CorpusKind kind) {
  switch (kind) {
    case CorpusKind::kYahooQa:
      return "yahooqa";
    case CorpusKind::kItemCompare:
      return "itemcompare";
    case CorpusKind::kEntityResolution:
      return "entity";
  }
  return "?";
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"fleet", "big_corpus"};
  return kNames;
}

Result<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  Workload w;
  w.name = name;
  w.seed = seed;
  if (name == "fleet") {
    Fleet(&w);
  } else if (name == "big_corpus") {
    BigCorpus(&w);
  } else {
    return Status::InvalidArgument("unknown workload '" + name + "'");
  }
  return w;
}

std::string DescribeWorkload(const Workload& w) {
  std::ostringstream out;
  out << "workload " << w.name << " seed " << w.seed << " shards "
      << w.num_shards << " threads " << w.num_threads << " prefix "
      << w.prefix_share << " rate " << w.phase_a_rate << " rounds " << w.rounds << "\n";
  for (const CorpusSpec& c : w.corpora) {
    out << "corpus " << KindName(c.kind) << " size " << c.size << " data "
        << c.data_seed << " workers " << c.num_workers << " worker_seed "
        << c.worker_seed << "\n";
  }
  for (const CampaignSpec& c : w.campaigns) {
    out << "campaign " << c.name << " corpus " << c.corpus << " measure "
        << icrowd::SimilarityMeasureName(c.config.graph.measure)
        << " threshold " << c.config.graph.threshold << " lda_seed "
        << c.config.graph.lda.seed << " config_seed " << c.config.seed
        << " drive_seed " << c.drive.seed << "\n";
  }
  return out.str();
}

Result<icrowd::Dataset> GenerateCorpus(const CorpusSpec& corpus) {
  switch (corpus.kind) {
    case CorpusKind::kYahooQa: {
      icrowd::YahooQaOptions options;
      options.num_tasks = corpus.size;
      options.seed = corpus.data_seed;
      return icrowd::GenerateYahooQa(options);
    }
    case CorpusKind::kItemCompare: {
      icrowd::ItemCompareOptions options;
      options.tasks_per_domain = corpus.size;
      options.seed = corpus.data_seed;
      return icrowd::GenerateItemCompare(options);
    }
    case CorpusKind::kEntityResolution: {
      icrowd::EntityResolutionOptions options;
      options.tasks_per_family = corpus.size;
      options.seed = corpus.data_seed;
      return icrowd::GenerateEntityResolution(options);
    }
  }
  return Status::InvalidArgument("unknown corpus kind");
}

std::vector<icrowd::WorkerProfile> GenerateWorkers(
    const CorpusSpec& corpus, const icrowd::Dataset& dataset) {
  switch (corpus.kind) {
    case CorpusKind::kYahooQa:
      return icrowd::GenerateYahooQaWorkers(dataset, corpus.worker_seed);
    case CorpusKind::kItemCompare:
      return icrowd::GenerateItemCompareWorkers(dataset, corpus.worker_seed);
    case CorpusKind::kEntityResolution:
      return icrowd::GenerateEntityResolutionWorkers(
          dataset, corpus.num_workers, corpus.worker_seed);
  }
  return {};
}

}  // namespace perfbench
