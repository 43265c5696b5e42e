// Golden digests of full §6 experiment runs: every strategy on both paper
// datasets at two seeds. A digest folds everything a figure or table reads
// from a run — predictions, the complete answer log with times, spend,
// request and worker counts, completion and overall accuracy — into one
// 64-bit FNV-1a hash. A refactor of the campaign loop must leave every
// pinned value unchanged; a deliberate behaviour change re-pins them and
// says so.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "datagen/itemcompare.h"
#include "datagen/yahooqa.h"
#include "sim/experiment.h"

namespace icrowd {
namespace {

class Digest {
 public:
  void U64(uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xffu;
      hash_ *= 1099511628211ull;
    }
  }
  void I64(int64_t value) { U64(static_cast<uint64_t>(value)); }
  void F64(double value) {
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    U64(bits);
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

uint64_t DigestOf(const ExperimentResult& result) {
  Digest d;
  d.U64(result.predictions.size());
  for (Label label : result.predictions) d.I64(label);
  d.U64(result.sim.answers.size());
  for (const AnswerRecord& a : result.sim.answers) {
    d.I64(a.task);
    d.I64(a.worker);
    d.I64(a.label);
    d.F64(a.time);
  }
  d.F64(result.sim.total_cost);
  d.F64(result.sim.qualification_cost);
  d.U64(result.sim.num_requests);
  d.U64(result.sim.workers_spawned);
  d.U64(result.sim.workers_rejected);
  d.U64(result.sim.completed_all ? 1 : 0);
  d.F64(result.report.overall);
  return d.value();
}

struct Corpus {
  Dataset dataset;
  std::vector<WorkerProfile> workers;
};

Corpus MakeCorpus(bool yahooqa) {
  auto ds = yahooqa ? GenerateYahooQa() : GenerateItemCompare();
  EXPECT_TRUE(ds.ok());
  auto workers = yahooqa ? GenerateYahooQaWorkers(*ds)
                         : GenerateItemCompareWorkers(*ds);
  return {ds.MoveValueOrDie(), std::move(workers)};
}

ExperimentResult RunStrategy(const Corpus& corpus, const std::string& name,
                             uint64_t seed) {
  const StrategyKind kinds[] = {
      StrategyKind::kRandomMV,         StrategyKind::kRandomEM,
      StrategyKind::kAvgAccPV,         StrategyKind::kQfOnly,
      StrategyKind::kBestEffort,       StrategyKind::kAdapt,
      StrategyKind::kAdaptSingleRound, StrategyKind::kAdaptNoTesting,
      StrategyKind::kHungarian};
  for (StrategyKind kind : kinds) {
    if (name != StrategyName(kind)) continue;
    ICrowdConfig config;
    config.strategy = kind;
    config.seed = seed;
    auto result = RunExperiment(corpus.dataset, corpus.workers, config);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.MoveValueOrDie();
  }
  ADD_FAILURE() << "unknown strategy " << name;
  return {};
}

struct Golden {
  const char* strategy;
  uint64_t seed;
  uint64_t digest;
};

void ExpectPinned(bool yahooqa, const std::vector<Golden>& goldens) {
  Corpus corpus = MakeCorpus(yahooqa);
  for (const Golden& golden : goldens) {
    ExperimentResult result = RunStrategy(corpus, golden.strategy, golden.seed);
    EXPECT_TRUE(result.sim.completed_all) << golden.strategy;
    EXPECT_EQ(DigestOf(result), golden.digest)
        << golden.strategy << " seed " << golden.seed << ": digest 0x"
        << std::hex << DigestOf(result);
  }
}

TEST(ExperimentGoldenTest, YahooQaDigestsArePinned) {
  ExpectPinned(/*yahooqa=*/true, {
      {"RandomMV", 1000, 0x57d058d97e9411a4ull},
      {"RandomMV", 1001, 0xf90ae147d2ef7b08ull},
      {"RandomEM", 1000, 0xa43a3d898cd7acf7ull},
      {"RandomEM", 1001, 0xcc7877d424f23729ull},
      {"AvgAccPV", 1000, 0x4148996553733fa4ull},
      {"AvgAccPV", 1001, 0x14028237b2c04a23ull},
      {"QF-Only", 1000, 0x20b1a5359cd4e3a5ull},
      {"QF-Only", 1001, 0xa1184b635c5b6438ull},
      {"BestEffort", 1000, 0x132c277b465d7344ull},
      {"BestEffort", 1001, 0x48248eef4500a7caull},
      {"iCrowd", 1000, 0xbbcd90cfafadda9eull},
      {"iCrowd", 1001, 0x73819207c384adddull},
      {"SingleRound", 1000, 0x8a79d1966ade6c89ull},
      {"SingleRound", 1001, 0xd244a7628b37a6ull},
      {"NoPerfTesting", 1000, 0xf99ae41914051c96ull},
      {"NoPerfTesting", 1001, 0xa16e69fbd377354bull},
      {"Hungarian", 1000, 0xc390dce62f485b6aull},
      {"Hungarian", 1001, 0x4227162782f4bea0ull},
  });
}

TEST(ExperimentGoldenTest, ItemCompareDigestsArePinned) {
  ExpectPinned(/*yahooqa=*/false, {
      {"RandomMV", 1000, 0x2dc1acdba80d3fc4ull},
      {"RandomMV", 1001, 0xed5b7f3c9c1b89e9ull},
      {"RandomEM", 1000, 0xab3332ec0ffd924full},
      {"RandomEM", 1001, 0x5bf5e48df9719856ull},
      {"AvgAccPV", 1000, 0xebb47b53121e8669ull},
      {"AvgAccPV", 1001, 0xcf45d9e4aba01f9aull},
      {"QF-Only", 1000, 0xc10d49b4b06ea8f2ull},
      {"QF-Only", 1001, 0x140198c4fd89d419ull},
      {"BestEffort", 1000, 0x795bf0cafac6bd93ull},
      {"BestEffort", 1001, 0xc86a31127462fb1dull},
      {"iCrowd", 1000, 0xca265b2dea71de00ull},
      {"iCrowd", 1001, 0xc6b62a4a67a954f2ull},
      {"SingleRound", 1000, 0x87219cf90f35f691ull},
      {"SingleRound", 1001, 0x75279cfc5f0a3745ull},
      {"NoPerfTesting", 1000, 0x271bf8d8ea64fe7aull},
      {"NoPerfTesting", 1001, 0xc0783d6ba4144f15ull},
      {"Hungarian", 1000, 0x144f385404420965ull},
      {"Hungarian", 1001, 0xd67073ffde84ea65ull},
  });
}

}  // namespace
}  // namespace icrowd
