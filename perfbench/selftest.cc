// The benchmark's own tests: percentile selection and the ten-samples rule,
// ack accounting on a hand-built settle timeline, error_rate arithmetic,
// span self time, and determinism of seed -> workload -> recorded stream.
// Prints one line per failed check; exits non-zero if any failed.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "recording.h"
#include "stats.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

int failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL %s\n", what.c_str());
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestPercentiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, unsorted
  Check(Near(Percentile(v, 50), 50), "p50 of 1..100 is 50");
  Check(Near(Percentile(v, 99), 99), "p99 of 1..100 is 99");
  Check(Near(Percentile(v, 100), 100), "p100 is the maximum");
  Check(Near(Percentile(v, 0), 1), "p0 is the minimum");
  Check(Near(Percentile({7.0}, 99), 7), "one sample is every percentile");
  Check(Near(Percentile({}, 50), 0), "empty input gives 0");
  Check(Near(Median({4, 1, 3, 2}), 2.5), "even-length median averages");
  Check(Near(Median({3, 1, 2}), 2), "odd-length median");

  // Samples beyond the nearest-rank percentile, and the ten-samples rule.
  Check(SamplesBeyond(1000, 99) == 10, "1000 samples leave 10 beyond p99");
  Check(SamplesBeyond(999, 99) == 9, "999 samples leave 9 beyond p99");
  Check(PercentileSupported(1000, 99), "p99 supported at 1000");
  Check(!PercentileSupported(999, 99), "p99 not supported at 999");
  Check(PercentileSupported(20, 50), "p50 supported at 20");
  Check(!PercentileSupported(0, 50), "nothing supported on no samples");
  Check(SamplesBeyond(10000, 99.9) == 10, "10000 samples leave 10 beyond p99.9");

  // Each stretch takes its fastest round; a slowdown in one round is gone.
  Check(Near(FastestStretches({{1, 5, 1}, {4, 1, 1}, {1, 1, 9}}), 3),
        "fastest round per stretch, summed");
  Check(Near(FastestStretches({{2, 2, 2}}), 6), "one round is its own total");
  Check(Near(FastestStretches({{1, 1, 7}, {2, 2}}), 2),
        "only stretches every round has count");
  Check(Near(FastestStretches({}), 0), "no rounds give 0");
}

void TestAckAccounting() {
  // Campaign 0 sends 3 events, campaign 1 sends 2. Ledger reads:
  //   t=1.0: c0 settled 1      t=2.0: c0 settled 3, c1 settled 1
  //   t=3.0: c1 settled 1 (no change)   t=4.0: c1 settled 5 (capped at 2)
  std::vector<SettleObservation> timeline = {
      {1.0, 0, 1}, {2.0, 0, 3}, {2.0, 1, 1}, {3.0, 1, 1}, {4.0, 1, 5}};
  auto acks = AckTimes({3, 2}, timeline);
  Check(acks.size() == 2 && acks[0].size() == 3 && acks[1].size() == 2,
        "ack vectors sized by events sent");
  Check(Near(acks[0][0], 1.0) && Near(acks[0][1], 2.0) && Near(acks[0][2], 2.0),
        "campaign 0 acks follow its settled count");
  Check(Near(acks[1][0], 2.0) && Near(acks[1][1], 4.0),
        "campaign 1 acks follow its settled count");

  auto partial = AckTimes({2, 1}, {{1.5, 0, 1}, {9.0, 7, 3}});
  Check(Near(partial[0][0], 1.5) && partial[0][1] < 0 && partial[1][0] < 0,
        "unsettled events stay unacked; unknown campaigns are ignored");
}

void TestErrorLedger() {
  ErrorLedger ledger;
  Check(Near(ledger.rate(), 0), "empty ledger rate is 0");
  ledger.Add(1000, 0);  // events, all acked
  ledger.Add(4, 1);     // creates, one failed
  ledger.Add(4, 0);     // verifications
  Check(ledger.attempted == 1008 && ledger.failed == 1, "ledger sums");
  Check(Near(ledger.rate(), 1.0 / 1008.0), "rate is failed over attempted");
}

void TestSelfTime() {
  Tracer tracer(true);
  uint32_t root = tracer.Begin("root");
  uint32_t child = tracer.Begin("child", root);
  tracer.End(child);
  tracer.End(root);
  auto totals = tracer.Summarize();
  Check(totals["root"].count == 1 && totals["child"].count == 1, "span counts");
  Check(totals["root"].self_s <= totals["root"].total_s + 1e-12 &&
            Near(totals["root"].total_s - totals["root"].self_s,
                 totals["child"].total_s),
        "self time excludes the child");
  Tracer off(false);
  Check(off.Begin("x") == 0 && off.Summarize().empty(), "disabled tracer is inert");
}

void TestDeterminism() {
  for (const std::string& name : WorkloadNames()) {
    auto a = MakeWorkload(name, 7);
    auto b = MakeWorkload(name, 7);
    auto c = MakeWorkload(name, 8);
    Check(a.ok() && b.ok() && c.ok(), name + ": workload builds");
    if (!a.ok() || !b.ok() || !c.ok()) continue;
    Check(DescribeWorkload(*a) == DescribeWorkload(*b),
          name + ": same seed, same workload");
    Check(DescribeWorkload(*a) != DescribeWorkload(*c),
          name + ": another seed, another workload");
  }
  Check(!MakeWorkload("nope", 1).ok(), "unknown workload is refused");

  // Same seed, same recorded stream: record the smallest fleet campaign
  // twice from independently generated inputs.
  auto w = MakeWorkload("fleet", 3);
  if (!w.ok()) return;
  const CampaignSpec& campaign = w->campaigns[0];
  const CorpusSpec& corpus = w->corpora[campaign.corpus];
  auto d1 = GenerateCorpus(corpus);
  auto d2 = GenerateCorpus(corpus);
  Check(d1.ok() && d2.ok(), "corpus generates");
  if (!d1.ok() || !d2.ok()) return;
  auto r1 = RecordCampaign(*d1, corpus, campaign);
  auto r2 = RecordCampaign(*d2, corpus, campaign);
  Check(r1.ok() && r2.ok(), "campaign records");
  if (!r1.ok() || !r2.ok()) return;
  Check(!r1->stream.empty() && r1->journal == r2->journal &&
            r1->results == r2->results,
        "same seed gives an identical recorded stream");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestPercentiles();
  perfbench::TestAckAccounting();
  perfbench::TestErrorLedger();
  perfbench::TestSelfTime();
  perfbench::TestDeterminism();
  std::printf("perfbench selftest: %s (%d failed)\n",
              perfbench::failures == 0 ? "ok" : "FAILED", perfbench::failures);
  return perfbench::failures == 0 ? 0 : 1;
}
