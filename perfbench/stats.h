#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Samples strictly above the nearest-rank q-th percentile of n samples:
/// n - ceil(q/100 * n).
size_t SamplesBeyond(size_t n, double q);

/// True when the q-th percentile of n samples leaves at least `min_beyond`
/// samples above it, so the percentile is not set by a handful of values.
bool PercentileSupported(size_t n, double q, size_t min_beyond = 10);

/// Nearest-rank percentile: the ceil(q/100 * n)-th smallest value (the
/// smallest for q = 0). 0 for an empty input.
double Percentile(std::vector<double> values, double q);

double Median(std::vector<double> values);

/// Closed-loop seconds robust to a shared machine's slowdowns.
/// `rounds[r][j]` is how long round r took to settle the j-th stretch of
/// one and the same event sequence. A slowdown only ever lengthens a
/// stretch, so the fastest round of each stretch, summed over stretches, is
/// the time the code itself needs. Only stretches every round has count.
double FastestStretches(const std::vector<std::vector<double>>& rounds);

/// One read of the host's settle ledger: at time `t`, campaign `campaign`
/// had `settled` of its events applied and durably journaled.
struct SettleObservation {
  double t = 0.0;
  uint32_t campaign = 0;
  uint64_t settled = 0;
};

/// Ack accounting. Events of one campaign settle in submission order, so
/// its k-th event (0-based) is acked at the first observation whose
/// settled count exceeds k. Returns, per campaign, the ack time of each of
/// its `sent[c]` events; an event never observed settled gets -1.
std::vector<std::vector<double>> AckTimes(
    const std::vector<uint64_t>& sent,
    const std::vector<SettleObservation>& timeline);

/// Failed operations over attempted ones. An operation is an event
/// submitted, a campaign created or opened, or a campaign verified against
/// its recording; a failed one is a refused or unacked event, a failed
/// create or open, or a mismatch.
struct ErrorLedger {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Add(uint64_t ops, uint64_t failures) {
    attempted += ops;
    failed += failures;
  }
  double rate() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
