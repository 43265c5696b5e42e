#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

size_t Rank(size_t n, double q) {
  q = std::clamp(q, 0.0, 100.0);
  // The epsilon keeps q/100 * n from rounding up past an exact integer
  // (e.g. 99/100 * 1000 evaluates to 990.0000000000001).
  return static_cast<size_t>(std::ceil(q / 100.0 * static_cast<double>(n) -
                                        1e-9));
}

}  // namespace

size_t SamplesBeyond(size_t n, double q) { return n - Rank(n, q); }

bool PercentileSupported(size_t n, double q, size_t min_beyond) {
  return n > 0 && SamplesBeyond(n, q) >= min_beyond;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  size_t rank = std::max<size_t>(Rank(values.size(), q), 1);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double FastestStretches(const std::vector<std::vector<double>>& rounds) {
  if (rounds.empty()) return 0.0;
  size_t stretches = rounds[0].size();
  for (const std::vector<double>& r : rounds) {
    stretches = std::min(stretches, r.size());
  }
  double total = 0.0;
  for (size_t j = 0; j < stretches; ++j) {
    double fastest = rounds[0][j];
    for (const std::vector<double>& r : rounds) fastest = std::min(fastest, r[j]);
    total += fastest;
  }
  return total;
}

std::vector<std::vector<double>> AckTimes(
    const std::vector<uint64_t>& sent,
    const std::vector<SettleObservation>& timeline) {
  std::vector<std::vector<double>> acks(sent.size());
  for (size_t c = 0; c < sent.size(); ++c) acks[c].assign(sent[c], -1.0);
  std::vector<uint64_t> acked(sent.size(), 0);
  for (const SettleObservation& o : timeline) {
    if (o.campaign >= sent.size()) continue;
    const uint64_t upto = std::min(o.settled, sent[o.campaign]);
    for (uint64_t& k = acked[o.campaign]; k < upto; ++k) {
      acks[o.campaign][k] = o.t;
    }
  }
  return acks;
}

}  // namespace perfbench
