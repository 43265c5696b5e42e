#include "common/math_util.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

namespace icrowd {

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double StdDev(const std::vector<double>& values) {
  if (values.size() < 2) return 0.0;
  double mean = Mean(values);
  double acc = 0.0;
  for (double v : values) acc += (v - mean) * (v - mean);
  return std::sqrt(acc / static_cast<double>(values.size()));
}

double LogSumExp(std::span<const double> xs) {
  if (xs.empty()) return -std::numeric_limits<double>::infinity();
  double max = *std::max_element(xs.begin(), xs.end());
  if (!std::isfinite(max)) return max;
  double acc = 0.0;
  for (double x : xs) acc += std::exp(x - max);
  return max + std::log(acc);
}

namespace {

void ForEachSubsetImpl(
    size_t n, size_t k, size_t start, std::vector<size_t>* current,
    const std::function<void(const std::vector<size_t>&)>& visit) {
  if (current->size() == k) {
    visit(*current);
    return;
  }
  // Prune: not enough elements left to fill the subset.
  size_t needed = k - current->size();
  for (size_t i = start; i + needed <= n; ++i) {
    current->push_back(i);
    ForEachSubsetImpl(n, k, i + 1, current, visit);
    current->pop_back();
  }
}

}  // namespace

void ForEachSubset(
    size_t n, size_t k,
    const std::function<void(const std::vector<size_t>&)>& visit) {
  if (k > n) return;
  std::vector<size_t> current;
  current.reserve(k);
  ForEachSubsetImpl(n, k, 0, &current, visit);
}

double MajorityAccuracy(const std::vector<double>& p) {
  size_t k = p.size();
  if (k == 0) return 0.0;
  // Dynamic program over "number of correct answers": dp[c] = probability
  // exactly c of the first i workers answer correctly. O(k^2), exact, and
  // avoids the exponential subset sum of the literal Eq. (1).
  std::vector<double> dp(k + 1, 0.0);
  dp[0] = 1.0;
  for (size_t i = 0; i < k; ++i) {
    for (size_t c = i + 1; c > 0; --c) {
      dp[c] = dp[c] * (1.0 - p[i]) + dp[c - 1] * p[i];
    }
    dp[0] *= (1.0 - p[i]);
  }
  size_t majority = k / 2 + 1;  // (k+1)/2 rounded up == strict majority
  double acc = 0.0;
  for (size_t c = majority; c <= k; ++c) acc += dp[c];
  return acc;
}

}  // namespace icrowd
