#ifndef ICROWD_COMMON_MATH_UTIL_H_
#define ICROWD_COMMON_MATH_UTIL_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <functional>
#include <initializer_list>
#include <span>
#include <vector>

namespace icrowd {

/// Arithmetic mean; 0 for empty input.
double Mean(const std::vector<double>& values);

/// Population standard deviation; 0 for inputs of size < 2.
double StdDev(const std::vector<double>& values);

/// Clamps `value` into [lo, hi].
inline double Clamp(double value, double lo, double hi) {
  return std::max(lo, std::min(hi, value));
}

/// Clamps a probability into the open interval (eps, 1 - eps) so that
/// products/odds computed from it stay finite.
inline double ClampProbability(double p, double eps = 1e-6) {
  return Clamp(p, eps, 1.0 - eps);
}

/// Numerically stable log(sum(exp(x_i))).
double LogSumExp(std::span<const double> xs);

/// LogSumExp({a, b}) without building a container on the heap.
inline double LogSumExp(std::initializer_list<double> xs) {
  return LogSumExp(std::span<const double>(xs.begin(), xs.size()));
}

/// Variance of a Beta(a, b) distribution: ab / ((a+b)^2 (a+b+1)).
/// The paper's §4.1 uncertainty for a worker with N1 correct / N0 incorrect
/// similar tasks is BetaVariance(N1 + 1, N0 + 1).
inline double BetaVariance(double a, double b) {
  assert(a > 0 && b > 0);
  double s = a + b;
  return (a * b) / (s * s * (s + 1.0));
}

/// Invokes `visit` on every size-`k` subset of {0, .., n-1}, passing the
/// subset as sorted indices. Used by the exact (enumeration) assignment
/// solver and the worker-set accuracy of Eq. (1).
void ForEachSubset(size_t n, size_t k,
                   const std::function<void(const std::vector<size_t>&)>& visit);

/// Probability that a strict/tie-breaking majority of independent workers
/// with accuracies `p` answers correctly: Eq. (1) with x ranging over
/// ceil((k+1)/2) .. k. For even k, ties count as failure.
double MajorityAccuracy(const std::vector<double>& p);

}  // namespace icrowd

#endif  // ICROWD_COMMON_MATH_UTIL_H_
