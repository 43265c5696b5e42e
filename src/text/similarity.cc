#include "text/similarity.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/math_util.h"

namespace icrowd {

namespace {

void SortUnique(std::vector<std::string>* tokens) {
  std::sort(tokens->begin(), tokens->end());
  tokens->erase(std::unique(tokens->begin(), tokens->end()), tokens->end());
}

}  // namespace

double JaccardSimilarity(std::vector<std::string> a,
                         std::vector<std::string> b) {
  SortUnique(&a);
  SortUnique(&b);
  return SortedSetJaccard(a, b);
}

double JaccardSimilarity(const std::string& a, const std::string& b,
                         const Tokenizer& tokenizer) {
  return JaccardSimilarity(tokenizer.Tokenize(a), tokenizer.Tokenize(b));
}

size_t EditDistance(const std::string& a, const std::string& b) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0) return m;
  if (m == 0) return n;
  // Rolling single-row DP.
  std::vector<size_t> row(m + 1);
  for (size_t j = 0; j <= m; ++j) row[j] = j;
  for (size_t i = 1; i <= n; ++i) {
    size_t diag = row[0];
    row[0] = i;
    for (size_t j = 1; j <= m; ++j) {
      size_t next_diag = row[j];
      size_t sub = diag + (a[i - 1] == b[j - 1] ? 0 : 1);
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, sub});
      diag = next_diag;
    }
  }
  return row[m];
}

double EditSimilarity(const std::string& a, const std::string& b) {
  size_t max_len = std::max(a.size(), b.size());
  if (max_len == 0) return 1.0;
  return 1.0 -
         static_cast<double>(EditDistance(a, b)) /
             static_cast<double>(max_len);
}

double EuclideanDistance(const std::vector<double>& a,
                         const std::vector<double>& b) {
  assert(a.size() == b.size());
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    double d = a[i] - b[i];
    acc += d * d;
  }
  return std::sqrt(acc);
}

double EuclideanSimilarity(const std::vector<double>& a,
                           const std::vector<double>& b,
                           double max_distance) {
  assert(max_distance > 0.0);
  return Clamp(1.0 - EuclideanDistance(a, b) / max_distance, 0.0, 1.0);
}

}  // namespace icrowd
