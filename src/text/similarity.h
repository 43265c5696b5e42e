#ifndef ICROWD_TEXT_SIMILARITY_H_
#define ICROWD_TEXT_SIMILARITY_H_

#include <string>
#include <vector>

#include "text/tokenizer.h"

namespace icrowd {

/// |A ∩ B| / |A ∪ B| of two ascending, duplicate-free sequences; 0 when
/// both are empty. The counting core of every Jaccard overload: both
/// counts are integers, so token strings and their vocabulary ids give the
/// same double for the same sets.
template <typename T>
double SortedSetJaccard(const std::vector<T>& a, const std::vector<T>& b) {
  size_t intersection = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++intersection;
      ++i;
      ++j;
    }
  }
  const size_t uni = a.size() + b.size() - intersection;
  if (uni == 0) return 0.0;
  return static_cast<double>(intersection) / static_cast<double>(uni);
}

/// Jaccard similarity of two token multisets treated as sets:
/// |intersection| / |union| (§3.3 option 1; drives the Figure 3 example).
double JaccardSimilarity(std::vector<std::string> a,
                         std::vector<std::string> b);

/// Jaccard over raw texts: tokenizes both sides first.
double JaccardSimilarity(const std::string& a, const std::string& b,
                         const Tokenizer& tokenizer);

/// Levenshtein edit distance between two strings (§3.3 mentions edit
/// distance as an alternative textual measure).
size_t EditDistance(const std::string& a, const std::string& b);

/// Edit distance normalized into a [0, 1] similarity:
/// 1 - dist / max(len(a), len(b)); 1.0 for two empty strings.
double EditSimilarity(const std::string& a, const std::string& b);

/// §3.3 option 2: similarity for feature-vector microtasks (POIs, images):
/// 1 - dist(a, b) / max_distance, clamped to [0, 1]. `max_distance` is the
/// paper's tau_d (the max pairwise distance in the task set); must be > 0.
double EuclideanSimilarity(const std::vector<double>& a,
                           const std::vector<double>& b,
                           double max_distance);

/// Plain Euclidean distance between equal-length feature vectors.
double EuclideanDistance(const std::vector<double>& a,
                         const std::vector<double>& b);

}  // namespace icrowd

#endif  // ICROWD_TEXT_SIMILARITY_H_
