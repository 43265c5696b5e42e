#ifndef ICROWD_QUALIFICATION_QUALIFICATION_SELECTOR_H_
#define ICROWD_QUALIFICATION_QUALIFICATION_SELECTOR_H_

#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "graph/ppr.h"
#include "model/microtask.h"

namespace icrowd {

/// Output of qualification selection: the chosen tasks (in selection order)
/// and the influence INF(T^q) they achieve.
struct QualificationSelection {
  std::vector<TaskId> tasks;
  size_t influence = 0;
};

/// InfQF (Algorithm 4): greedy influence maximization — Q iterations, each
/// adding the task with maximal marginal influence. The influence function
/// is monotone submodular (it is a coverage function), so this achieves the
/// classic 1 - 1/e approximation despite the problem being NP-hard
/// (Lemma 5). O(Q·|T|^2) worst case as in the paper; lazy evaluation
/// (CELF) rescores only the candidates that reach the top of a max-heap,
/// and picks exactly what the full scan would, ties to the lower task id.
Result<QualificationSelection> SelectQualificationGreedy(
    const PprEngine& engine, size_t quota, double epsilon = 0.0);

/// RandomQF (§6.3.1): Q distinct tasks chosen uniformly at random; the
/// reported influence is computed for comparison.
Result<QualificationSelection> SelectQualificationRandom(
    const PprEngine& engine, size_t quota, Rng* rng, double epsilon = 0.0);

}  // namespace icrowd

#endif  // ICROWD_QUALIFICATION_QUALIFICATION_SELECTOR_H_
