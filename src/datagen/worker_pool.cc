#include "datagen/worker_pool.h"

#include <algorithm>
#include <string>

#include "common/random.h"

namespace icrowd {

std::vector<WorkerProfile> GenerateWorkerPool(
    const Dataset& dataset, const WorkerPoolOptions& options) {
  Rng rng(options.seed);
  const size_t num_domains = std::max<size_t>(1, dataset.domains().size());
  std::vector<WorkerProfile> pool;
  pool.reserve(options.num_workers);

  double mix_total = options.expert_fraction + options.generalist_fraction +
                     options.spammer_fraction;
  if (mix_total <= 0.0) mix_total = 1.0;
  const double expert_cut = options.expert_fraction / mix_total;
  const double generalist_cut =
      expert_cut + options.generalist_fraction / mix_total;

  auto cap = [&](size_t domain, double accuracy) {
    if (domain < options.domain_accuracy_cap.size() &&
        options.domain_accuracy_cap[domain] > 0.0) {
      return std::min(accuracy, options.domain_accuracy_cap[domain]);
    }
    return accuracy;
  };

  size_t next_expert_domain = 0;
  for (size_t i = 0; i < options.num_workers; ++i) {
    WorkerProfile profile;
    profile.domain_accuracy.resize(num_domains);
    double archetype = rng.Uniform();
    const char* tag;
    if (archetype < expert_cut) {
      tag = "EXP";
      // 1-2 strong domains, rotated so coverage is even.
      size_t primary = next_expert_domain++ % num_domains;
      size_t secondary = num_domains;
      if (num_domains > 1 && rng.Bernoulli(0.4)) {
        secondary = (primary + 1 + rng.UniformInt(0, num_domains - 2)) %
                    num_domains;
      }
      for (size_t d = 0; d < num_domains; ++d) {
        double accuracy;
        if (d == primary || d == secondary) {
          accuracy = rng.Uniform(options.expert_low, options.expert_high);
        } else {
          accuracy =
              rng.Uniform(options.expert_weak_low, options.expert_weak_high);
        }
        profile.domain_accuracy[d] = cap(d, accuracy);
      }
      profile.willingness = rng.Geometric(options.power_mean_tasks);
    } else if (archetype < generalist_cut) {
      tag = "GEN";
      for (size_t d = 0; d < num_domains; ++d) {
        profile.domain_accuracy[d] =
            cap(d, rng.Uniform(options.generalist_low,
                               options.generalist_high));
      }
      profile.willingness = rng.Geometric(options.regular_mean_tasks);
    } else {
      tag = "SPM";
      for (size_t d = 0; d < num_domains; ++d) {
        profile.domain_accuracy[d] =
            cap(d, rng.Uniform(options.spammer_low, options.spammer_high));
      }
      profile.willingness = rng.Geometric(options.casual_mean_tasks);
    }
    // Built in a local with append: GCC 12's -Wrestrict misfires under -O2
    // on both the chained operator+ form and assigning a literal here.
    std::string id(1, 'W');
    id += std::to_string(i);
    id += '-';
    id += tag;
    profile.external_id = std::move(id);
    profile.arrival_time = rng.Uniform(0.0, 30.0);
    profile.mean_dwell = rng.Uniform(0.5, 2.0);
    pool.push_back(std::move(profile));
  }
  return pool;
}

}  // namespace icrowd
