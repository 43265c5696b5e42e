#include "graph/ppr.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <memory>

#include "common/thread_pool.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace icrowd {

namespace {

Status ValidateOptions(const PprOptions& options) {
  if (options.alpha <= 0.0) {
    return Status::InvalidArgument("PPR alpha must be > 0");
  }
  if (options.max_iterations < 1) {
    return Status::InvalidArgument("PPR max_iterations must be >= 1");
  }
  return Status::OK();
}

/// The runs of consecutive ids among `count` ids sorted ascending, where
/// `id_at(k)` is the k-th; sized exactly, as the engine keeps them.
template <typename IdAt>
std::vector<SeedRun> RunsOf(size_t count, IdAt id_at) {
  size_t num_runs = 0;
  for (size_t k = 0; k < count; ++k) {
    num_runs += k == 0 || id_at(k) != id_at(k - 1) + 1;
  }
  std::vector<SeedRun> runs;
  runs.reserve(num_runs);
  for (size_t k = 0; k < count; ++k) {
    const int32_t id = id_at(k);
    if (runs.empty() || id != runs.back().start + runs.back().length) {
      runs.push_back({id, 0});
    }
    ++runs.back().length;
  }
  return runs;
}

}  // namespace

Result<PprEngine> PprEngine::Precompute(const SimilarityGraph& graph,
                                        const PprOptions& options) {
  if (graph.num_nodes() == 0) {
    return Status::InvalidArgument("cannot precompute PPR on empty graph");
  }
  ICROWD_RETURN_NOT_OK(ValidateOptions(options));
  PprEngine engine(graph.NormalizedAdjacency(), options);
  const size_t n = graph.num_nodes();
  engine.seeds_.resize(n);
  static const obs::Histogram seed_runs =
      obs::MetricsRegistry::Global().GetHistogram(
          "icrowd.ppr.seed_runs", obs::ExponentialBuckets(1, 4, 8),
          {true, "runs of consecutive task ids per stored seed vector"});
  ICROWD_TRACE_SCOPE("ppr.precompute");
  // Seeds are solved in parallel while the calling thread compacts each one
  // into the engine, in seed order, as soon as it is done. So the engine is
  // allocated by the caller, as it is when Decode() loads it: a host that
  // frees one campaign's engine reuses that memory for the next, built or
  // loaded, instead of stranding it in the solver threads' allocator
  // arenas. The solvers never wait, and the copy trails them by a few
  // seeds.
  std::vector<SparseEntries> solved(n);
  std::unique_ptr<std::atomic<bool>[]> done(new std::atomic<bool>[n]);
  for (size_t i = 0; i < n; ++i) done[i].store(false);
  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  ThreadPool pool(0);
  for (size_t r = 0; r < pool.num_threads(); ++r) {
    pool.Submit([&] {
      for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        try {
          solved[i] = engine.SolveSeed(i);
        } catch (...) {
          failed.store(true);
          done[i].store(true, std::memory_order_release);
          done[i].notify_one();
          throw;
        }
        done[i].store(true, std::memory_order_release);
        done[i].notify_one();
      }
    });
  }
  for (size_t i = 0; i < n && !failed.load(); ++i) {
    done[i].wait(false, std::memory_order_acquire);
    const SparseEntries& entries = solved[i];
    Seed& seed = engine.seeds_[i];
    seed.runs = RunsOf(entries.size(),
                       [&entries](size_t k) { return entries[k].first; });
    seed.values.resize(entries.size());
    for (size_t k = 0; k < entries.size(); ++k) {
      seed.values[k] = entries[k].second;
    }
    seed_runs.Observe(static_cast<double>(seed.runs.size()));
    SparseEntries().swap(solved[i]);
  }
  pool.Wait();  // rethrows a solver's exception
  return engine;
}

SparseEntries PprEngine::SolveSeed(size_t seed) const {
  auto& registry = obs::MetricsRegistry::Global();
  static const obs::Counter seeds_solved = registry.GetCounter(
      "icrowd.ppr.seeds_solved",
      {true, "Algorithm 1 seed vectors solved (one per task)"});
  static const obs::Counter solve_iterations = registry.GetCounter(
      "icrowd.ppr.solve_iterations",
      {true, "power-iteration steps summed over all seeds"});
  static const obs::Histogram seed_support = registry.GetHistogram(
      "icrowd.ppr.seed_support", obs::ExponentialBuckets(1, 4, 8),
      {true, "nonzero entries per converged seed vector"});
  const double c = 1.0 / (1.0 + options_.alpha);        // graph weight
  const double restart = options_.alpha / (1.0 + options_.alpha);
  const size_t n = s_prime_.n();
  // Sparse power iteration of Eq. (4): p <- c * S'p + restart * e_seed,
  // using the sparse-accumulator pattern: per-thread dense value arrays
  // plus explicit support lists, all sized once per thread so a solve
  // allocates nothing but its output. All masses are strictly positive,
  // so value == 0 doubles as the "untouched" flag and each node enters a
  // support list at most once per sweep.
  thread_local std::vector<double> current_buffer;
  thread_local std::vector<double> next_buffer;
  thread_local std::vector<int32_t> support_buffer;
  thread_local std::vector<int32_t> next_support_buffer;
  if (current_buffer.size() < n) {
    current_buffer.assign(n, 0.0);
    next_buffer.assign(n, 0.0);
    // One slot past n: the branch-free appends below always write.
    support_buffer.resize(n + 1);
    next_support_buffer.resize(n + 1);
  }
  double* const current_values = current_buffer.data();
  double* const next_values = next_buffer.data();
  int32_t* const support = support_buffer.data();
  int32_t* const next_support = next_support_buffer.data();
  size_t support_size = 0;
  size_t next_size = 0;

  const size_t* const row_ptr = s_prime_.row_ptr().data();
  const int32_t* const cols = s_prime_.cols().data();
  const double* const values = s_prime_.values().data();
  const double prune_epsilon = options_.prune_epsilon;

  current_values[seed] = 1.0;
  support[support_size++] = static_cast<int32_t>(seed);

  int iterations = 0;
  for (int iter = 0; iter < options_.max_iterations; ++iter) {
    ++iterations;
    // c * S'p — scatter each current entry along its row (S' symmetric).
    for (size_t a = 0; a < support_size; ++a) {
      const int32_t u = support[a];
      const double scaled = c * current_values[u];
      if (scaled == 0.0) continue;
      const size_t row_end = row_ptr[u + 1];
      for (size_t idx = row_ptr[u]; idx < row_end; ++idx) {
        const int32_t v = cols[idx];
        const double x = next_values[v];
        next_support[next_size] = v;
        next_size += (x == 0.0);
        next_values[v] = x + scaled * values[idx];
      }
    }
    next_support[next_size] = static_cast<int32_t>(seed);
    next_size += (next_values[seed] == 0.0);
    next_values[seed] += restart;
    // Prune tiny entries and accumulate the L1 change.
    double diff = 0.0;
    for (size_t a = 0; a < next_size; ++a) {
      const int32_t v = next_support[a];
      if (next_values[v] < prune_epsilon) next_values[v] = 0.0;
      diff += std::abs(next_values[v] - current_values[v]);
    }
    for (size_t a = 0; a < support_size; ++a) {
      const int32_t u = support[a];
      if (next_values[u] == 0.0) diff += current_values[u];
      current_values[u] = 0.0;  // reset old iterate
    }
    // Every current value is 0 now, so a pruned entry may be copied too.
    support_size = 0;
    for (size_t a = 0; a < next_size; ++a) {
      const int32_t v = next_support[a];
      const double x = next_values[v];
      current_values[v] = x;
      support[support_size] = v;
      support_size += (x > 0.0);
      next_values[v] = 0.0;
    }
    next_size = 0;
    if (diff < options_.tolerance) break;
  }

  SparseEntries out;
  out.reserve(support_size);
  std::sort(support, support + support_size);
  for (size_t a = 0; a < support_size; ++a) {
    const int32_t v = support[a];
    out.emplace_back(v, current_values[v]);
    current_values[v] = 0.0;  // leave the scratch clean for the next seed
  }
  seeds_solved.Increment();
  solve_iterations.Increment(static_cast<uint64_t>(iterations));
  seed_support.Observe(static_cast<double>(out.size()));
  return out;
}

void PprEngine::CountEstimates(uint64_t propagations, uint64_t terms) {
  auto& registry = obs::MetricsRegistry::Global();
  static const obs::Counter estimates = registry.GetCounter(
      "icrowd.ppr.estimates",
      {true, "kernel-smoothing propagations of observed accuracies"});
  static const obs::Counter estimate_terms = registry.GetCounter(
      "icrowd.ppr.estimate_terms",
      {true, "seed-vector entries scattered across all propagations"});
  estimates.Increment(propagations);
  estimate_terms.Increment(terms);
}

std::vector<double> PprEngine::EstimateFromObserved(
    const SparseEntries& observed) const {
  std::vector<double> estimate(num_tasks(), 0.0);
  uint64_t terms = 0;
  for (const auto& [task, q] : observed) {
    if (q == 0.0) continue;
    const Seed& seed = seeds_[task];
    terms += seed.values.size();
    const double* v = seed.values.data();
    // A run holds at least one id; scattering the first before the loop
    // spares single-id runs the loop's set-up.
    for (const SeedRun& run : seed.runs) {
      double* const out = estimate.data() + run.start;
      out[0] += q * v[0];
      for (int32_t k = 1; k < run.length; ++k) out[k] += q * v[k];
      v += run.length;
    }
  }
  CountEstimates(1, terms);
  return estimate;
}

size_t PprEngine::seed_bytes() const {
  size_t bytes = 0;
  for (const Seed& seed : seeds_) {
    bytes += seed.runs.size() * sizeof(SeedRun) +
             seed.values.size() * sizeof(double);
  }
  return bytes;
}

// ------------------------------------------------------------ persistence --

// Arrays go out as their in-memory bytes, which are the little-endian bits
// the format specifies; a big-endian port would byte-swap here.
static_assert(std::endian::native == std::endian::little,
              "PprEngine::Encode writes host-order arrays");
static_assert(sizeof(size_t) == sizeof(uint64_t));

namespace {

template <typename T>
Status WriteArray(FrameStreamWriter* out, const std::vector<T>& values) {
  return out->Write(values.data(), values.size() * sizeof(T));
}

template <typename T>
Status WriteScalar(FrameStreamWriter* out, T value) {
  return out->Write(&value, sizeof(T));
}

template <typename T>
Status ReadScalar(FrameStreamReader* in, T* value) {
  return in->Read(value, sizeof(T));
}

/// Reads `count` elements, refusing a count the rest of the stream cannot
/// hold before allocating for it.
template <typename T>
Status ReadArray(FrameStreamReader* in, uint64_t count, std::vector<T>* out) {
  if (count > in->remaining() / sizeof(T)) {
    return Status::InvalidArgument("PPR index array overruns the stream");
  }
  out->resize(static_cast<size_t>(count));
  return in->Read(out->data(), out->size() * sizeof(T));
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace

Status PprEngine::Encode(FrameStreamWriter* out) const {
  ICROWD_RETURN_NOT_OK(WriteScalar<uint64_t>(out, num_tasks()));
  ICROWD_RETURN_NOT_OK(WriteScalar(out, options_.alpha));
  ICROWD_RETURN_NOT_OK(
      WriteScalar<int64_t>(out, options_.max_iterations));
  ICROWD_RETURN_NOT_OK(WriteScalar(out, options_.tolerance));
  ICROWD_RETURN_NOT_OK(WriteScalar(out, options_.prune_epsilon));
  ICROWD_RETURN_NOT_OK(WriteScalar<uint64_t>(out, s_prime_.nnz()));
  ICROWD_RETURN_NOT_OK(WriteArray(out, s_prime_.row_ptr()));
  ICROWD_RETURN_NOT_OK(WriteArray(out, s_prime_.cols()));
  ICROWD_RETURN_NOT_OK(WriteArray(out, s_prime_.values()));
  // Each seed as its count, then its ids, then its values. The runs are
  // expanded back to ids, so the file does not depend on the stored form.
  std::vector<int32_t> ids;
  for (const Seed& seed : seeds_) {
    ids.clear();
    for (const SeedRun& run : seed.runs) {
      for (int32_t k = 0; k < run.length; ++k) ids.push_back(run.start + k);
    }
    ICROWD_RETURN_NOT_OK(WriteScalar<uint64_t>(out, seed.values.size()));
    ICROWD_RETURN_NOT_OK(WriteArray(out, ids));
    ICROWD_RETURN_NOT_OK(WriteArray(out, seed.values));
  }
  return Status::OK();
}

Result<PprEngine> PprEngine::Decode(FrameStreamReader* in, size_t num_tasks,
                                    const PprOptions& options) {
  ICROWD_RETURN_NOT_OK(ValidateOptions(options));
  uint64_t n = 0;
  PprOptions stored;
  int64_t max_iterations = 0;
  uint64_t nnz = 0;
  ICROWD_RETURN_NOT_OK(ReadScalar(in, &n));
  ICROWD_RETURN_NOT_OK(ReadScalar(in, &stored.alpha));
  ICROWD_RETURN_NOT_OK(ReadScalar(in, &max_iterations));
  ICROWD_RETURN_NOT_OK(ReadScalar(in, &stored.tolerance));
  ICROWD_RETURN_NOT_OK(ReadScalar(in, &stored.prune_epsilon));
  ICROWD_RETURN_NOT_OK(ReadScalar(in, &nnz));
  if (n != num_tasks || n == 0) {
    return Status::InvalidArgument("PPR index holds " + std::to_string(n) +
                                   " tasks, the campaign has " +
                                   std::to_string(num_tasks));
  }
  if (!SameBits(stored.alpha, options.alpha) ||
      max_iterations != options.max_iterations ||
      !SameBits(stored.tolerance, options.tolerance) ||
      !SameBits(stored.prune_epsilon, options.prune_epsilon)) {
    return Status::InvalidArgument("PPR index was solved under other options");
  }
  std::vector<size_t> row_ptr;
  std::vector<int32_t> cols;
  std::vector<double> matrix_values;
  ICROWD_RETURN_NOT_OK(ReadArray(in, n + 1, &row_ptr));
  ICROWD_RETURN_NOT_OK(ReadArray(in, nnz, &cols));
  ICROWD_RETURN_NOT_OK(ReadArray(in, nnz, &matrix_values));
  bool csr_ok = row_ptr.front() == 0 && row_ptr.back() == nnz;
  for (size_t i = 0; csr_ok && i < n; ++i) {
    csr_ok = row_ptr[i] <= row_ptr[i + 1];
  }
  for (size_t k = 0; csr_ok && k < nnz; ++k) {
    csr_ok = cols[k] >= 0 && static_cast<uint64_t>(cols[k]) < n &&
             std::isfinite(matrix_values[k]) && matrix_values[k] >= 0.0;
  }
  if (!csr_ok) return Status::InvalidArgument("PPR index has a malformed S'");
  PprEngine engine(
      SparseMatrix::FromCsr(n, std::move(row_ptr), std::move(cols),
                            std::move(matrix_values)),
      options);
  engine.seeds_.resize(n);
  const double restart = options.alpha / (1.0 + options.alpha);
  std::vector<int32_t> ids;
  for (size_t i = 0; i < n; ++i) {
    uint64_t count = 0;
    ICROWD_RETURN_NOT_OK(ReadScalar(in, &count));
    if (count == 0 || count > n) {
      return Status::InvalidArgument("PPR index seed " + std::to_string(i) +
                                     " has a bad entry count");
    }
    Seed& seed = engine.seeds_[i];
    ICROWD_RETURN_NOT_OK(ReadArray(in, count, &ids));
    ICROWD_RETURN_NOT_OK(ReadArray(in, count, &seed.values));
    bool self_ok = false;
    for (size_t k = 0; k < ids.size(); ++k) {
      const int32_t id = ids[k];
      const double v = seed.values[k];
      if (id < 0 || static_cast<uint64_t>(id) >= n ||
          (k > 0 && id <= ids[k - 1]) || !std::isfinite(v) || !(v > 0.0)) {
        return Status::InvalidArgument("PPR index seed " + std::to_string(i) +
                                       " has an unsorted, out-of-range or "
                                       "non-positive entry");
      }
      if (static_cast<size_t>(id) == i) self_ok = v >= restart;
    }
    if (!self_ok) {
      return Status::InvalidArgument("PPR index seed " + std::to_string(i) +
                                     " lacks its own restart mass");
    }
    seed.runs = RunsOf(ids.size(), [&ids](size_t k) { return ids[k]; });
  }
  return engine;
}

std::vector<double> PprEngine::SolveIteratively(
    const std::vector<double>& q) const {
  const double c = 1.0 / (1.0 + options_.alpha);
  const double restart = options_.alpha / (1.0 + options_.alpha);
  std::vector<double> p = q;
  std::vector<double> sp;
  for (int iter = 0; iter < options_.max_iterations; ++iter) {
    s_prime_.MultiplyInto(p, &sp);
    double diff = 0.0;
    for (size_t i = 0; i < p.size(); ++i) {
      double next = c * sp[i] + restart * q[i];
      diff += std::abs(next - p[i]);
      p[i] = next;
    }
    if (diff < options_.tolerance) break;
  }
  return p;
}

}  // namespace icrowd
