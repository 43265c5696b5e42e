// perfbench_serve: the served-path benchmark driver (README.md).
//
//   perfbench_serve record --workload W --seed N --cache FILE
//       Records every campaign's event stream with a solo, journaled
//       DriveCampaign and writes the recording cache. Not timed; runs in its
//       own process so it adds nothing to the serving process's memory.
//   perfbench_serve serve --workload W --seed N --seconds S --trace 0|1
//                         --cache FILE --work DIR [--rounds N] [--corrupt]
//       Replays the recording through one CampaignManager, in rounds that
//       each set up fresh campaigns: the first runs phase B's first part
//       (as fast as backpressure allows), phase A (open loop) and phase B's
//       rest; the others run phase B over whole streams. Then recovery from
//       the last round's journals. Prints a report, then one JSON line.
//
// Exit status is 0 only when every output matched its recording.

#include <malloc.h>
#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/random.h"
#include "core/icrowd.h"
#include "estimation/accuracy_estimator.h"
#include "graph/ppr.h"
#include "graph/similarity_graph.h"
#include "host/campaign_manager.h"
#include "journal/journal.h"
#include "obs/metrics.h"
#include "qualification/qualification_selector.h"
#include "recording.h"
#include "stats.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

using icrowd::CampaignHandle;
using icrowd::CampaignManager;
using icrowd::Status;
using SteadyClock = std::chrono::steady_clock;

/// Phase A may take at most this share of what the prefix left of any
/// campaign's stream, so phase B always has work left to measure.
constexpr double kMaxPhaseAShare = 0.5;
/// Sleep between two reads of the settle ledger; sets the ack resolution.
constexpr auto kAckPoll = std::chrono::microseconds(50);
/// Phase B submits this many events of one campaign before moving on, so
/// every shard's queue holds several campaigns at once.
constexpr size_t kPhaseBChunk = 4;
/// Phase B times every stretch of 1/kStretches of the whole recording
/// separately, reading the settle ledger every kSettlePoll.
constexpr uint64_t kStretches = 32;
constexpr auto kSettlePoll = std::chrono::milliseconds(1);
/// Events each shard's queue holds. The single producer blocks on the
/// first full queue it meets; at the default 1,024, one full fleet shard
/// made the others run dry, and phase B's throughput moved by a third from
/// round to round.
constexpr size_t kQueueCapacity = 16384;
/// Recoveries per run, each from the same journals.
constexpr int kRecoveries = 2;
/// An open loop whose generator ran later than this at p99 has turned into
/// a closed loop; the run is flagged.
constexpr double kMaxLateP99Ms = 5.0;

double Since(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return sec(usage.ru_utime) + sec(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Counter values and histogram sums/counts of the global registry, by
/// name. Per-layer work is the difference of two snapshots.
using Counters = std::map<std::string, double>;

Counters TakeCounters() {
  Counters out;
  for (const icrowd::obs::MetricSample& s :
       icrowd::obs::MetricsRegistry::Global().SnapshotAll()) {
    switch (s.kind) {
      case icrowd::obs::MetricKind::kCounter:
        out[s.name] = static_cast<double>(s.counter);
        break;
      case icrowd::obs::MetricKind::kGauge:
        out[s.name] = s.gauge();
        break;
      case icrowd::obs::MetricKind::kHistogram:
        out[s.name + ".sum"] = s.histogram.sum;
        out[s.name + ".count"] = static_cast<double>(s.histogram.count);
        break;
    }
  }
  return out;
}

double Delta(const Counters& after, const Counters& before,
             const std::string& name) {
  auto a = after.find(name);
  auto b = before.find(name);
  return (a == after.end() ? 0.0 : a->second) -
         (b == before.end() ? 0.0 : b->second);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Metric {
  double value = 0.0;
  const char* unit = "";
};

/// Everything one serve run holds.
struct Run {
  Run(Workload w, bool trace) : workload(std::move(w)), tracer(trace) {}

  Workload workload;
  std::vector<icrowd::Dataset> corpora;
  std::vector<Recording> recordings;
  Tracer tracer;
  ErrorLedger errors;
  std::vector<std::string> problems;
  std::map<std::string, Metric> metrics;

  size_t size() const { return workload.campaigns.size(); }
  const icrowd::Dataset& dataset(size_t c) const {
    return corpora[workload.campaigns[c].corpus];
  }
  void Fail(const std::string& problem) {
    problems.push_back(problem);
    std::fprintf(stderr, "perfbench: %s\n", problem.c_str());
  }
  void Set(const std::string& name, double value, const char* unit) {
    metrics[name] = {value, unit};
  }
};

icrowd::HostConfig MakeHost(const Workload& w, const std::string& journal_dir) {
  icrowd::HostConfig host;
  host.num_shards = w.num_shards;
  host.num_threads = w.num_threads;
  host.journal_dir = journal_dir;
  host.fsync_journal = false;  // keeps the disk out of the numbers
  host.queue_capacity = kQueueCapacity;
  return host;
}

std::vector<CampaignManager::CampaignOptions> MakeOptions(const Run& run) {
  std::vector<CampaignManager::CampaignOptions> options(run.size());
  for (size_t c = 0; c < run.size(); ++c) {
    options[c].name = run.workload.campaigns[c].name;
    options[c].dataset = run.dataset(c);
    options[c].config = run.workload.campaigns[c].config;
  }
  return options;
}

struct Host {
  std::unique_ptr<CampaignManager> manager;
  std::vector<CampaignHandle> handles;
  std::string journal_dir;
};

/// CampaignManager::Start plus every CreateCampaign; returns the seconds
/// taken. Input preparation (dataset copies) happens before the clock.
double SetUp(Run* run, const std::string& journal_dir, Host* host,
             std::vector<double>* create_s) {
  std::vector<CampaignManager::CampaignOptions> options = MakeOptions(*run);
  host->journal_dir = journal_dir;
  host->handles.assign(run->size(), CampaignHandle{});
  const auto t0 = SteadyClock::now();
  ScopedSpan setup(&run->tracer, "setup");
  {
    ScopedSpan span(&run->tracer, "host.start", setup.id());
    auto started = CampaignManager::Start(MakeHost(run->workload, journal_dir));
    if (!started.ok()) {
      run->Fail("host start: " + started.status().ToString());
      run->errors.Add(run->size(), run->size());
      return Since(t0);
    }
    host->manager = started.MoveValueOrDie();
  }
  for (size_t c = 0; c < run->size(); ++c) {
    const auto tc = SteadyClock::now();
    ScopedSpan span(&run->tracer, "host.create", setup.id(),
                    static_cast<int64_t>(c));
    auto handle = host->manager->CreateCampaign(std::move(options[c]));
    create_s->push_back(Since(tc));
    run->errors.Add(1, handle.ok() ? 0 : 1);
    if (!handle.ok()) {
      run->Fail("create " + run->workload.campaigns[c].name + ": " +
                handle.status().ToString());
      continue;
    }
    host->handles[c] = *handle;
  }
  return Since(t0);
}

std::string JournalFile(const std::string& journal_dir, size_t shard,
                        const std::string& name) {
  return journal_dir + "/shard-" + std::to_string(shard) + "/" + name +
         ".journal";
}

/// Maps the rows of CampaignManager::Stats() (sorted by name) to campaign
/// indices.
std::vector<size_t> StatsOrder(const Run& run) {
  std::vector<size_t> order(run.size());
  for (size_t c = 0; c < order.size(); ++c) order[c] = c;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return run.workload.campaigns[a].name < run.workload.campaigns[b].name;
  });
  return order;
}

/// The correctness oracle: every campaign's results and journal bytes must
/// equal its solo recording. Returns the number of campaigns that differ.
size_t Verify(Run* run, const Host& host, const char* when,
              std::vector<double>* accuracy) {
  size_t mismatches = 0;
  const std::vector<CampaignManager::CampaignStats> stats =
      host.manager->Stats();
  const std::vector<size_t> order = StatsOrder(*run);
  std::vector<size_t> shard(run->size(), 0);
  for (size_t i = 0; i < stats.size() && i < order.size(); ++i) {
    shard[order[i]] = stats[i].shard;
  }
  for (size_t c = 0; c < run->size(); ++c) {
    const std::string& name = run->workload.campaigns[c].name;
    const Recording& rec = run->recordings[c];
    auto inspected = host.manager->Inspect(host.handles[c]);
    std::string problem;
    if (!inspected.ok()) {
      problem = inspected.status().ToString();
    } else if ((*inspected)->Results() != rec.results) {
      problem = "results differ from the solo recording";
    } else {
      auto bytes = icrowd::ReadFileBytes(
          JournalFile(host.journal_dir, shard[c], name));
      if (!bytes.ok()) {
        problem = bytes.status().ToString();
      } else if (*bytes != rec.journal) {
        problem = "journal bytes differ from the solo recording";
      }
    }
    if (!problem.empty()) {
      ++mismatches;
      run->Fail(std::string(when) + ": " + name + ": " + problem);
      continue;
    }
    if (accuracy == nullptr) continue;
    const icrowd::ICrowd* system = *inspected;
    std::unordered_set<icrowd::TaskId> qualification(
        system->qualification_tasks().begin(),
        system->qualification_tasks().end());
    const icrowd::Dataset& dataset = run->dataset(c);
    size_t scored = 0;
    size_t right = 0;
    for (size_t t = 0; t < dataset.size(); ++t) {
      if (qualification.count(static_cast<icrowd::TaskId>(t)) != 0) continue;
      ++scored;
      if (dataset.tasks()[t].ground_truth == rec.results[t]) ++right;
    }
    accuracy->push_back(Ratio(static_cast<double>(right),
                              static_cast<double>(scored)));
  }
  run->errors.Add(run->size(), mismatches);
  return mismatches;
}

struct Arrival {
  double t = 0.0;
  uint32_t campaign = 0;
};

/// Poisson arrivals at the workload's rate over `seconds`. Each arrival
/// carries the next event of a campaign drawn in proportion to what is
/// left of its stream, so campaigns advance at the same pace.
std::vector<Arrival> Schedule(const Run& run, const std::vector<uint64_t>& next,
                              double seconds) {
  std::vector<double> cumulative;
  std::vector<uint64_t> quota;
  double total = 0.0;
  for (size_t c = 0; c < run.size(); ++c) {
    const double left =
        static_cast<double>(run.recordings[c].stream.size() - next[c]);
    total += left;
    cumulative.push_back(total);
    quota.push_back(static_cast<uint64_t>(kMaxPhaseAShare * left));
  }
  icrowd::Rng rng(run.workload.seed * 0x9e3779b97f4a7c15ull + 77);
  std::vector<Arrival> arrivals;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.Uniform()) / run.workload.phase_a_rate;
    if (t >= seconds) break;
    const double u = rng.Uniform() * total;
    size_t c = static_cast<size_t>(
        std::upper_bound(cumulative.begin(), cumulative.end(), u) -
        cumulative.begin());
    c = std::min(c, quota.size() - 1);
    size_t tried = 0;
    while (quota[c] == 0 && tried < quota.size()) {
      c = (c + 1) % quota.size();
      ++tried;
    }
    if (quota[c] == 0) break;  // every campaign hit its phase-A share
    --quota[c];
    arrivals.push_back({t, static_cast<uint32_t>(c)});
  }
  return arrivals;
}

/// Phase A: one generator thread submits on the Poisson schedule; this
/// thread observes acks through the settle ledger. Advances `next` past
/// the events sent.
void PhaseA(Run* run, Host* host, double seconds, std::vector<uint64_t>* next) {
  const std::vector<Arrival> arrivals = Schedule(*run, *next, seconds);
  const size_t n = run->size();
  std::vector<uint64_t> sent(n, 0);
  std::vector<std::vector<double>> scheduled(n);
  std::vector<std::vector<size_t>> arrival_of(n);
  std::vector<double> late_ms(arrivals.size(), 0.0);
  uint64_t refused = 0;
  std::atomic<bool> generator_done{false};
  const auto t0 = SteadyClock::now() + std::chrono::milliseconds(20);
  ScopedSpan phase(&run->tracer, "phase_a");
  const uint32_t phase_id = phase.id();

  std::thread generator([&] {
    for (size_t i = 0; i < arrivals.size(); ++i) {
      const Arrival& a = arrivals[i];
      const auto due = t0 + std::chrono::duration_cast<SteadyClock::duration>(
                                std::chrono::duration<double>(a.t));
      std::this_thread::sleep_until(due);
      late_ms[i] =
          std::chrono::duration<double, std::milli>(SteadyClock::now() - due)
              .count();
      const uint64_t k = (*next)[a.campaign] + sent[a.campaign];
      Status submitted;
      {
        ScopedSpan span(&run->tracer, "host.submit", phase_id, a.campaign);
        submitted = host->manager->SubmitEvent(
            host->handles[a.campaign], run->recordings[a.campaign].stream[k]);
      }
      if (!submitted.ok()) {
        ++refused;
        continue;
      }
      scheduled[a.campaign].push_back(a.t);
      arrival_of[a.campaign].push_back(i);
      ++sent[a.campaign];
    }
    generator_done.store(true, std::memory_order_release);
  });

  // Ack observer: poll the public settle ledger until everything sent has
  // settled (or a generous deadline passes after the generator finishes).
  const std::vector<size_t> order = StatsOrder(*run);
  std::vector<SettleObservation> timeline;
  std::vector<double> poll_s;
  std::vector<uint64_t> seen(n, 0);  // settled since phase A started
  std::optional<SteadyClock::time_point> deadline;
  for (;;) {
    const std::vector<CampaignManager::CampaignStats> stats =
        host->manager->Stats();
    const double t = std::chrono::duration<double>(SteadyClock::now() - t0)
                         .count();
    poll_s.push_back(t);
    for (size_t i = 0; i < stats.size() && i < order.size(); ++i) {
      const size_t c = order[i];
      const uint64_t settled =
          stats[i].settled - std::min(stats[i].settled, (*next)[c]);
      if (settled > seen[c]) {
        seen[c] = settled;
        timeline.push_back({t, static_cast<uint32_t>(c), settled});
      }
    }
    if (generator_done.load(std::memory_order_acquire)) {
      bool all = true;
      for (size_t c = 0; c < n; ++c) all = all && seen[c] >= sent[c];
      if (all) break;
      if (!deadline) deadline = SteadyClock::now() + std::chrono::seconds(60);
      if (SteadyClock::now() > *deadline) break;
    }
    std::this_thread::sleep_for(kAckPoll);
  }
  generator.join();

  const std::vector<std::vector<double>> acks = AckTimes(sent, timeline);
  std::vector<double> by_arrival(arrivals.size(), -1.0);
  for (size_t c = 0; c < n; ++c) {
    for (size_t k = 0; k < acks[c].size(); ++k) {
      if (acks[c][k] >= 0.0) {
        by_arrival[arrival_of[c][k]] = 1e3 * (acks[c][k] - scheduled[c][k]);
      }
    }
  }
  std::vector<double> latency_ms;
  for (double l : by_arrival) {
    if (l >= 0.0) latency_ms.push_back(l);
  }
  const uint64_t unacked =
      arrivals.size() - refused - static_cast<uint64_t>(latency_ms.size());
  run->errors.Add(arrivals.size(), refused + unacked);
  if (refused + unacked > 0) {
    run->Fail("phase A: " + std::to_string(refused) + " events refused, " +
              std::to_string(unacked) + " never acked");
  }
  if (!PercentileSupported(latency_ms.size(), 99.0)) {
    run->Fail("phase A: " + std::to_string(latency_ms.size()) +
              " ack samples leave fewer than 10 beyond p99");
  }
  std::vector<double> poll_gap_us;
  for (size_t i = 1; i < poll_s.size(); ++i) {
    poll_gap_us.push_back(1e6 * (poll_s[i] - poll_s[i - 1]));
  }
  const double late_p99 = Percentile(late_ms, 99.0);
  run->Set("ack_p50_ms", Percentile(latency_ms, 50.0), "ms");
  run->Set("ack_p99_ms", Percentile(latency_ms, 99.0), "ms");
  run->Set("ack_samples", static_cast<double>(latency_ms.size()), "count");
  std::printf("phase A ack latency (ms) over %zu samples:", latency_ms.size());
  for (double q : {50.0, 90.0, 95.0, 98.0, 99.0, 99.5}) {
    std::printf(" p%g=%.3f", q, Percentile(latency_ms, q));
  }
  std::printf("\n");
  run->Set("gen.late_p99_ms", late_p99, "ms");
  run->Set("gen.ack_resolution_us", Median(poll_gap_us), "us");
  run->Set("phase_a.events", static_cast<double>(arrivals.size()), "count");
  if (late_p99 > kMaxLateP99Ms) {
    std::printf("WARNING open loop fell behind: generator p99 lateness "
                "%.3f ms > %.1f ms; the phase-A latencies are closed-loop\n",
                late_p99, kMaxLateP99Ms);
  }
  run->Set("gen.behind", late_p99 > kMaxLateP99Ms ? 1.0 : 0.0, "flag");
  for (size_t c = 0; c < n; ++c) (*next)[c] += sent[c];
}

/// Closed-loop replay events and CPU, summed over the parts of phase B in
/// a round.
struct ClosedLoop {
  uint64_t events = 0;
  double cpu_s = 0.0;
  /// Seconds to settle each successive `stretch` events, in submission
  /// order; a part's last stretch may be shorter and ends at its drain.
  std::vector<double> stretch_s;
};

uint64_t TotalSettled(const Host& host) {
  uint64_t settled = 0;
  for (const auto& s : host.manager->Stats()) settled += s.settled;
  return settled;
}

/// Phase B: submits every campaign's events from `next` up to `until`, as
/// fast as backpressure allows, round-robin over campaigns kPhaseBChunk at
/// a time, then drains. An observer thread reads the settle ledger, so each
/// stretch of `stretch` events is timed where the host applies it, not
/// where the producer queues it. Advances `next` and adds to `loop`.
void PhaseB(Run* run, Host* host, const std::vector<uint64_t>& until,
            uint64_t stretch, std::vector<uint64_t>* next, ClosedLoop* loop) {
  ScopedSpan phase(&run->tracer, "phase_b");
  uint64_t submitted = 0;
  uint64_t refused = 0;
  const uint64_t settled0 = TotalSettled(*host);
  std::vector<double> reached;  // when settled first covered each stretch
  std::atomic<bool> stop{false};
  const auto t0 = SteadyClock::now();
  const double cpu0 = CpuSeconds();
  std::thread observer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const uint64_t settled = TotalSettled(*host) - settled0;
      const double t = Since(t0);
      while ((reached.size() + 1) * stretch <= settled) reached.push_back(t);
      std::this_thread::sleep_for(kSettlePoll);
    }
  });
  for (bool progressed = true; progressed;) {
    progressed = false;
    for (size_t c = 0; c < run->size(); ++c) {
      const std::vector<icrowd::IngestEvent>& stream = run->recordings[c].stream;
      uint64_t& k = (*next)[c];
      const uint64_t end = std::min<uint64_t>(k + kPhaseBChunk, until[c]);
      for (; k < end; ++k) {
        ScopedSpan span(&run->tracer, "host.submit", phase.id(),
                        static_cast<int64_t>(c));
        if (host->manager->SubmitEvent(host->handles[c], stream[k]).ok()) {
          ++submitted;
        } else {
          ++refused;
        }
        progressed = true;
      }
    }
  }
  Status drained;
  {
    ScopedSpan span(&run->tracer, "host.drain", phase.id());
    drained = host->manager->DrainAll();
  }
  const double wall = Since(t0);
  const double cpu = CpuSeconds() - cpu0;
  stop.store(true, std::memory_order_release);
  observer.join();
  // Drained: whatever the observer has not seen settled at the drain.
  while (reached.size() * stretch < submitted) reached.push_back(wall);
  for (size_t j = 0; j < reached.size(); ++j) {
    loop->stretch_s.push_back(reached[j] - (j == 0 ? 0.0 : reached[j - 1]));
  }
  std::printf("phase B part: %" PRIu64 " events in %.3f s (%.0f events/s)\n",
              submitted, wall, Ratio(static_cast<double>(submitted), wall));
  loop->cpu_s += cpu;
  loop->events += submitted;
  run->errors.Add(submitted + refused, refused);
  if (refused > 0 || !drained.ok()) {
    run->Fail("phase B: " + std::to_string(refused) + " events refused; " +
              drained.ToString());
  }
}

/// Flips one byte in the middle of the first campaign's journal: the
/// oracle must catch the events recovery then loses.
void CorruptJournal(Run* run, const Host& host) {
  const std::vector<CampaignManager::CampaignStats> stats =
      host.manager->Stats();
  const std::string& name = run->workload.campaigns[0].name;
  for (const auto& s : stats) {
    if (s.name != name) continue;
    const std::string path = JournalFile(host.journal_dir, s.shard, name);
    auto bytes = icrowd::ReadFileBytes(path);
    if (!bytes.ok() || bytes->empty()) return;
    (*bytes)[bytes->size() / 2] ^= 0x5a;
    (void)icrowd::WriteFileBytes(path, *bytes);
    std::printf("corrupted one byte of %s\n", path.c_str());
  }
}

/// Shutdown, a new manager, OpenCampaign for every campaign from its
/// journal, until every campaign verifies. Returns the seconds taken.
double Recover(Run* run, Host* host, std::vector<double>* open_s) {
  std::vector<CampaignManager::CampaignOptions> options = MakeOptions(*run);
  const auto t0 = SteadyClock::now();
  ScopedSpan recover(&run->tracer, "recover");
  {
    ScopedSpan span(&run->tracer, "host.shutdown", recover.id());
    host->manager->Shutdown();
    host->manager.reset();
  }
  {
    ScopedSpan span(&run->tracer, "host.start", recover.id());
    auto started =
        CampaignManager::Start(MakeHost(run->workload, host->journal_dir));
    if (!started.ok()) {
      run->Fail("host restart: " + started.status().ToString());
      run->errors.Add(run->size(), run->size());
      return Since(t0);
    }
    host->manager = started.MoveValueOrDie();
  }
  for (size_t c = 0; c < run->size(); ++c) {
    const auto tc = SteadyClock::now();
    ScopedSpan span(&run->tracer, "host.open", recover.id(),
                    static_cast<int64_t>(c));
    auto handle = host->manager->OpenCampaign(std::move(options[c]));
    open_s->push_back(Since(tc));
    run->errors.Add(1, handle.ok() ? 0 : 1);
    if (!handle.ok()) {
      run->Fail("open " + run->workload.campaigns[c].name + ": " +
                handle.status().ToString());
      continue;
    }
    host->handles[c] = *handle;
  }
  {
    ScopedSpan span(&run->tracer, "verify", recover.id());
    Verify(run, *host, "after recovery", nullptr);
  }
  return Since(t0);
}

/// The first campaign on each corpus: the layer probes and the solo replay
/// run once per corpus, not once per campaign.
std::vector<size_t> OnePerCorpus(const Run& run) {
  std::vector<size_t> picks;
  std::vector<bool> seen(run.workload.corpora.size(), false);
  for (size_t c = 0; c < run.size(); ++c) {
    size_t corpus = run.workload.campaigns[c].corpus;
    if (!seen[corpus]) {
      seen[corpus] = true;
      picks.push_back(c);
    }
  }
  return picks;
}

/// Calls the set-up layers one by one through their public functions —
/// the calls ICrowd::Create makes — so each gets its own span. Time
/// metrics are per campaign, weighting each corpus by its campaigns.
void ProbeLayers(Run* run) {
  std::vector<double> weight(run->workload.corpora.size(), 0.0);
  for (const CampaignSpec& c : run->workload.campaigns) weight[c.corpus] += 1.0;
  double graph_s = 0, ppr_s = 0, qual_s = 0, estimation_s = 0, edges = 0;
  for (size_t c : OnePerCorpus(*run)) {
    const icrowd::ICrowdConfig& config = run->workload.campaigns[c].config;
    const double w = weight[run->workload.campaigns[c].corpus] /
                     static_cast<double>(run->size());
    ScopedSpan probe(&run->tracer, "layers.probe", 0, static_cast<int64_t>(c));
    auto t = SteadyClock::now();
    auto graph = [&] {
      ScopedSpan span(&run->tracer, "graph.build", probe.id(), c);
      return icrowd::SimilarityGraph::Build(run->dataset(c), config.graph);
    }();
    graph_s += w * Since(t);
    if (!graph.ok()) {
      run->Fail("probe graph: " + graph.status().ToString());
      return;
    }
    edges += w * static_cast<double>(graph->num_edges());
    t = SteadyClock::now();
    auto engine = [&] {
      ScopedSpan span(&run->tracer, "ppr.precompute", probe.id(), c);
      return icrowd::PprEngine::Precompute(*graph, config.estimator.ppr);
    }();
    ppr_s += w * Since(t);
    if (!engine.ok()) {
      run->Fail("probe ppr: " + engine.status().ToString());
      return;
    }
    t = SteadyClock::now();
    {
      ScopedSpan span(&run->tracer, "qual.select", probe.id(), c);
      auto selected = icrowd::SelectQualificationGreedy(
          *engine, std::min(config.num_qualification, run->dataset(c).size()),
          config.influence_epsilon);
      if (!selected.ok()) run->Fail("probe qual: " + selected.status().ToString());
    }
    qual_s += w * Since(t);
    t = SteadyClock::now();
    {
      ScopedSpan span(&run->tracer, "estimation.create", probe.id(), c);
      auto estimator = icrowd::AccuracyEstimator::Create(*graph, config.estimator);
      if (!estimator.ok()) {
        run->Fail("probe estimator: " + estimator.status().ToString());
      }
    }
    estimation_s += w * Since(t);
  }
  run->Set("graph.build_s", graph_s, "s");
  run->Set("graph.edges", edges, "count");
  run->Set("ppr.precompute_s", ppr_s, "s");
  run->Set("qual.select_s", qual_s, "s");
  run->Set("estimation.create_s", estimation_s, "s");
  const double create = run->metrics["host.create_s_mean"].value;
  run->Set("host.create_unattributed_frac",
           Ratio(create - (graph_s + ppr_s + qual_s + estimation_s), create),
           "fraction");
}

/// Traced solo replay: each corpus's first campaign, rebuilt unhosted, and
/// its recorded stream fed call by call through the facade, timing every
/// RequestTask and SubmitAnswer. The replay must also match the recording.
void SoloReplay(Run* run) {
  std::vector<double> request_us;
  std::vector<double> answer_us;
  for (size_t c : OnePerCorpus(*run)) {
    const Recording& rec = run->recordings[c];
    auto sink = std::make_shared<icrowd::VectorSink>();
    icrowd::ICrowdConfig config = run->workload.campaigns[c].config;
    config.journal_sink = sink;
    icrowd::HostConfig host;
    host.num_threads = run->workload.num_threads;
    auto created = icrowd::ICrowd::Create(run->dataset(c), config, host);
    run->errors.Add(1, created.ok() ? 0 : 1);
    if (!created.ok()) {
      run->Fail("solo create: " + created.status().ToString());
      continue;
    }
    icrowd::ICrowd* system = created->get();
    ScopedSpan replay(&run->tracer, "core.replay", 0, static_cast<int64_t>(c));
    uint64_t failures = 0;
    for (const icrowd::IngestEvent& e : rec.stream) {
      const auto t = SteadyClock::now();
      switch (e.kind) {
        case icrowd::IngestEventKind::kWorkerArrived:
          failures += system->OnWorkerArrived().ok() ? 0 : 1;
          break;
        case icrowd::IngestEventKind::kWorkerRequested: {
          ScopedSpan span(&run->tracer, "core.request", replay.id(), c);
          failures += system->RequestTask(e.worker).ok() ? 0 : 1;
          request_us.push_back(1e6 * Since(t));
          break;
        }
        case icrowd::IngestEventKind::kAnswerSubmitted: {
          ScopedSpan span(&run->tracer, "core.answer", replay.id(), c);
          failures += system->SubmitAnswer(e.worker, e.task, e.answer).ok() ? 0 : 1;
          answer_us.push_back(1e6 * Since(t));
          break;
        }
        case icrowd::IngestEventKind::kWorkerLeft:
          failures += system->OnWorkerLeft(e.worker).ok() ? 0 : 1;
          break;
      }
    }
    const bool same =
        system->Results() == rec.results && sink->bytes() == rec.journal;
    run->errors.Add(rec.stream.size() + 1, failures + (same ? 0 : 1));
    if (failures > 0 || !same) {
      run->Fail("solo replay of " + run->workload.campaigns[c].name +
                " diverged from its recording");
    }
  }
  run->Set("core.request_us_p50", Percentile(request_us, 50.0), "us");
  run->Set("core.request_us_p99", Percentile(request_us, 99.0), "us");
  run->Set("core.answer_us_p50", Percentile(answer_us, 50.0), "us");
  run->Set("core.answer_us_p99", Percentile(answer_us, 99.0), "us");
}

/// ReadJournal over every campaign's journal file.
void ReadJournals(Run* run, const Host& host) {
  const auto t0 = SteadyClock::now();
  ScopedSpan read(&run->tracer, "journal.read");
  for (const auto& s : host.manager->Stats()) {
    auto bytes = icrowd::ReadFileBytes(JournalFile(host.journal_dir, s.shard, s.name));
    if (!bytes.ok() || !icrowd::ReadJournal(*bytes).ok()) {
      run->Fail("journal read of " + s.name + " failed");
    }
  }
  run->Set("journal.read_s", Since(t0), "s");
}

/// Derived per-layer metrics from registry deltas over phases A and B.
void LayerCounters(Run* run, const Counters& after, const Counters& before) {
  auto d = [&](const char* name) { return Delta(after, before, name); };
  run->Set("estimation.refresh_s", d("icrowd.assign.refresh_seconds"), "s");
  run->Set("estimation.refreshes", d("icrowd.estimation.refreshes"), "count");
  run->Set("estimation.observed_entries", d("icrowd.estimation.observed_entries"),
           "count");
  run->Set("assign.recompute_s", d("icrowd.assign.recompute_seconds"), "s");
  run->Set("assign.scheme_recomputations", d("icrowd.assign.scheme_recomputations"),
           "count");
  run->Set("assign.top_sets_computed", d("icrowd.assign.top_sets_computed"),
           "count");
  run->Set("assign.plan_hit_ratio",
           Ratio(d("icrowd.assign.plan_hits"), d("icrowd.core.requests")),
           "fraction");
  run->Set("assign.plan_stale", d("icrowd.assign.plan_stale"), "count");
  run->Set("assign.conflict_ratio",
           Ratio(d("icrowd.assign.conflict_rejections"),
                 d("icrowd.assign.heap_pops")),
           "fraction");
  run->Set("assign.test_assignments", d("icrowd.assign.test_assignments"), "count");
  run->Set("host.events_per_slice",
           Ratio(d("icrowd.host.events_routed"), d("icrowd.host.batches")),
           "events");
  run->Set("ingest.backpressure_waits", d("icrowd.ingest.backpressure_waits"),
           "count");
  run->Set("journal.events_per_flush",
           Ratio(d("icrowd.journal.appends"), d("icrowd.journal.flushes")),
           "events");
  run->Set("journal.bytes_per_event",
           Ratio(d("icrowd.journal.append_bytes"), d("icrowd.journal.appends")),
           "bytes");
  run->Set("pool.tasks_submitted", d("icrowd.pool.tasks_submitted"), "count");
}

struct Args {
  std::map<std::string, std::string> values;
  bool Has(const std::string& key) const { return values.count(key) != 0; }
  std::string Get(const std::string& key) const {
    auto it = values.find(key);
    return it == values.end() ? "" : it->second;
  }
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return false;
    key = key.substr(2);
    if (key == "corrupt") {
      args->values[key] = "1";
    } else if (i + 1 < argc) {
      args->values[key] = argv[++i];
    } else {
      return false;
    }
  }
  return true;
}

bool ParseUint(const std::string& text, uint64_t* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || *end != '\0') return false;
  *out = v;
  return true;
}

int Record(const Workload& workload, const std::string& cache) {
  auto corpora = GenerateCorpora(workload);
  if (!corpora.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", corpora.status().ToString().c_str());
    return 1;
  }
  const size_t threads = std::max(1u, std::thread::hardware_concurrency());
  auto recordings = RecordWorkload(workload, *corpora, threads);
  if (!recordings.ok()) {
    std::fprintf(stderr, "perfbench: %s\n",
                 recordings.status().ToString().c_str());
    return 1;
  }
  Status saved = SaveRecordings(cache, workload, *recordings);
  if (!saved.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", saved.ToString().c_str());
    return 1;
  }
  return 0;
}

int Serve(Workload workload, const Args& args) {
  uint64_t seconds = 0;
  if (!ParseUint(args.Get("seconds"), &seconds) || seconds == 0 ||
      !args.Has("cache") || !args.Has("work")) {
    std::fprintf(stderr, "perfbench: serve needs --seconds N --cache FILE "
                         "--work DIR\n");
    return 2;
  }
  const bool traced = args.Get("trace") == "1";
  Run run(std::move(workload), traced);
  auto corpora = GenerateCorpora(run.workload);
  auto recordings = LoadRecordings(args.Get("cache"), run.workload);
  if (!corpora.ok() || !recordings.ok()) {
    std::fprintf(stderr, "perfbench: cannot load inputs: %s %s\n",
                 corpora.status().ToString().c_str(),
                 recordings.status().ToString().c_str());
    return 1;
  }
  run.corpora = corpora.MoveValueOrDie();
  run.recordings = recordings.MoveValueOrDie();
  const std::string work = args.Get("work");
  std::filesystem::remove_all(work);
  std::filesystem::create_directories(work);

  uint64_t rounds = run.workload.rounds;
  if (args.Has("rounds") && (!ParseUint(args.Get("rounds"), &rounds) || rounds == 0)) {
    std::fprintf(stderr, "perfbench: --rounds must be a positive integer\n");
    return 2;
  }

  // Each round sets up fresh campaigns and replays every stream on them.
  // The first round serves phase A between phase B's two parts; the others
  // replay each stream closed-loop from start to end. A slowdown of the
  // shared machine only ever lengthens a time, and counts and accuracy are
  // the same in every round, so each per-round figure is its minimum over
  // rounds, and events_per_s takes the fastest closed-loop round of each
  // stretch of the streams. Recovery runs on the last round's campaigns.
  uint64_t total_events = 0;
  for (const Recording& rec : run.recordings) total_events += rec.stream.size();
  const uint64_t stretch =
      std::max<uint64_t>(1, (total_events + kStretches - 1) / kStretches);
  std::map<std::string, std::vector<double>> per_round;
  auto keep = [&](const std::string& name, double value, const char* unit) {
    run.Set(name, value, unit);
    per_round[name].push_back(value);
  };
  std::vector<std::vector<double>> stretch_s;
  uint64_t closed_events = 0;
  Host host;
  for (uint64_t r = 0; r < rounds && run.problems.empty(); ++r) {
    if (host.manager != nullptr) {
      host.manager.reset();
      std::filesystem::remove_all(host.journal_dir);
    }
    // Hands memory freed by earlier rounds back to the system, so that
    // peak_rss_mb is the peak of live memory, not of what the allocator's
    // per-thread arenas happened to keep.
    malloc_trim(0);
    std::vector<double> create_s;
    const Counters before_setup = TakeCounters();
    keep("setup_s",
         SetUp(&run, work + "/round-" + std::to_string(r), &host, &create_s),
         "s");
    const Counters after_setup = TakeCounters();
    const double campaigns = static_cast<double>(run.size());
    double create_total = 0.0;
    for (double c : create_s) create_total += c;
    keep("host.create_s_p50", Percentile(create_s, 50.0), "s");
    keep("host.create_s_mean", create_total / campaigns, "s");
    keep("ppr.seeds_solved_per_campaign",
         Delta(after_setup, before_setup, "icrowd.ppr.seeds_solved") / campaigns,
         "count");
    keep("ppr.solve_iterations",
         Delta(after_setup, before_setup, "icrowd.ppr.solve_iterations") /
             campaigns,
         "count");
    if (host.manager == nullptr || !run.problems.empty()) break;

    std::vector<uint64_t> next(run.size(), 0);
    std::vector<uint64_t> end(run.size(), 0);
    for (size_t c = 0; c < run.size(); ++c) {
      end[c] = run.recordings[c].stream.size();
    }
    ClosedLoop loop;
    if (r == 0) {
      // Phase B runs in two parts around phase A: first the prefix of
      // every stream that the workload does not study in the open loop
      // (its warm-up rounds), then, after phase A, the rest.
      std::vector<uint64_t> prefix(run.size(), 0);
      for (size_t c = 0; c < run.size(); ++c) {
        prefix[c] = static_cast<uint64_t>(run.workload.prefix_share *
                                          static_cast<double>(end[c]));
      }
      const Counters before = TakeCounters();
      PhaseB(&run, &host, prefix, stretch, &next, &loop);
      PhaseA(&run, &host, static_cast<double>(seconds), &next);
      PhaseB(&run, &host, end, stretch, &next, &loop);
      LayerCounters(&run, TakeCounters(), before);
      if (traced) {
        std::vector<double> submit_us;
        for (double d : run.tracer.Durations("host.submit")) {
          submit_us.push_back(1e6 * d);
        }
        run.Set("host.submit_us_p99", Percentile(submit_us, 99.0), "us");
      }
    } else {
      PhaseB(&run, &host, end, stretch, &next, &loop);
    }
    // The closed-loop figures come from the rounds without phase A, or
    // from the only round.
    if (r > 0 || rounds == 1) {
      keep("cpu_us_per_event",
           Ratio(1e6 * loop.cpu_s, static_cast<double>(loop.events)), "us");
      stretch_s.push_back(loop.stretch_s);
      closed_events = loop.events;
    }

    std::vector<double> accuracy;
    Verify(&run, host, "after phase B", &accuracy);
    double sum = 0.0;
    for (double a : accuracy) sum += a;
    keep("accuracy", Ratio(sum, static_cast<double>(accuracy.size())),
         "fraction");
  }
  for (const auto& [name, values] : per_round) {
    run.metrics[name].value = *std::min_element(values.begin(), values.end());
  }
  run.Set("events_per_s",
          Ratio(static_cast<double>(closed_events), FastestStretches(stretch_s)),
          "events/s");
  run.Set("phase_b.events", static_cast<double>(closed_events), "count");
  run.Set("rounds", static_cast<double>(per_round["setup_s"].size()), "count");

  if (host.manager != nullptr && run.problems.empty()) {
    if (args.Has("corrupt")) CorruptJournal(&run, host);
    // Recovery leaves the journals as they were, so it runs again from
    // them; a slowdown only ever lengthens one, so the faster one counts.
    std::vector<double> recover_s;
    std::vector<double> open_s;
    for (int i = 0; i < kRecoveries && run.problems.empty(); ++i) {
      open_s.clear();
      malloc_trim(0);
      recover_s.push_back(Recover(&run, &host, &open_s));
    }
    run.Set("recover_s", *std::min_element(recover_s.begin(), recover_s.end()),
            "s");
    run.Set("host.open_s_p50", Percentile(open_s, 50.0), "s");
  }
  run.Set("peak_rss_mb", PeakRssMb(), "MB");

  if (traced && host.manager != nullptr) {
    ReadJournals(&run, host);
    ProbeLayers(&run);
    SoloReplay(&run);
    const std::string trace_path = work + "/../trace-" + run.workload.name +
                                   "-" + std::to_string(run.workload.seed) +
                                   ".jsonl";
    Status written = run.tracer.WriteJsonl(trace_path);
    if (!written.ok()) run.Fail(written.ToString());
    std::printf("trace spans written to %s\n", trace_path.c_str());
    std::printf("%-24s %10s %10s %8s\n", "span", "total_s", "self_s", "count");
    for (const auto& [name, t] : run.tracer.Summarize()) {
      std::printf("%-24s %10.4f %10.4f %8" PRIu64 "\n", name.c_str(), t.total_s,
                  t.self_s, t.count);
    }
  }
  host.manager.reset();
  std::filesystem::remove_all(work);

  run.Set("error_rate", run.errors.rate(), "fraction");
  const bool correct = run.problems.empty() && run.errors.failed == 0;
  std::printf("%-34s %16s  %s\n", "metric", "value", "unit");
  for (const auto& [name, m] : run.metrics) {
    std::printf("%-34s %16.6f  %s\n", name.c_str(), m.value, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              correct ? "true" : "false", run.errors.attempted,
              run.errors.failed);
  bool first = true;
  for (const auto& [name, m] : run.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), m.value, m.unit);
    first = false;
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;  // NOLINT: entry point brevity
  // The default 50 us timer slack would stretch every generator sleep and
  // ack poll; threads started later inherit the tighter slack.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  Args args;
  const std::string command = argc > 1 ? argv[1] : "";
  uint64_t seed = 0;
  if ((command != "record" && command != "serve") ||
      !ParseArgs(argc, argv, &args) || !ParseUint(args.Get("seed"), &seed)) {
    std::fprintf(stderr,
                 "usage: perfbench_serve record|serve --workload NAME --seed N "
                 "[--cache FILE] [--seconds S --trace 0|1 --work DIR "
                 "--rounds N --corrupt]\n");
    return 2;
  }
  auto workload = MakeWorkload(args.Get("workload"), seed);
  if (!workload.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", workload.status().ToString().c_str());
    return 2;
  }
  if (command == "record") {
    if (!args.Has("cache")) return 2;
    return Record(*workload, args.Get("cache"));
  }
  return Serve(workload.MoveValueOrDie(), args);
}
