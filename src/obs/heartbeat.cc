#include "obs/heartbeat.h"

#include <algorithm>

#include "common/stopwatch.h"
#include "obs/metrics.h"

namespace icrowd {
namespace obs {

namespace {

/// Monotonic seconds for the no-injected-clock case. Steady clock, never
/// wall clock: a wall step would fake or mask a stall (clock-source rule).
double SteadySeconds() { return static_cast<double>(SteadyNanos()) * 1e-9; }

}  // namespace

void Heartbeat::Beat() {
  beats_.fetch_add(1, std::memory_order_relaxed);
  last_fp_.store(registry_->NowFixedPoint(), std::memory_order_relaxed);
}

double Heartbeat::last_beat_seconds() const {
  return FromFixedPoint(last_fp_.load(std::memory_order_relaxed));
}

HeartbeatRegistry& HeartbeatRegistry::Global() {
  // Leaked on purpose, like the metrics registry: worker threads may stamp
  // heartbeats during process teardown.
  static auto* registry = new HeartbeatRegistry();
  return *registry;
}

HeartbeatRegistry::HeartbeatRegistry() = default;
HeartbeatRegistry::~HeartbeatRegistry() = default;

double HeartbeatRegistry::Now() const {
  Clock* clock = clock_.load(std::memory_order_relaxed);
  if (clock != nullptr) return clock->Now();
  return SteadySeconds();
}

int64_t HeartbeatRegistry::NowFixedPoint() const {
  return ToFixedPoint(Now());
}

Heartbeat* HeartbeatRegistry::Register(const std::string& name) {
  MutexLock lock(mutex_);
  // Disambiguate duplicates: "pool.worker", "pool.worker#2", ...
  std::string unique = name;
  int copy = 1;
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].live && entries_[i].name == unique) {
      unique = name + "#" + std::to_string(++copy);
      i = static_cast<size_t>(-1);  // restart scan with the new candidate
    }
  }
  for (Entry& entry : entries_) {
    if (!entry.live) {
      entry.name = unique;
      entry.live = true;
      Heartbeat* heartbeat = entry.heartbeat.get();
      heartbeat->busy_.store(false, std::memory_order_relaxed);
      heartbeat->last_fp_.store(NowFixedPoint(), std::memory_order_relaxed);
      return heartbeat;
    }
  }
  Entry entry;
  entry.name = std::move(unique);
  entry.heartbeat.reset(new Heartbeat(this));
  entry.heartbeat->last_fp_.store(NowFixedPoint(),
                                  std::memory_order_relaxed);
  entry.live = true;
  entries_.push_back(std::move(entry));
  return entries_.back().heartbeat.get();
}

void HeartbeatRegistry::Unregister(Heartbeat* heartbeat) {
  if (heartbeat == nullptr) return;
  MutexLock lock(mutex_);
  for (Entry& entry : entries_) {
    if (entry.heartbeat.get() == heartbeat) {
      entry.live = false;
      return;
    }
  }
}

std::vector<HeartbeatSnapshot> HeartbeatRegistry::Snapshots() const {
  const double now = Now();
  std::vector<HeartbeatSnapshot> snapshots;
  {
    MutexLock lock(mutex_);
    snapshots.reserve(entries_.size());
    for (const Entry& entry : entries_) {
      if (!entry.live) continue;
      HeartbeatSnapshot snapshot;
      snapshot.name = entry.name;
      snapshot.busy = entry.heartbeat->busy();
      snapshot.last_beat_seconds = entry.heartbeat->last_beat_seconds();
      snapshot.age_seconds = now - snapshot.last_beat_seconds;
      snapshot.beats = entry.heartbeat->beats();
      snapshots.push_back(std::move(snapshot));
    }
  }
  std::sort(snapshots.begin(), snapshots.end(),
            [](const HeartbeatSnapshot& a, const HeartbeatSnapshot& b) {
              return a.name < b.name;
            });
  return snapshots;
}

size_t HeartbeatRegistry::size() const {
  MutexLock lock(mutex_);
  size_t live = 0;
  for (const Entry& entry : entries_) {
    if (entry.live) ++live;
  }
  return live;
}

}  // namespace obs
}  // namespace icrowd
