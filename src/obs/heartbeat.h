#ifndef ICROWD_OBS_HEARTBEAT_H_
#define ICROWD_OBS_HEARTBEAT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.h"
#include "core/clock.h"

namespace icrowd {
namespace obs {

class HeartbeatRegistry;

/// Liveness contract for long-lived threads (DESIGN.md §14): each such
/// thread registers a named Heartbeat and stamps it at every loop
/// iteration. /healthz (ObsServer) reads the stamps; a *busy* heartbeat
/// whose stamp stops advancing is a stall, while an *idle* one (parked on
/// a condition variable, nothing to do) is healthy no matter how old.
///
/// The heartbeat contract, for a thread with loop body `while (...) {
/// wait-for-work; do-work; }`:
///   - MarkIdle() immediately before blocking for work,
///   - MarkBusy() immediately after obtaining work,
///   - Beat() inside long do-work phases if they have internal loops.
/// All three are a couple of relaxed atomic stores plus one clock read —
/// safe at any frequency.
class Heartbeat {
 public:
  void Beat();
  void MarkBusy() {
    busy_.store(true, std::memory_order_relaxed);
    Beat();
  }
  void MarkIdle() {
    busy_.store(false, std::memory_order_relaxed);
    Beat();
  }

  bool busy() const { return busy_.load(std::memory_order_relaxed); }
  uint64_t beats() const { return beats_.load(std::memory_order_relaxed); }
  /// Registry-clock seconds of the most recent stamp.
  double last_beat_seconds() const;

 private:
  friend class HeartbeatRegistry;
  explicit Heartbeat(const HeartbeatRegistry* registry)
      : registry_(registry) {}

  const HeartbeatRegistry* const registry_;
  /// Fixed-point (billionths) registry-clock seconds of the last stamp, so
  /// the double clock reading is stored in one atomic word.
  std::atomic<int64_t> last_fp_{0};
  std::atomic<bool> busy_{false};
  std::atomic<uint64_t> beats_{0};
};

/// One heartbeat's state as seen by a scan, for /healthz and statusz.
struct HeartbeatSnapshot {
  std::string name;
  bool busy = false;
  double age_seconds = 0.0;  // scan time minus last stamp
  double last_beat_seconds = 0.0;
  uint64_t beats = 0;
};

/// Registry of named heartbeats. Registration is cold (mutex); stamping is
/// lock-free through the returned Heartbeat*. Time comes from an injected
/// core Clock when one is set (tests fake time with ManualClock) and from
/// a monotonic steady clock otherwise — never wall clock, which a stall
/// verdict must not trust (an NTP step would fake or mask a stall).
class HeartbeatRegistry {
 public:
  /// Never destroyed; production threads register here.
  static HeartbeatRegistry& Global();

  HeartbeatRegistry();
  ~HeartbeatRegistry();
  HeartbeatRegistry(const HeartbeatRegistry&) = delete;
  HeartbeatRegistry& operator=(const HeartbeatRegistry&) = delete;

  /// Registers a heartbeat under `name` (duplicates get a "#2", "#3", ...
  /// suffix so two pool workers stay distinguishable). The pointer stays
  /// valid until Unregister — heartbeats are pooled, not destroyed.
  Heartbeat* Register(const std::string& name) ICROWD_EXCLUDES(mutex_);
  /// Retires the heartbeat from scans and recycles it. Idempotent; null ok.
  void Unregister(Heartbeat* heartbeat) ICROWD_EXCLUDES(mutex_);

  /// Injects the time source (not owned; must outlive its use — pass
  /// nullptr to restore the built-in steady clock). Affects subsequent
  /// stamps and scans; mixing clocks mid-flight skews ages until each
  /// heartbeat stamps again.
  void SetClock(Clock* clock) {
    clock_.store(clock, std::memory_order_relaxed);
  }
  /// Current registry-clock time in seconds.
  double Now() const;

  /// All live heartbeats, sorted by name, with ages relative to Now().
  std::vector<HeartbeatSnapshot> Snapshots() const ICROWD_EXCLUDES(mutex_);
  size_t size() const ICROWD_EXCLUDES(mutex_);

 private:
  friend class Heartbeat;

  struct Entry {
    std::string name;
    std::unique_ptr<Heartbeat> heartbeat;
    bool live = false;
  };

  /// Now() in fixed-point billionths — the stamp format.
  int64_t NowFixedPoint() const;

  std::atomic<Clock*> clock_{nullptr};
  /// Registration/scan mutex (tools/lock_order.txt); never held while
  /// stamping.
  mutable Mutex mutex_;
  std::vector<Entry> entries_ ICROWD_GUARDED_BY(mutex_);
};

/// RAII registration against the global registry for scoped thread loops:
///   ScopedHeartbeat heartbeat("pool.worker");
///   ... heartbeat->MarkIdle(); ... heartbeat->MarkBusy(); ...
class ScopedHeartbeat {
 public:
  explicit ScopedHeartbeat(const std::string& name)
      : heartbeat_(HeartbeatRegistry::Global().Register(name)) {}
  ~ScopedHeartbeat() { HeartbeatRegistry::Global().Unregister(heartbeat_); }
  ScopedHeartbeat(const ScopedHeartbeat&) = delete;
  ScopedHeartbeat& operator=(const ScopedHeartbeat&) = delete;

  Heartbeat* operator->() const { return heartbeat_; }
  Heartbeat* get() const { return heartbeat_; }

 private:
  Heartbeat* const heartbeat_;
};

}  // namespace obs
}  // namespace icrowd

#endif  // ICROWD_OBS_HEARTBEAT_H_
