#ifndef ICROWD_COMMON_STOPWATCH_H_
#define ICROWD_COMMON_STOPWATCH_H_

#include <chrono>
#include <cstdint>

namespace icrowd {

/// Monotonic nanoseconds since an arbitrary epoch, for stamps that are
/// only ever subtracted from one another (IngestEvent::enqueue_ns, uptime
/// and flight-recorder epochs); a wall-clock step would corrupt them.
inline int64_t SteadyNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Wall-clock timer for measuring assignment/estimation latency.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }
  double ElapsedMicros() const { return ElapsedSeconds() * 1e6; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace icrowd

#endif  // ICROWD_COMMON_STOPWATCH_H_
