#ifndef ICROWD_COMMON_THREAD_ANNOTATIONS_H_
#define ICROWD_COMMON_THREAD_ANNOTATIONS_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

/// Compiler-enforced locking discipline (DESIGN.md §13).
///
/// The ICROWD_* macros below wrap Clang's -Wthread-safety capability
/// attributes: annotate which mutex guards which field, which functions
/// acquire/release/require which locks, and the compiler proves every
/// access consistent at build time — a data race on an annotated field is
/// a compile error under -DICROWD_THREAD_SAFETY=ON, not a flaky TSan
/// report. Under GCC (which has no capability analysis) every macro
/// expands to nothing and the wrappers below compile to the bare
/// std::mutex operations; the `guarded-field`, `lock-order`, and
/// `bare-mutex` rules in tools/icrowd_lint.py keep the same discipline
/// enforced on GCC-only machines.
///
/// Usage pattern:
///
///   class Account {
///    public:
///     void Deposit(int amount) {
///       MutexLock lock(mu_);
///       balance_ += amount;
///     }
///    private:
///     Mutex mu_;
///     int balance_ ICROWD_GUARDED_BY(mu_) = 0;
///   };
///
/// Lock ordering is declared centrally in tools/lock_order.txt; nested
/// acquisitions must respect it (enforced by the lock-order lint rule,
/// and documented per-mutex with ICROWD_ACQUIRED_BEFORE where useful).

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by)
#define ICROWD_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef ICROWD_THREAD_ANNOTATION
#define ICROWD_THREAD_ANNOTATION(x)  // no-op outside Clang
#endif

/// Marks a class as a lockable capability ("mutex" names the capability
/// kind in diagnostics).
#define ICROWD_CAPABILITY(x) ICROWD_THREAD_ANNOTATION(capability(x))

/// Marks an RAII class whose constructor acquires and destructor releases
/// a capability (std::lock_guard-shaped types).
#define ICROWD_SCOPED_CAPABILITY ICROWD_THREAD_ANNOTATION(scoped_lockable)

/// The annotated field may only be accessed while holding capability `x`.
#define ICROWD_GUARDED_BY(x) ICROWD_THREAD_ANNOTATION(guarded_by(x))

/// The data *pointed to* by the annotated pointer may only be accessed
/// while holding capability `x` (the pointer itself is unguarded).
#define ICROWD_PT_GUARDED_BY(x) ICROWD_THREAD_ANNOTATION(pt_guarded_by(x))

/// Documented lock-order edges, checked by Clang when both locks are
/// annotated. The authoritative whole-repo order lives in
/// tools/lock_order.txt.
#define ICROWD_ACQUIRED_BEFORE(...) \
  ICROWD_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define ICROWD_ACQUIRED_AFTER(...) \
  ICROWD_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

/// The function may only be called while already holding the listed
/// capabilities (they are not acquired or released by it).
#define ICROWD_REQUIRES(...) \
  ICROWD_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define ICROWD_REQUIRES_SHARED(...) \
  ICROWD_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

/// The function acquires/releases the listed capabilities itself.
#define ICROWD_ACQUIRE(...) \
  ICROWD_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define ICROWD_ACQUIRE_SHARED(...) \
  ICROWD_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define ICROWD_RELEASE(...) \
  ICROWD_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define ICROWD_RELEASE_SHARED(...) \
  ICROWD_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define ICROWD_TRY_ACQUIRE(...) \
  ICROWD_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// The function must NOT be called while holding the listed capabilities
/// (it acquires them internally; calling with them held would deadlock).
#define ICROWD_EXCLUDES(...) \
  ICROWD_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Runtime assertion that the capability is held (for code reachable only
/// under a lock the analysis cannot see, e.g. through a std::function).
#define ICROWD_ASSERT_CAPABILITY(x) \
  ICROWD_THREAD_ANNOTATION(assert_capability(x))

/// The function returns a reference to the given capability.
#define ICROWD_RETURN_CAPABILITY(x) ICROWD_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Every use needs
/// a comment explaining why the function is safe.
#define ICROWD_NO_THREAD_SAFETY_ANALYSIS \
  ICROWD_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace icrowd {

class CondVar;

/// std::mutex with the capability annotation the analysis needs. All
/// project mutexes outside src/common/ must be this type (lint rule
/// `bare-mutex`): a raw std::mutex is invisible to the analysis, so
/// fields it guards get no compile-time protection.
class ICROWD_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ICROWD_ACQUIRE() { mu_.lock(); }
  void Unlock() ICROWD_RELEASE() { mu_.unlock(); }
  bool TryLock() ICROWD_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class MutexLock;
  std::mutex mu_;
};

/// RAII lock over a Mutex (the project's lock_guard/unique_lock). Unlock/
/// Lock allow releasing early (e.g. before notifying a CondVar or before
/// rethrowing); the destructor releases only if still held.
class ICROWD_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ICROWD_ACQUIRE(mu) : lock_(mu.mu_) {}
  ~MutexLock() ICROWD_RELEASE() {}

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  void Unlock() ICROWD_RELEASE() { lock_.unlock(); }
  void Lock() ICROWD_ACQUIRE() { lock_.lock(); }

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

/// Condition variable bound to MutexLock. Wait() atomically releases the
/// lock, blocks, and reacquires before returning — so from the analysis's
/// point of view the capability is held across the call, which is exactly
/// the guarantee the caller observes. There is deliberately no predicate
/// overload: a predicate lambda is analyzed as a separate function that
/// cannot see the held lock, so waits are written as explicit loops —
///   while (!condition) cv_.Wait(lock);
/// — which the analysis (and a human auditing the guarded reads) can
/// check directly.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(MutexLock& lock) { cv_.wait(lock.lock_); }

  /// Timed wait: releases, blocks up to `timeout` (steady-clock measured),
  /// reacquires before returning. Returns true when notified, false on
  /// timeout. Spurious wakes return true, so — as with Wait() — callers
  /// loop on an explicit predicate; the timeout only bounds one iteration
  /// (the series sampler's periodic-tick pattern).
  bool WaitFor(MutexLock& lock, std::chrono::nanoseconds timeout) {
    return cv_.wait_for(lock.lock_, timeout) == std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace icrowd

#endif  // ICROWD_COMMON_THREAD_ANNOTATIONS_H_
