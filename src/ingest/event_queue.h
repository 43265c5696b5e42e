#ifndef ICROWD_INGEST_EVENT_QUEUE_H_
#define ICROWD_INGEST_EVENT_QUEUE_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "common/thread_annotations.h"
#include "ingest/event.h"

namespace icrowd {

/// Bounded blocking event queue: the producer/consumer handoff at the head
/// of the ingest pipeline (DESIGN.md §12). Push blocks while the queue is
/// at capacity (backpressure — a burst cannot grow memory without bound);
/// PopBatch blocks while the queue is empty and open, then drains up to a
/// whole batch in one critical section, which is what amortizes the
/// cross-thread handoff cost over the batch.
///
/// Thread-safety: any number of producers and consumers may call any
/// method concurrently; in the host it is used multi-producer /
/// single-consumer (one shard thread per queue). Close() is idempotent,
/// wakes every waiter, and lets consumers drain what was already queued
/// before they observe shutdown. All state is guarded by mu_ (below
/// Shard::shard_mu_ in tools/lock_order.txt — the host never holds a
/// ledger lock while calling in here).
class BoundedEventQueue {
 public:
  /// `capacity` must be >= 1 (clamped up otherwise).
  explicit BoundedEventQueue(size_t capacity);

  BoundedEventQueue(const BoundedEventQueue&) = delete;
  BoundedEventQueue& operator=(const BoundedEventQueue&) = delete;

  /// Enqueues one event, blocking while the queue is full. Returns false —
  /// without enqueueing — once the queue is closed; ignoring that result
  /// silently drops the event, hence [[nodiscard]].
  [[nodiscard]] bool Push(const IngestEvent& event) ICROWD_EXCLUDES(mu_);

  /// Appends up to `max_events` (>= 1; clamped up) events to `*out`,
  /// blocking while the queue is empty and open. Returns the number
  /// appended; 0 means closed *and* fully drained — the consumer's
  /// shutdown signal, which must not be dropped. Never returns 0 while
  /// events remain queued.
  [[nodiscard]] size_t PopBatch(std::vector<IngestEvent>* out,
                                size_t max_events) ICROWD_EXCLUDES(mu_);

  /// Closes the queue: further Push calls fail, blocked producers and
  /// consumers wake, already-queued events stay poppable. Idempotent.
  void Close() ICROWD_EXCLUDES(mu_);

  [[nodiscard]] bool closed() const ICROWD_EXCLUDES(mu_);

  /// Events currently queued (racy by nature; for monitoring/tests).
  [[nodiscard]] size_t depth() const ICROWD_EXCLUDES(mu_);

  /// depth() that also refreshes the icrowd.ingest.queue_depth gauge. Both
  /// queue ends already set the gauge inside their critical sections, but
  /// each only fires on its own activity — a reader (consumer loop,
  /// statusz) calls this to make the gauge reflect *now* rather than the
  /// last push/pop.
  size_t SampleDepth() const ICROWD_EXCLUDES(mu_);

  /// Times a Push had to block on a full queue — the backpressure signal
  /// the burst bench plots against batch size.
  [[nodiscard]] uint64_t backpressure_waits() const ICROWD_EXCLUDES(mu_);

  [[nodiscard]] uint64_t events_pushed() const ICROWD_EXCLUDES(mu_);
  [[nodiscard]] uint64_t events_popped() const ICROWD_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  CondVar not_full_;
  CondVar not_empty_;
  std::deque<IngestEvent> queue_ ICROWD_GUARDED_BY(mu_);
  const size_t capacity_;
  bool closed_ ICROWD_GUARDED_BY(mu_) = false;
  uint64_t backpressure_waits_ ICROWD_GUARDED_BY(mu_) = 0;
  uint64_t pushed_ ICROWD_GUARDED_BY(mu_) = 0;
  uint64_t popped_ ICROWD_GUARDED_BY(mu_) = 0;
};

}  // namespace icrowd

#endif  // ICROWD_INGEST_EVENT_QUEUE_H_
