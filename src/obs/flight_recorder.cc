#include "obs/flight_recorder.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "common/stopwatch.h"
#include "obs/metrics.h"

namespace icrowd {
namespace obs {

namespace {

std::atomic<uint64_t> g_next_recorder_id{1};

using internal::EscapeJson;

}  // namespace

const char* FlightEventKindName(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kSpanBegin:
      return "span_begin";
    case FlightEventKind::kSpanEnd:
      return "span_end";
    case FlightEventKind::kLog:
      return "log";
    case FlightEventKind::kIngest:
      return "ingest";
    case FlightEventKind::kMark:
      return "mark";
  }
  return "unknown";
}

/// One ring entry. Every field is atomic so a concurrent dump reads
/// well-defined values (possibly from two different records when a write
/// races the read — acceptable for a best-effort black box, and exact once
/// writers are quiesced). Detail text is packed into word-sized atomics:
/// a char array would be a byte-wise race under TSan.
struct FlightRecorder::Slot {
  static constexpr size_t kDetailWords = kDetailBytes / sizeof(uint64_t);

  std::atomic<int64_t> t_ns{0};
  std::atomic<uint64_t> seq{0};
  std::atomic<const char*> tag{nullptr};
  std::atomic<int64_t> a0{0};
  std::atomic<int64_t> a1{0};
  std::atomic<uint32_t> thread{0};
  std::atomic<uint8_t> kind{0};
  std::atomic<uint8_t> detail_len{0};
  std::atomic<uint64_t> detail[kDetailWords];
};

/// One thread's ring. Single writer (the owning thread); `next` counts
/// records ever written, so `next % capacity` is the write cursor and
/// min(next, capacity) entries are live. The release store on `next`
/// publishes the slot fields written before it.
struct FlightRecorder::Ring {
  explicit Ring(size_t capacity) : slots(new Slot[capacity]) {}
  const std::unique_ptr<Slot[]> slots;
  std::atomic<uint64_t> next{0};
};

namespace internal {

/// Thread-local ring cache with an exit hook, mirroring the metrics
/// registry's shard cache: a dying thread returns its global-recorder ring
/// for reuse, so one-shot thread batches do not grow rings without bound.
/// Instance recorders (tests) skip reuse and must outlive their threads.
struct TlsRingCache {
  struct Entry {
    uint64_t id = 0;
    FlightRecorder* recorder = nullptr;
    FlightRecorder::Ring* ring = nullptr;
  };
  std::vector<Entry> entries;
  ~TlsRingCache();
};

}  // namespace internal

namespace {
thread_local internal::TlsRingCache t_ring_cache;
}  // namespace

FlightRecorder& FlightRecorder::Global() {
  // Leaked on purpose, like MetricsRegistry::Global(): hooks record from
  // detached threads during teardown.
  static auto* recorder = new FlightRecorder();
  return *recorder;
}

namespace internal {
TlsRingCache::~TlsRingCache() {
  for (Entry& e : entries) {
    if (e.recorder == &FlightRecorder::Global()) {
      e.recorder->ReleaseRing(e.ring);
    }
  }
}
}  // namespace internal

FlightRecorder::FlightRecorder(size_t capacity_per_thread)
    : id_(g_next_recorder_id.fetch_add(1, std::memory_order_relaxed)),
      capacity_(capacity_per_thread == 0 ? 1 : capacity_per_thread) {
  epoch_ns_.store(SteadyNanos(), std::memory_order_relaxed);
}

FlightRecorder::~FlightRecorder() = default;

int64_t FlightRecorder::NowNanos() const {
  TimeSourceFn fn = time_source_.load(std::memory_order_relaxed);
  if (fn != nullptr) return fn();
  return SteadyNanos() - epoch_ns_.load(std::memory_order_relaxed);
}

FlightRecorder::Ring* FlightRecorder::LocalRing() {
  for (const internal::TlsRingCache::Entry& e : t_ring_cache.entries) {
    if (e.id == id_) return e.ring;
  }
  return LocalRingSlow();
}

FlightRecorder::Ring* FlightRecorder::LocalRingSlow() {
  Ring* ring = nullptr;
  {
    MutexLock lock(mutex_);
    if (!free_rings_.empty()) {
      ring = free_rings_.back();
      free_rings_.pop_back();
    } else {
      rings_.push_back(std::make_unique<Ring>(capacity_));
      ring = rings_.back().get();
    }
  }
  t_ring_cache.entries.push_back({id_, this, ring});
  return ring;
}

void FlightRecorder::ReleaseRing(Ring* ring) {
  MutexLock lock(mutex_);
  free_rings_.push_back(ring);
}

void FlightRecorder::Record(FlightEventKind kind, const char* tag, int64_t a0,
                            int64_t a1) {
  if (!enabled()) return;
  Ring* ring = LocalRing();
  const uint64_t n = ring->next.load(std::memory_order_relaxed);
  Slot& slot = ring->slots[n % capacity_];
  slot.t_ns.store(NowNanos(), std::memory_order_relaxed);
  slot.seq.store(n, std::memory_order_relaxed);
  slot.tag.store(tag, std::memory_order_relaxed);
  slot.a0.store(a0, std::memory_order_relaxed);
  slot.a1.store(a1, std::memory_order_relaxed);
  slot.thread.store(static_cast<uint32_t>(ThisThreadIndex()),
                    std::memory_order_relaxed);
  slot.kind.store(static_cast<uint8_t>(kind), std::memory_order_relaxed);
  slot.detail_len.store(0, std::memory_order_relaxed);
  ring->next.store(n + 1, std::memory_order_release);
}

void FlightRecorder::RecordDetail(FlightEventKind kind, const char* tag,
                                  std::string_view detail, int64_t a0) {
  if (!enabled()) return;
  Ring* ring = LocalRing();
  const uint64_t n = ring->next.load(std::memory_order_relaxed);
  Slot& slot = ring->slots[n % capacity_];
  slot.t_ns.store(NowNanos(), std::memory_order_relaxed);
  slot.seq.store(n, std::memory_order_relaxed);
  slot.tag.store(tag, std::memory_order_relaxed);
  slot.a0.store(a0, std::memory_order_relaxed);
  slot.a1.store(0, std::memory_order_relaxed);
  slot.thread.store(static_cast<uint32_t>(ThisThreadIndex()),
                    std::memory_order_relaxed);
  slot.kind.store(static_cast<uint8_t>(kind), std::memory_order_relaxed);
  const size_t len = std::min(detail.size(), kDetailBytes);
  uint64_t words[Slot::kDetailWords] = {};
  std::memcpy(words, detail.data(), len);
  for (size_t w = 0; w < Slot::kDetailWords; ++w) {
    slot.detail[w].store(words[w], std::memory_order_relaxed);
  }
  slot.detail_len.store(static_cast<uint8_t>(len), std::memory_order_relaxed);
  ring->next.store(n + 1, std::memory_order_release);
}

std::vector<FlightEventView> FlightRecorder::Snapshot(
    size_t max_events) const {
  std::vector<FlightEventView> views;
  {
    MutexLock lock(mutex_);
    for (const std::unique_ptr<Ring>& ring : rings_) {
      const uint64_t next = ring->next.load(std::memory_order_acquire);
      const uint64_t live = std::min<uint64_t>(next, capacity_);
      for (uint64_t i = next - live; i < next; ++i) {
        const Slot& slot = ring->slots[i % capacity_];
        FlightEventView view;
        view.t_ns = slot.t_ns.load(std::memory_order_relaxed);
        view.seq = slot.seq.load(std::memory_order_relaxed);
        view.thread = slot.thread.load(std::memory_order_relaxed);
        view.kind = static_cast<FlightEventKind>(
            slot.kind.load(std::memory_order_relaxed));
        const char* tag = slot.tag.load(std::memory_order_relaxed);
        view.tag = tag == nullptr ? "" : tag;
        view.a0 = slot.a0.load(std::memory_order_relaxed);
        view.a1 = slot.a1.load(std::memory_order_relaxed);
        const size_t len = slot.detail_len.load(std::memory_order_relaxed);
        if (len > 0) {
          uint64_t words[Slot::kDetailWords];
          for (size_t w = 0; w < Slot::kDetailWords; ++w) {
            words[w] = slot.detail[w].load(std::memory_order_relaxed);
          }
          view.detail.assign(reinterpret_cast<const char*>(words),
                             std::min(len, kDetailBytes));
        }
        views.push_back(std::move(view));
      }
    }
  }
  std::sort(views.begin(), views.end(),
            [](const FlightEventView& a, const FlightEventView& b) {
              if (a.t_ns != b.t_ns) return a.t_ns < b.t_ns;
              if (a.thread != b.thread) return a.thread < b.thread;
              return a.seq < b.seq;
            });
  if (max_events > 0 && views.size() > max_events) {
    views.erase(views.begin(),
                views.end() - static_cast<ptrdiff_t>(max_events));
  }
  return views;
}

std::string FormatFlightEvent(const FlightEventView& view, bool json) {
  char buf[192];
  if (json) {
    int n = std::snprintf(
        buf, sizeof(buf),
        "{\"a0\":%" PRId64 ",\"a1\":%" PRId64
        ",\"kind\":\"%s\",\"seq\":%" PRIu64 ",\"t_ns\":%" PRId64
        ",\"tag\":\"%s\",\"thread\":%u",
        view.a0, view.a1, FlightEventKindName(view.kind), view.seq, view.t_ns,
        EscapeJson(view.tag).c_str(), view.thread);
    std::string out(buf, n < 0 ? 0 : static_cast<size_t>(n));
    if (!view.detail.empty()) {
      out += ",\"detail\":\"";
      out += EscapeJson(view.detail);
      out += "\"";
    }
    out += "}";
    return out;
  }
  int n = std::snprintf(buf, sizeof(buf),
                        "%14" PRId64 "ns t%02u #%-6" PRIu64 " %-10s %-24s "
                        "a0=%" PRId64 " a1=%" PRId64,
                        view.t_ns, view.thread, view.seq,
                        FlightEventKindName(view.kind), view.tag, view.a0,
                        view.a1);
  std::string out(buf, n < 0 ? 0 : static_cast<size_t>(n));
  if (!view.detail.empty()) {
    out += " | ";
    out += view.detail;
  }
  return out;
}

std::string FlightRecorder::Dump(const DumpOptions& options) const {
  std::vector<FlightEventView> views = Snapshot(options.max_events);
  std::string out;
  out.reserve(views.size() * 96);
  for (const FlightEventView& view : views) {
    out += FormatFlightEvent(view, options.json);
    out += "\n";
  }
  return out;
}

uint64_t FlightRecorder::events_recorded() const {
  MutexLock lock(mutex_);
  uint64_t total = 0;
  for (const std::unique_ptr<Ring>& ring : rings_) {
    total += ring->next.load(std::memory_order_relaxed);
  }
  return total;
}

void FlightRecorder::ResetForTesting() {
  MutexLock lock(mutex_);
  for (const std::unique_ptr<Ring>& ring : rings_) {
    ring->next.store(0, std::memory_order_relaxed);
  }
}

}  // namespace obs
}  // namespace icrowd
