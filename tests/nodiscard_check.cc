// NEGATIVE compile check — this file must NOT compile under
// -Werror=unused-result. The `nodiscard_compile_check` ctest entry runs the
// compiler over it and asserts failure (WILL_FAIL), which pins the
// [[nodiscard]] attribute on Status, Result<T>, their key accessors, and
// the ingest-pipeline surface (BoundedEventQueue, JournalWriter
// counters): if someone removes an attribute, this file starts compiling
// and the test suite goes red.

#include "common/result.h"
#include "common/status.h"
#include "ingest/event_queue.h"
#include "journal/journal.h"

namespace icrowd {

Status MakeStatus() { return Status::Internal("dropped"); }
Result<int> MakeResult() { return 1; }

void DropsEverything() {
  MakeStatus();               // dropped Status return value
  MakeResult();               // dropped Result return value
  Status::InvalidArgument(""); // dropped factory result
  Result<int> r = MakeResult();
  r.ok();                     // dropped ok()
  r.status();                 // dropped status()
  r.ValueOrDie();             // dropped accessor
}

void DropsIngestResults(BoundedEventQueue& queue,
                        std::vector<IngestEvent>* out) {
  // Dropping Push's bool silently loses the event on a closed queue;
  // dropping PopBatch's count loses the consumer's shutdown signal.
  queue.Push(IngestEvent{});  // dropped push-accepted flag
  queue.PopBatch(out, 8);     // dropped popped count
  queue.closed();             // dropped state probe
  queue.depth();              // dropped depth
  queue.backpressure_waits(); // dropped counter
  queue.events_pushed();      // dropped counter
  queue.events_popped();      // dropped counter
}

void DropsJournalCounters(const JournalWriter& writer) {
  writer.events_written();    // dropped counter
  writer.bytes_written();     // dropped counter
  writer.flushes();           // dropped counter
}

}  // namespace icrowd
