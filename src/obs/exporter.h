#ifndef ICROWD_OBS_EXPORTER_H_
#define ICROWD_OBS_EXPORTER_H_

#include <string>

#include "obs/metrics.h"

namespace icrowd {
namespace obs {

/// Flags shared by every experiment/bench binary that can dump the global
/// registry (see DESIGN.md §9):
///   --metrics-out=PATH     write the end-of-run JSONL dump to PATH
///   --deterministic        export only deterministic metrics/events (no
///                          wall-clock values) so the dump is bit-identical
///                          across thread counts
/// The dump holds metrics and trajectory events only; spans live in the
/// flight recorder (/flightz), never in this file.
struct MetricsCliOptions {
  std::string out_path;  // empty: no dump requested
  bool deterministic = false;
};

/// Strips the flags above out of (argc, argv) — leaving unrelated flags for
/// the binary's own parser (e.g. google-benchmark's) — and returns them.
MetricsCliOptions ConsumeMetricsFlags(int* argc, char** argv);

/// Writes the global registry's JSONL dump to options.out_path (no-op when
/// empty). Returns false and prints to stderr on I/O failure.
bool WriteMetricsIfRequested(const MetricsCliOptions& options);

}  // namespace obs
}  // namespace icrowd

#endif  // ICROWD_OBS_EXPORTER_H_
