#include "obs/build_info.h"

#include <sstream>

#include "common/stopwatch.h"
#include "icrowd_version.h"
#include "obs/metrics.h"

#ifndef ICROWD_GIT_SHA
#define ICROWD_GIT_SHA "unknown"
#endif
#ifndef ICROWD_BUILD_TYPE
#define ICROWD_BUILD_TYPE "unknown"
#endif

namespace icrowd {
namespace obs {

namespace {

/// Captured at static-init time: uptime is monotonic process age, never
/// wall clock (clock-source rule). Statusz reads its uptime from here too.
const int64_t g_process_epoch_ns = SteadyNanos();

using internal::FormatSeconds;

}  // namespace

BuildInfo CurrentBuildInfo() {
  BuildInfo info;
  info.git_sha = ICROWD_GIT_SHA;
  info.build_type = ICROWD_BUILD_TYPE;
  info.api_version_major = ICROWD_API_VERSION_MAJOR;
  info.api_version_minor = ICROWD_API_VERSION_MINOR;
  info.uptime_seconds =
      static_cast<double>(SteadyNanos() - g_process_epoch_ns) * 1e-9;
  return info;
}

std::string RenderBuildInfoText(const BuildInfo& info) {
  std::ostringstream out;
  out << "git_sha " << info.git_sha << "\n";
  out << "build_type " << info.build_type << "\n";
  out << "api_version " << info.api_version_major << "."
      << info.api_version_minor << "\n";
  out << "uptime_seconds " << FormatSeconds(info.uptime_seconds) << "\n";
  return out.str();
}

std::string RenderBuildInfoJson(const BuildInfo& info) {
  // git_sha and build_type are compile-time identifiers (hex sha, CMake
  // build type) — nothing to escape.
  std::ostringstream out;
  out << "{\"git_sha\":\"" << info.git_sha << "\",\"build_type\":\""
      << info.build_type << "\",\"api_version\":\"" << info.api_version_major
      << "." << info.api_version_minor
      << "\",\"uptime_seconds\":" << FormatSeconds(info.uptime_seconds) << "}";
  return out.str();
}

}  // namespace obs
}  // namespace icrowd
