#include "trace.h"

#include <algorithm>
#include <fstream>
#include <utility>

namespace perfbench {

Tracer::Tracer(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

int64_t Tracer::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

uint32_t Tracer::Begin(const char* name, uint32_t parent, int64_t campaign) {
  if (!enabled_) return 0;
  Span span;
  span.name = name;
  span.parent = parent;
  span.campaign = campaign;
  span.start_ns = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
  return static_cast<uint32_t>(spans_.size());
}

void Tracer::End(uint32_t id) {
  if (id == 0) return;
  const int64_t now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end_ns = now;
}

std::map<std::string, Tracer::Totals> Tracer::Summarize() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children's intervals per parent, clipped to the parent and merged, so
  // overlapping children are not subtracted twice.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent == 0 || s.parent > spans_.size()) continue;
    const Span& p = spans_[s.parent - 1];
    int64_t lo = std::max(s.start_ns, p.start_ns);
    int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) children[s.parent - 1].emplace_back(lo, hi);
  }
  std::map<std::string, Totals> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t reach = s.start_ns;
    for (const auto& [lo, hi] : kids) {
      int64_t from = std::max(lo, reach);
      if (hi > from) {
        covered += hi - from;
        reach = hi;
      }
    }
    const int64_t duration = s.end_ns - s.start_ns;
    Totals& t = totals[s.name];
    t.total_s += static_cast<double>(duration) * 1e-9;
    t.self_s += static_cast<double>(duration - covered) * 1e-9;
    ++t.count;
  }
  return totals;
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
    }
  }
  return out;
}

icrowd::Status Tracer::WriteJsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path, std::ios::trunc);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i + 1 << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"campaign\":" << s.campaign
        << "}\n";
  }
  out.flush();
  if (!out) return icrowd::Status::Internal("cannot write trace " + path);
  return icrowd::Status::OK();
}

}  // namespace perfbench
