#pragma once
// Spans for the ledger's traced run (choosing-metrics guide §4): name,
// start, end, parent span and the batch or request id, kept in memory and
// written at exit as Chrome-trace JSON plus a per-layer summary. Spans are
// recorded around calls into each layer from the benchmark's own files, so
// nothing in src/ changes. One Tracer is used from one thread.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "util/stats.hpp"

namespace ledger {

using Clock = std::chrono::steady_clock;

class Tracer {
 public:
  using SpanId = std::int32_t;
  static constexpr SpanId kRoot = -1;

  /// Count, total, self time and duration percentiles of one span name.
  struct Layer {
    std::string name;
    std::size_t count = 0;
    double total_us = 0;
    double self_us = 0;
    double p50_us = 0;
    double p99_us = 0;
  };

  Tracer() : epoch_(Clock::now()) {}

  /// Opens a span now; close it with end().
  SpanId begin(const char* name, std::uint64_t id, SpanId parent = kRoot) {
    const Clock::time_point now = Clock::now();
    return record(name, id, parent, now, now);
  }
  void end(SpanId span) { spans_[span].end_ns = since_epoch(Clock::now()); }

  /// Records a finished span (used to rebuild request spans afterwards).
  SpanId record(const char* name, std::uint64_t id, SpanId parent,
                Clock::time_point start, Clock::time_point end) {
    spans_.push_back({name, parent, id, since_epoch(start), since_epoch(end)});
    return static_cast<SpanId>(spans_.size() - 1);
  }

  /// Summed duration of every span called `name`, in microseconds.
  double total_us(const std::string& name) const {
    std::int64_t ns = 0;
    for (const Span& s : spans_) {
      if (name == s.name) {
        ns += s.end_ns - s.start_ns;
      }
    }
    return static_cast<double>(ns) / 1e3;
  }

  /// Per-name summary in first-seen order. Self time is a span's duration
  /// minus the part of it that its children's intervals cover.
  std::vector<Layer> summarize() const {
    std::vector<double> covered(spans_.size(), 0.0);
    std::vector<SpanId> children;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent != kRoot) {
        children.push_back(static_cast<SpanId>(i));
      }
    }
    std::sort(children.begin(), children.end(), [&](SpanId a, SpanId b) {
      const Span& x = spans_[a];
      const Span& y = spans_[b];
      return x.parent != y.parent ? x.parent < y.parent
                                  : x.start_ns < y.start_ns;
    });
    for (std::size_t i = 0; i < children.size();) {
      const SpanId parent = spans_[children[i]].parent;
      const Span& p = spans_[parent];
      std::int64_t reach = p.start_ns;  // covered up to here
      double sum = 0;
      for (; i < children.size() && spans_[children[i]].parent == parent; ++i) {
        const Span& c = spans_[children[i]];
        const std::int64_t lo = std::max(c.start_ns, reach);
        const std::int64_t hi = std::min(c.end_ns, p.end_ns);
        if (hi > lo) {
          sum += static_cast<double>(hi - lo);
          reach = hi;
        }
      }
      covered[parent] = sum;
    }

    std::vector<Layer> layers;
    std::map<std::string, std::size_t> index;
    std::vector<std::vector<double>> durations;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const auto [it, added] = index.emplace(s.name, layers.size());
      if (added) {
        layers.push_back({s.name, 0, 0, 0, 0, 0});
        durations.emplace_back();
      }
      const double dur = static_cast<double>(s.end_ns - s.start_ns);
      Layer& layer = layers[it->second];
      ++layer.count;
      layer.total_us += dur / 1e3;
      layer.self_us += (dur - covered[i]) / 1e3;
      durations[it->second].push_back(dur / 1e3);
    }
    for (std::size_t l = 0; l < layers.size(); ++l) {
      layers[l].p50_us = apss::util::percentile(durations[l], 50);
      layers[l].p99_us = apss::util::percentile(durations[l], 99);
    }
    return layers;
  }

  /// Writes the first `per_name` spans of each name as Chrome-trace "X"
  /// events, one row (tid) per batch or request id. The summary covers every
  /// span; the cap only keeps the file small.
  bool write_chrome_trace(const std::string& path,
                          std::size_t per_name) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    std::map<std::string, std::size_t> seen;
    std::size_t written = 0;
    std::fprintf(f, "{\"traceEvents\":[");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (seen[s.name]++ >= per_name) {
        continue;
      }
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"ledger\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%llu,"
                   "\"args\":{\"span\":%zu,\"parent\":%d,\"id\":%llu}}",
                   written == 0 ? "" : ",", s.name,
                   static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                   static_cast<unsigned long long>(s.id), i, s.parent,
                   static_cast<unsigned long long>(s.id));
      ++written;
    }
    std::fprintf(f,
                 "\n],\"otherData\":{\"spans_recorded\":%zu,"
                 "\"spans_written\":%zu}}\n",
                 spans_.size(), written);
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;  // string literal: spans never own their name
    SpanId parent;
    std::uint64_t id;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  std::int64_t since_epoch(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Closes a span when it leaves scope.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::uint64_t id,
        Tracer::SpanId parent = Tracer::kRoot)
      : tracer_(tracer), span_(tracer.begin(name, id, parent)) {}
  ~Scope() { tracer_.end(span_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  Tracer::SpanId id() const noexcept { return span_; }

 private:
  Tracer& tracer_;
  Tracer::SpanId span_;
};

}  // namespace ledger
