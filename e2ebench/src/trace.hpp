// Span tracing for the benchmark's traced runs (--trace 1).
//
// Spans are recorded only in this benchmark's own code, around its calls
// into each orionscan module's public functions; the library itself is
// untouched. A span carries a name of the form "<layer>.<operation>", its
// start and end on the steady clock, the span that was open on the same
// thread when it began (its parent), and a context id — the day for
// pipeline/store spans, the request sequence number for query spans.
// Spans stay in memory until the run ends, then go to a JSON-lines dump.
//
// With tracing off every ScopedSpan is a no-op, so the untraced runs that
// produce the end-to-end metrics pay nothing for it.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;  // steady clock, relative to the trace epoch
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0: a root span
  std::uint64_t ctx = 0;     // day or request id
  std::uint32_t thread = 0;

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

class Trace {
 public:
  /// The process-wide trace; nullptr when tracing is off.
  static Trace* active();
  /// Installs the process-wide trace (call once, before any thread starts).
  static void enable();

  std::uint64_t open(const char* name, std::uint64_t ctx);
  void close(std::uint64_t id);

  /// A snapshot of every closed span, in close order.
  std::vector<Span> spans() const;

  /// Writes one JSON object per span (name, start_ns, end_ns, id, parent,
  /// ctx, thread).
  void write_jsonl(const std::string& path) const;

 private:
  Trace();

  const Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> closed_;
  std::map<std::uint64_t, Span> open_;
  std::uint64_t next_id_ = 1;
  std::uint32_t next_thread_ = 1;
};

/// RAII span; a no-op when tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t ctx = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::uint64_t id_ = 0;
};

/// Durations (seconds) of every span with exactly this name.
std::vector<double> durations(const std::vector<Span>& spans, const char* name);

}  // namespace e2e
