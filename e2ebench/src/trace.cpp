#include "trace.hpp"

#include <cstring>
#include <fstream>
#include <memory>
#include <stdexcept>

namespace e2e {

namespace {

std::unique_ptr<Trace> g_trace;

/// Spans open on this thread, innermost last — the parent of a new span.
thread_local std::vector<std::uint64_t> t_stack;
thread_local std::uint32_t t_thread = 0;

}  // namespace

Trace::Trace() : epoch_(Clock::now()) {}

Trace* Trace::active() { return g_trace.get(); }

void Trace::enable() {
  if (!g_trace) g_trace.reset(new Trace());
}

std::uint64_t Trace::open(const char* name, std::uint64_t ctx) {
  const auto now = Clock::now();
  Span span;
  span.name = name;
  span.start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(now - epoch_).count();
  span.parent = t_stack.empty() ? 0 : t_stack.back();
  span.ctx = ctx;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (t_thread == 0) t_thread = next_thread_++;
    span.thread = t_thread;
    span.id = next_id_++;
    open_.emplace(span.id, span);
  }
  t_stack.push_back(span.id);
  return span.id;
}

void Trace::close(std::uint64_t id) {
  const auto now = Clock::now();
  if (!t_stack.empty() && t_stack.back() == id) t_stack.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = open_.find(id);
  if (it == open_.end()) return;
  Span span = it->second;
  open_.erase(it);
  span.end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(now - epoch_).count();
  closed_.push_back(span);
}

std::vector<Span> Trace::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

void Trace::write_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write trace dump " + path);
  for (const Span& s : spans()) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"ctx\":" << s.ctx
        << ",\"thread\":" << s.thread << "}\n";
  }
}

ScopedSpan::ScopedSpan(const char* name, std::uint64_t ctx) {
  if (Trace* t = Trace::active()) id_ = t->open(name, ctx);
}

ScopedSpan::~ScopedSpan() {
  if (id_ != 0) Trace::active()->close(id_);
}

std::vector<double> durations(const std::vector<Span>& spans,
                              const char* name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, name) == 0) out.push_back(s.seconds());
  }
  return out;
}

}  // namespace e2e
