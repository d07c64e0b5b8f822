// In-memory span tracer of the traced run.
//
// A span records a layer call made from the benchmark's own code: name,
// start, end, the span that caused it (parent) and a request id shared by
// all spans of one query. Each thread owns one SpanBuffer (no locking on
// the hot path); buffers are summarised into the per-layer metrics and
// written as Chrome trace_event JSON once the run is over. A disabled
// buffer records nothing, so the untraced runs pay one branch per call.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"

namespace pb {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index in the same buffer; -1: root
  std::uint64_t request = 0;  // shared by the spans of one query; 0: none
  std::uint64_t calls = 1;    // calls the span covers (batched drives)
};

class SpanBuffer {
 public:
  SpanBuffer(int tid, bool enabled, std::size_t max_spans)
      : tid_(tid), enabled_(enabled), max_spans_(max_spans) {}

  [[nodiscard]] int tid() const noexcept { return tid_; }

  /// Opens a span as a child of the innermost open one; returns its index
  /// (-1 when disabled or full).
  int open(const char* name) {
    if (!enabled_) return -1;
    if (spans_.size() >= max_spans_) {
      ++dropped_;
      return -1;
    }
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, now_ns(), 0, parent, 0, 1});
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }

  /// Closes span `idx` (from open()), which covered `calls` calls.
  void close(int idx, std::uint64_t calls = 1) {
    if (idx < 0) return;
    Span& s = spans_[static_cast<std::size_t>(idx)];
    s.end_ns = now_ns();
    s.calls = calls;
    if (!stack_.empty() && stack_.back() == idx) stack_.pop_back();
  }

  /// Records a finished span with explicit times (the caller timed the
  /// call itself, so the bookkeeping stays outside the measured interval);
  /// returns its index (-1 when disabled or full).
  int add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
          int parent, std::uint64_t request) {
    if (!enabled_) return -1;
    if (spans_.size() >= max_spans_) {
      ++dropped_;
      return -1;
    }
    spans_.push_back({name, start_ns, end_ns, parent, request, 1});
    return static_cast<int>(spans_.size() - 1);
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  int tid_;
  bool enabled_;
  std::size_t max_spans_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::uint64_t dropped_ = 0;
};

/// RAII span around one call into a layer.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer& buf, const char* name)
      : buf_(buf), idx_(buf.open(name)) {}
  ~ScopedSpan() { buf_.close(idx_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanBuffer& buf_;
  int idx_;
};

/// Owns every thread's buffer for one run.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// A new buffer for one thread; stays owned by the tracer.
  SpanBuffer& buffer(std::size_t max_spans = 1u << 20) {
    buffers_.push_back(std::make_unique<SpanBuffer>(
        static_cast<int>(buffers_.size()), enabled_, max_spans));
    return *buffers_.back();
  }

  /// Durations (ns) of every span named `name`, divided by its call count.
  [[nodiscard]] std::vector<double> per_call_ns(const std::string& name) const;
  /// Sum of (end - start) over spans named `name`, in seconds.
  [[nodiscard]] double total_s(const std::string& name) const;
  /// Total calls covered by spans named `name`.
  [[nodiscard]] std::uint64_t calls(const std::string& name) const;
  [[nodiscard]] std::uint64_t span_count() const;
  /// Spans not recorded because a buffer was full.
  [[nodiscard]] std::uint64_t dropped() const;

  /// Writes Chrome trace_event JSON (load in chrome://tracing or Perfetto).
  /// Returns false if the file cannot be written.
  bool write_chrome_json(const std::string& path,
                         const std::string& stamp_json) const;

 private:
  bool enabled_;
  std::vector<std::unique_ptr<SpanBuffer>> buffers_;
};

}  // namespace pb
