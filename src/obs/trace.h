// Lightweight span tracing: RAII timers that feed latency histograms and
// optionally emit Chrome trace_event-format JSON for offline flamegraph
// viewing (chrome://tracing, Perfetto, speedscope).
//
// Tracing is opt-in via the FDD_TRACE environment variable:
//   FDD_TRACE=1            write fdd_trace.json in the working directory
//   FDD_TRACE=/path/x.json write there
// When unset (the normal case) a span costs one clock read and one
// histogram record; when no histogram is attached either, it costs nothing.
//
// The output is a strict-JSON trace_event array — one event object per line
// ("JSON lines" inside the array), each a complete ("ph":"X") event with
// microsecond timestamps relative to process start. The array is properly
// closed when the process exits (or TraceWriter::close() runs), so standard
// JSON parsers load it without errors; trace viewers also accept a
// crash-truncated file, per the trace_event spec.
#pragma once

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>

#include "obs/metrics.h"

namespace freqdedup::obs {

/// Microseconds since process start (steady clock).
uint64_t nowMicros() noexcept;

class TraceWriter {
 public:
  /// Opens `path` and writes the array header. ok() is false (and every
  /// emit a no-op) when the file could not be opened.
  explicit TraceWriter(const std::string& path);
  ~TraceWriter();
  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  [[nodiscard]] bool ok() const { return file_ != nullptr; }

  /// One complete ("ph":"X") event. `name` and `category` must be plain
  /// identifiers (no JSON escaping is applied).
  void emitComplete(std::string_view name, std::string_view category,
                    uint64_t tsMicros, uint64_t durMicros);

  /// Closes the JSON array and the file. Idempotent; the destructor calls
  /// it, and the process-wide writer is destroyed at exit.
  void close();

  /// The process-wide writer configured by FDD_TRACE, or nullptr when
  /// tracing is off. The env var is read once, on first call.
  static TraceWriter* global();

 private:
  std::mutex mu_;
  FILE* file_ = nullptr;
};

/// RAII span: times a scope, records the elapsed microseconds into an
/// optional histogram, and emits a trace event when FDD_TRACE is active.
/// Move-free, scope-bound by design.
class ObsSpan {
 public:
  explicit ObsSpan(Histogram* latencyMicros, const char* name,
                   const char* category = "fdd")
      : hist_(latencyMicros),
        name_(name),
        category_(category),
        writer_(TraceWriter::global()) {
    if (hist_ != nullptr || writer_ != nullptr) start_ = nowMicros();
  }

  ObsSpan(const ObsSpan&) = delete;
  ObsSpan& operator=(const ObsSpan&) = delete;
  ~ObsSpan() { finish(); }

  /// Ends the span early (idempotent) and returns its duration in
  /// microseconds (0 when neither a histogram nor tracing is attached).
  uint64_t finish();

 private:
  Histogram* hist_;
  const char* name_;
  const char* category_;
  TraceWriter* writer_;
  uint64_t start_ = 0;
  bool done_ = false;
  uint64_t elapsed_ = 0;
};

}  // namespace freqdedup::obs
