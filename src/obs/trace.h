// Span-based tracing of the pipeline, exportable as Chrome trace-event JSON.
//
// A Span measures one named region of work: wall time always (steady-clock
// nanoseconds relative to the tracer's epoch), simulated time optionally
// (stages that run "at" a SimTime, like cache-probe sweeps, tag their spans
// with it). Spans nest per thread — the tracer tracks a per-thread depth so
// exports and tests can check containment — and may be opened from executor
// workers; recording is mutex-serialized and cheap relative to any span
// worth tracing.
//
// Wall durations are inherently nondeterministic, so traces live entirely in
// the wall-clock half of the determinism split (DESIGN.md decision #7): the
// trace file is never diffed across thread counts, only the metrics JSON is.
//
// The exported JSON is the Chrome trace-event format (object form, complete
// "X" events, microsecond timestamps), loadable in Perfetto / chrome://tracing.
//
//   ITM_SPAN("map.tls_scan");             // RAII, closes at scope exit
//   ITM_SPAN_AT("probe.sweep", sim_now);  // tagged with simulated time
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "net/sim_time.h"

namespace itm::obs {

struct TraceEvent {
  std::string name;
  // Stable small id per OS thread (assignment order is scheduling-dependent;
  // the trace is wall-clock data, so that is fine).
  std::uint32_t tid = 0;
  std::uint64_t start_ns = 0;     // relative to the tracer's epoch
  std::uint64_t duration_ns = 0;
  std::uint32_t depth = 0;        // nesting depth on its thread at open
  std::optional<SimTime> sim_at;  // simulated time the span ran at
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void clear();

  // Snapshot of all closed spans, sorted by (start_ns, tid) so output order
  // does not depend on close order.
  [[nodiscard]] std::vector<TraceEvent> events() const;

  // Total wall seconds across all closed spans with this name (the source
  // of truth behind core::MapBuildTimings).
  [[nodiscard]] double total_seconds(std::string_view name) const;

  [[nodiscard]] std::size_t span_count() const;

  // Chrome trace-event JSON: {"displayTimeUnit": "ms", "traceEvents": [...]}.
  void write_chrome_trace(std::ostream& os) const;

 private:
  friend class Span;

  [[nodiscard]] std::uint64_t now_ns() const;
  void record(TraceEvent event);

  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
};

// The current tracer (innermost live ScopedTracer, else a process-global
// default that keeps no events). Same scoping rules as obs::metrics().
[[nodiscard]] Tracer& tracer();

class ScopedTracer {
 public:
  explicit ScopedTracer(Tracer& tracer);
  ~ScopedTracer();
  ScopedTracer(const ScopedTracer&) = delete;
  ScopedTracer& operator=(const ScopedTracer&) = delete;

 private:
  Tracer* previous_;
};

// RAII span over the current tracer. Captures the tracer at construction, so
// the event lands in the tracer that was current when the work started.
class Span {
 public:
  explicit Span(std::string_view name,
                std::optional<SimTime> sim_at = std::nullopt);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Closes the span now and returns its wall duration in seconds (0 on
  // repeat calls). The destructor closes implicitly; call close() when the
  // duration feeds a summary (e.g. the MapBuildTimings view).
  double close();

 private:
  Tracer* tracer_;
  std::string name_;
  std::uint64_t start_ns_;
  std::uint32_t depth_;
  std::optional<SimTime> sim_at_;
  bool open_ = true;
};

#define ITM_OBS_CONCAT2(a, b) a##b
#define ITM_OBS_CONCAT(a, b) ITM_OBS_CONCAT2(a, b)
#define ITM_SPAN(name) \
  ::itm::obs::Span ITM_OBS_CONCAT(itm_span_, __LINE__)(name)
#define ITM_SPAN_AT(name, sim_at) \
  ::itm::obs::Span ITM_OBS_CONCAT(itm_span_, __LINE__)(name, sim_at)

}  // namespace itm::obs
