#include "obs/trace.h"

#include <algorithm>
#include <atomic>

namespace itm::obs {

namespace {

std::atomic<std::uint32_t> g_next_tid{0};

std::uint32_t this_thread_tid() {
  thread_local const std::uint32_t tid =
      g_next_tid.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

// Per-thread span nesting depth (spans are strictly scoped, so a plain
// counter suffices).
thread_local std::uint32_t tl_depth = 0;

}  // namespace

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

std::uint64_t Tracer::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void Tracer::record(TraceEvent event) {
  const std::lock_guard lock(mutex_);
  events_.push_back(std::move(event));
}

void Tracer::clear() {
  const std::lock_guard lock(mutex_);
  events_.clear();
}

std::vector<TraceEvent> Tracer::events() const {
  std::vector<TraceEvent> out;
  {
    const std::lock_guard lock(mutex_);
    out = events_;
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.tid < b.tid;
            });
  return out;
}

double Tracer::total_seconds(std::string_view name) const {
  const std::lock_guard lock(mutex_);
  std::uint64_t total_ns = 0;
  for (const auto& event : events_) {
    if (event.name == name) total_ns += event.duration_ns;
  }
  return static_cast<double>(total_ns) * 1e-9;
}

std::size_t Tracer::span_count() const {
  const std::lock_guard lock(mutex_);
  return events_.size();
}

void Tracer::write_chrome_trace(std::ostream& os) const {
  const auto sorted = events();
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const TraceEvent& event = sorted[i];
    if (i) os << ",";
    // Complete ("X") events; timestamps in integer microseconds to keep the
    // writer locale/format independent.
    os << "\n  {\"name\": \"" << event.name << "\", \"ph\": \"X\", \"pid\": 1"
       << ", \"tid\": " << event.tid << ", \"ts\": " << event.start_ns / 1000
       << ", \"dur\": " << event.duration_ns / 1000 << ", \"args\": {"
       << "\"depth\": " << event.depth;
    if (event.sim_at) os << ", \"sim_time\": " << *event.sim_at;
    os << "}}";
  }
  os << "\n]}\n";
}

namespace {

Tracer& default_tracer() {
  static Tracer instance;
  return instance;
}

std::atomic<Tracer*> g_current{nullptr};

}  // namespace

Tracer& tracer() {
  Tracer* current = g_current.load(std::memory_order_acquire);
  return current != nullptr ? *current : default_tracer();
}

ScopedTracer::ScopedTracer(Tracer& tracer)
    : previous_(g_current.exchange(&tracer, std::memory_order_acq_rel)) {}

ScopedTracer::~ScopedTracer() {
  g_current.store(previous_, std::memory_order_release);
}

Span::Span(std::string_view name, std::optional<SimTime> sim_at)
    : tracer_(&tracer()),
      name_(name),
      start_ns_(tracer_->now_ns()),
      depth_(tl_depth++),
      sim_at_(sim_at) {}

double Span::close() {
  if (!open_) return 0.0;
  open_ = false;
  --tl_depth;
  TraceEvent event;
  event.name = name_;
  event.tid = this_thread_tid();
  event.start_ns = start_ns_;
  event.duration_ns = tracer_->now_ns() - start_ns_;
  event.depth = depth_;
  event.sim_at = sim_at_;
  const double seconds = static_cast<double>(event.duration_ns) * 1e-9;
  // With no tracer installed a span only times itself. The process-global
  // default keeps no events: nothing exports it, and a long-running server
  // opens spans for every batch it answers.
  if (tracer_ != &default_tracer()) tracer_->record(std::move(event));
  return seconds;
}

Span::~Span() { close(); }

}  // namespace itm::obs
