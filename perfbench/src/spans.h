// In-memory span recorder for the traced run.
//
// The traced run wraps each public call it re-drives in a span (name,
// start, end, parent) tagged with one run id. Spans stay in memory and are
// written at exit as Chrome trace-event JSON that `itm obs trace` reads.
// A layer's self time is its spans' durations minus the part of each
// interval its child spans cover.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "obs/resource.h"

namespace perfbench {

class SpanRecorder {
 public:
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  struct Span {
    std::string name;
    std::size_t parent = kNoParent;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    [[nodiscard]] std::uint64_t duration_ns() const {
      return end_ns - start_ns;
    }
  };

  explicit SpanRecorder(std::uint64_t run_id);

  // Opens a span as a child of the innermost open span; returns its index.
  std::size_t open(std::string name);
  void close(std::size_t index);

  // Adds an already-measured span (tests build synthetic trees this way).
  std::size_t add(std::string name, std::size_t parent, std::uint64_t start_ns,
                  std::uint64_t end_ns);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::uint64_t run_id() const { return run_id_; }

  // Sum of durations of every span named `name`, in seconds.
  [[nodiscard]] double total_s(const std::string& name) const;
  // Self time per span name, in seconds: duration minus the union of the
  // child intervals, clipped to the span.
  [[nodiscard]] std::map<std::string, double> self_s() const;

  // Chrome trace-event JSON ("X" events; args carry depth, span id, parent
  // id and run id).
  void write_chrome_trace(std::ostream& os) const;

  // RAII span.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, std::string name)
        : recorder_(&recorder), index_(recorder.open(std::move(name))) {}
    ~Scope() { recorder_->close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;
    std::size_t index_;
  };

 private:
  std::uint64_t run_id_;
  itm::obs::Stopwatch clock_;  // span times are nanoseconds since construction
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

}  // namespace perfbench
