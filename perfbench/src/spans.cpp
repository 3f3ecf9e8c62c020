#include "spans.h"

#include <algorithm>
#include <utility>

namespace perfbench {

SpanRecorder::SpanRecorder(std::uint64_t run_id) : run_id_(run_id) {}

std::size_t SpanRecorder::open(std::string name) {
  const std::size_t parent = open_.empty() ? kNoParent : open_.back();
  const std::uint64_t now = clock_.elapsed_ns();
  const std::size_t index = add(std::move(name), parent, now, now);
  open_.push_back(index);
  return index;
}

void SpanRecorder::close(std::size_t index) {
  spans_[index].end_ns = clock_.elapsed_ns();
  // Spans close in LIFO order; tolerate a scope closed out of order.
  const auto it = std::find(open_.begin(), open_.end(), index);
  if (it != open_.end()) open_.erase(it, open_.end());
}

std::size_t SpanRecorder::add(std::string name, std::size_t parent,
                              std::uint64_t start_ns, std::uint64_t end_ns) {
  spans_.push_back(Span{std::move(name), parent, start_ns, end_ns});
  return spans_.size() - 1;
}

double SpanRecorder::total_s(const std::string& name) const {
  std::uint64_t total = 0;
  for (const Span& span : spans_) {
    if (span.name == name) total += span.duration_ns();
  }
  return static_cast<double>(total) * 1e-9;
}

std::map<std::string, double> SpanRecorder::self_s() const {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(
      spans_.size());
  for (const Span& span : spans_) {
    if (span.parent != kNoParent) {
      children[span.parent].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    // Union of child intervals clipped to [start, end].
    std::uint64_t covered = 0;
    std::uint64_t cursor = span.start_ns;
    for (auto [lo, hi] : intervals) {
      lo = std::max(lo, cursor);
      hi = std::min(hi, span.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    self[span.name] += static_cast<double>(span.duration_ns() - covered) * 1e-9;
  }
  return self;
}

void SpanRecorder::write_chrome_trace(std::ostream& os) const {
  std::vector<std::size_t> depth(spans_.size(), 0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent != kNoParent) depth[i] = depth[spans_[i].parent] + 1;
  }
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    os << (i ? "," : "") << "\n  {\"name\": \"" << span.name
       << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
       << span.start_ns / 1000 << ", \"dur\": " << span.duration_ns() / 1000
       << ", \"args\": {\"depth\": " << depth[i] << ", \"span\": " << i
       << ", \"parent\": "
       << (span.parent == kNoParent ? std::string("null")
                                    : std::to_string(span.parent))
       << ", \"run\": " << run_id_ << "}}";
  }
  os << "\n]}\n";
}

}  // namespace perfbench
