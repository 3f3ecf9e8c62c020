// What one benchmark run prints: metrics, a self-description, and the
// attempted/failed operation counts.
#pragma once

#include <cmath>
#include <cstdint>
#include <map>
#include <ostream>
#include <sstream>
#include <string>

namespace perfbench {

class Report {
 public:
  // An end-to-end metric (printed by untraced runs).
  void metric(const std::string& name, double value, const std::string& unit) {
    end_to_end_[name] = {value, unit};
  }
  // A per-layer metric (printed by traced runs).
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer_[name] = {value, unit};
  }

  // Self-description entries (seed, shape, thread counts, sample counts).
  void info(const std::string& key, const std::string& value) {
    info_[key] = quoted(value);
  }
  void info(const std::string& key, double value) { info_[key] = number(value); }

  // Counts operations: `ok` false is a failure.
  void op(bool ok, std::uint64_t n = 1) {
    attempted_ += n;
    if (!ok) failed_ += n;
  }
  void ops(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  void fail(const std::string& why) {
    ++attempted_;
    ++failed_;
    if (first_failure_.empty()) first_failure_ = why;
  }
  void note_failure(const std::string& why) {
    if (first_failure_.empty() && !why.empty()) first_failure_ = why;
  }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

  // Human-readable lines, then the run record, then the result object as
  // the last line: end-to-end metrics, or per-layer ones when `traced`.
  void print(std::ostream& os, bool traced) const {
    for (const auto* group : {&end_to_end_, &per_layer_}) {
      for (const auto& [name, m] : *group) {
        os << "  " << name << " = " << number(m.value) << " " << m.unit << "\n";
      }
    }
    os << "  attempted = " << attempted_ << ", failed = " << failed_ << "\n";
    if (!first_failure_.empty()) os << "  first failure: " << first_failure_ << "\n";
    os << "{\"run\": {";
    bool first = true;
    for (const auto& [key, value] : info_) {
      os << (first ? "" : ", ") << "\"" << key << "\": " << value;
      first = false;
    }
    os << "}}\n";
    os << "{\"correct\": " << (failed_ == 0 && attempted_ > 0 ? "true" : "false")
       << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << ", \"metrics\": {";
    first = true;
    for (const auto& [name, m] : traced ? per_layer_ : end_to_end_) {
      os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << number(m.value)
         << ", \"unit\": \"" << m.unit << "\"}";
      first = false;
    }
    os << "}}\n";
  }

 private:
  struct Metric {
    double value;
    std::string unit;
  };

  static std::string quoted(const std::string& text) {
    std::string out = "\"";
    for (const char c : text) {
      if (c == '"' || c == '\\') out += '\\';
      out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
    }
    return out + "\"";
  }

  static std::string number(double v) {
    if (!std::isfinite(v)) return "0";
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
  }

  std::map<std::string, Metric> end_to_end_;
  std::map<std::string, Metric> per_layer_;
  std::map<std::string, std::string> info_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::string first_failure_;
};

}  // namespace perfbench
