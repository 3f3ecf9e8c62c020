#include "obs/metrics.h"

#include <cstdio>
#include <stdexcept>

namespace itm::obs {

MetricsRegistry::Entry& MetricsRegistry::find_or_create(std::string_view name,
                                                        Kind kind,
                                                        Determinism det) {
  const std::lock_guard lock(mutex_);
  const auto it = entries_.find(name);
  if (it != entries_.end()) {
    if (it->second.kind != kind) {
      throw std::logic_error("MetricsRegistry: metric '" + std::string(name) +
                             "' already registered with a different type");
    }
    return it->second;
  }
  Entry entry;
  entry.kind = kind;
  entry.det = det;
  switch (kind) {
    case Kind::kCounter: entry.counter = std::make_unique<Counter>(); break;
    case Kind::kGauge: entry.gauge = std::make_unique<Gauge>(); break;
    case Kind::kQuantile:
      entry.quantile = std::make_unique<QuantileHistogram>();
      break;
  }
  return entries_.emplace(std::string(name), std::move(entry)).first->second;
}

Counter& MetricsRegistry::counter(std::string_view name, Determinism det) {
  return *find_or_create(name, Kind::kCounter, det).counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name, Determinism det) {
  return *find_or_create(name, Kind::kGauge, det).gauge;
}

QuantileHistogram& MetricsRegistry::quantile(std::string_view name,
                                             Determinism det) {
  if (det == Determinism::kDeterministic) {
    throw std::logic_error("MetricsRegistry: quantile '" + std::string(name) +
                           "' must be wall-clock: order statistics of "
                           "wall-clock samples are never deterministic");
  }
  return *find_or_create(name, Kind::kQuantile, det).quantile;
}

void MetricsRegistry::clear() {
  const std::lock_guard lock(mutex_);
  entries_.clear();
}

std::size_t MetricsRegistry::size() const {
  const std::lock_guard lock(mutex_);
  return entries_.size();
}

std::optional<std::uint64_t> MetricsRegistry::counter_value(
    std::string_view name) const {
  const std::lock_guard lock(mutex_);
  const auto it = entries_.find(name);
  if (it == entries_.end() || it->second.kind != Kind::kCounter) {
    return std::nullopt;
  }
  return it->second.counter->value();
}

std::optional<std::int64_t> MetricsRegistry::gauge_value(
    std::string_view name) const {
  const std::lock_guard lock(mutex_);
  const auto it = entries_.find(name);
  if (it == entries_.end() || it->second.kind != Kind::kGauge) {
    return std::nullopt;
  }
  return it->second.gauge->value();
}

namespace {

// JSON string escaping for metric names (kept ASCII by convention, but the
// writer stays safe for arbitrary content).
std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

void MetricsRegistry::write_json(std::ostream& os, Export what) const {
  const std::lock_guard lock(mutex_);
  const auto write_section = [&](Determinism det, const char* title,
                                 const char* indent) {
    // The deterministic section's bytes are pinned by golden tests and the
    // cross-thread-count diff gate; "quantiles" only ever appears in the
    // wall-clock section (quantile registration enforces kWallClock).
    const std::vector<Kind> kinds =
        det == Determinism::kWallClock
            ? std::vector<Kind>{Kind::kCounter, Kind::kGauge, Kind::kQuantile}
            : std::vector<Kind>{Kind::kCounter, Kind::kGauge};
    os << indent << "\"" << title << "\": {\n";
    for (const Kind kind : kinds) {
      const char* kind_name = kind == Kind::kCounter ? "counters"
                              : kind == Kind::kGauge ? "gauges"
                                                     : "quantiles";
      os << indent << "  \"" << kind_name << "\": {";
      bool first = true;
      for (const auto& [name, entry] : entries_) {
        if (entry.kind != kind || entry.det != det) continue;
        if (!first) os << ",";
        first = false;
        os << "\n" << indent << "    \"" << json_escape(name) << "\": ";
        switch (kind) {
          case Kind::kCounter: os << entry.counter->value(); break;
          case Kind::kGauge: os << entry.gauge->value(); break;
          case Kind::kQuantile: {
            const QuantileHistogram& qh = *entry.quantile;
            const auto fmt = [](double v) {
              char buf[32];
              std::snprintf(buf, sizeof buf, "%.1f", v);
              return std::string(buf);
            };
            os << "{\"count\": " << qh.count() << ", \"sum\": " << qh.sum()
               << ", \"max\": " << qh.max() << ", \"mean\": "
               << fmt(qh.mean()) << ", \"p50\": " << fmt(qh.quantile(0.50))
               << ", \"p90\": " << fmt(qh.quantile(0.90))
               << ", \"p99\": " << fmt(qh.quantile(0.99))
               << ", \"p999\": " << fmt(qh.quantile(0.999)) << "}";
            break;
          }
        }
      }
      if (!first) os << "\n" << indent << "  ";
      os << "}";
      os << (kind == kinds.back() ? "\n" : ",\n");
    }
    os << indent << "}";
  };

  os << "{\n  \"metrics\": {\n";
  write_section(Determinism::kDeterministic, "deterministic", "    ");
  if (what == Export::kAll) {
    os << ",\n";
    write_section(Determinism::kWallClock, "wall_clock", "    ");
  }
  os << "\n  }\n}\n";
}

namespace {

MetricsRegistry& default_registry() {
  static MetricsRegistry instance;
  return instance;
}

// The innermost installed registry. Release/acquire pairs with the
// executor's batch hand-off, so workers inside a scoped batch observe the
// installing store.
std::atomic<MetricsRegistry*> g_current{nullptr};

}  // namespace

MetricsRegistry& metrics() {
  MetricsRegistry* current = g_current.load(std::memory_order_acquire);
  return current != nullptr ? *current : default_registry();
}

ScopedMetrics::ScopedMetrics(MetricsRegistry& registry)
    : previous_(g_current.exchange(&registry, std::memory_order_acq_rel)) {}

ScopedMetrics::~ScopedMetrics() {
  g_current.store(previous_, std::memory_order_release);
}

}  // namespace itm::obs
