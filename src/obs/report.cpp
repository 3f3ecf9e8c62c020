#include "obs/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/json.h"

namespace itm::obs {

namespace {

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

// One exported value: the double that the bands and the summary read, and
// the literal that the exact class compares.
struct Leaf {
  double number = 0;
  std::string literal;
};
using Leaves = std::map<std::string, Leaf, std::less<>>;

// One exported metrics file, flattened to name -> value with the
// determinism class retained. Quantile sub-fields flatten to
// "<name>.<field>" leaves.
struct FlatMetrics {
  Leaves deterministic;
  Leaves wall;
};

void flatten_section(const JsonValue& section, Leaves& out) {
  const auto leaf = [](const JsonValue& value) {
    return Leaf{value.number(), value.literal()};
  };
  for (const char* group : {"counters", "gauges", "quantiles"}) {
    const JsonValue* values = section.find(group);
    if (values == nullptr || !values->is_object()) continue;
    for (const auto& [name, value] : values->object()) {
      if (value.is_number()) {
        out[name] = leaf(value);
      } else if (value.is_object()) {
        for (const auto& [field, sub] : value.object()) {
          if (sub.is_number()) out[name + "." + field] = leaf(sub);
        }
      }
    }
  }
}

std::optional<FlatMetrics> load_metrics(const std::string& path,
                                        std::ostream& err) {
  const auto text = read_file(path);
  if (!text) {
    err << "itm obs: cannot read '" << path << "'\n";
    return std::nullopt;
  }
  std::string parse_error;
  const auto doc = parse_json(*text, &parse_error);
  if (!doc) {
    err << "itm obs: '" << path << "' is not valid JSON: " << parse_error
        << "\n";
    return std::nullopt;
  }
  const JsonValue* deterministic = doc->find_path("metrics.deterministic");
  if (deterministic == nullptr) {
    err << "itm obs: '" << path << "' has no metrics.deterministic section\n";
    return std::nullopt;
  }
  FlatMetrics flat;
  flatten_section(*deterministic, flat.deterministic);
  if (const JsonValue* wall = doc->find_path("metrics.wall_clock")) {
    flatten_section(*wall, flat.wall);
  }
  return flat;
}

std::string human_bytes(double bytes) {
  char buf[32];
  const char* sign = bytes < 0 ? "-" : "+";
  const double mag = std::fabs(bytes);
  if (mag >= 1024.0 * 1024.0 * 1024.0) {
    std::snprintf(buf, sizeof buf, "%s%.2f GiB", sign,
                  mag / (1024.0 * 1024.0 * 1024.0));
  } else if (mag >= 1024.0 * 1024.0) {
    std::snprintf(buf, sizeof buf, "%s%.1f MiB", sign, mag / (1024.0 * 1024.0));
  } else {
    std::snprintf(buf, sizeof buf, "%s%.0f KiB", sign, mag / 1024.0);
  }
  return buf;
}

// Stage rows discovered from "<stage>.wall_us" wall gauges (StageScope's
// publication contract).
struct StageRow {
  std::string name;
  double wall_s = 0;
  std::optional<double> rss_delta;
  std::optional<double> imbalance;
};

std::vector<StageRow> collect_stages(const FlatMetrics& flat) {
  std::vector<StageRow> rows;
  constexpr std::string_view kWallSuffix = ".wall_us";
  for (const auto& [name, leaf] : flat.wall) {
    if (name.size() <= kWallSuffix.size() ||
        name.substr(name.size() - kWallSuffix.size()) != kWallSuffix) {
      continue;
    }
    const std::string stage = name.substr(0, name.size() - kWallSuffix.size());
    StageRow row;
    row.name = stage;
    row.wall_s = leaf.number / 1e6;
    if (const auto it = flat.wall.find(stage + ".rss_delta_bytes");
        it != flat.wall.end()) {
      row.rss_delta = it->second.number;
    }
    if (const auto it = flat.wall.find(stage + ".imbalance_x1000");
        it != flat.wall.end()) {
      row.imbalance = it->second.number / 1000.0;
    }
    rows.push_back(std::move(row));
  }
  // Longest stage first: the critical path is what the reader came for.
  std::sort(rows.begin(), rows.end(), [](const StageRow& a, const StageRow& b) {
    if (a.wall_s != b.wall_s) return a.wall_s > b.wall_s;
    return a.name < b.name;
  });
  return rows;
}

void print_summary(const FlatMetrics& flat, std::ostream& out) {
  const auto stages = collect_stages(flat);
  if (!stages.empty()) {
    out << "stage                         wall_s    rss_delta    imbalance\n";
    for (const auto& row : stages) {
      char line[160];
      char imbalance[24];
      if (row.imbalance) {
        std::snprintf(imbalance, sizeof imbalance, "%.2fx", *row.imbalance);
      } else {
        std::snprintf(imbalance, sizeof imbalance, "-");
      }
      std::snprintf(line, sizeof line, "%-28s %8.3f %12s %12s\n",
                    row.name.c_str(), row.wall_s,
                    row.rss_delta ? human_bytes(*row.rss_delta).c_str() : "-",
                    imbalance);
      out << line;
    }
  } else {
    out << "(no stage wall gauges found — run with --metrics-full to include "
           "wall-clock data)\n";
  }

  // Latency quantiles on record (flattened "<name>.p50" leaves).
  bool quantile_header = false;
  for (const auto& [name, p50] : flat.wall) {
    constexpr std::string_view kP50 = ".p50";
    if (name.size() <= kP50.size() ||
        name.substr(name.size() - kP50.size()) != kP50) {
      continue;
    }
    const std::string base = name.substr(0, name.size() - kP50.size());
    const auto leaf = [&](const char* field) -> double {
      const auto it = flat.wall.find(base + field);
      return it == flat.wall.end() ? 0 : it->second.number;
    };
    if (!quantile_header) {
      out << "\nlatency quantiles (us)\n";
      quantile_header = true;
    }
    char line[200];
    std::snprintf(line, sizeof line,
                  "%-28s p50 %9.1f  p90 %9.1f  p99 %9.1f  p999 %9.1f  "
                  "(n=%.0f)\n",
                  base.c_str(), p50.number, leaf(".p90"), leaf(".p99"),
                  leaf(".p999"), leaf(".count"));
    out << line;
  }

  // Top deterministic counters by value: the "what did this run do" recap,
  // printed as written (a double would round a 64-bit hash).
  std::vector<std::pair<std::string, Leaf>> counters(
      flat.deterministic.begin(), flat.deterministic.end());
  std::sort(counters.begin(), counters.end(),
            [](const auto& a, const auto& b) {
              if (a.second.number != b.second.number) {
                return a.second.number > b.second.number;
              }
              return a.first < b.first;
            });
  out << "\ntop counters\n";
  const std::size_t top = std::min<std::size_t>(10, counters.size());
  for (std::size_t i = 0; i < top; ++i) {
    char line[160];
    std::snprintf(line, sizeof line, "%-44s %16s\n",
                  counters[i].first.c_str(),
                  counters[i].second.literal.c_str());
    out << line;
  }
}

struct DiffStats {
  std::size_t compared = 0;
  std::size_t only_current = 0;
  std::size_t only_baseline = 0;
  std::vector<std::string> regressions;
};

// Compares one section key by key. `check` returns why a value pair
// regressed, or nullopt. A key only in the current run is a new metric; a
// key only in the baseline is a regression, since a run that stops
// reporting a value must not pass its gate.
template <typename Check>
void diff_section(const Leaves& current, const Leaves& baseline,
                  std::string_view section, DiffStats& stats,
                  const Check& check) {
  const auto regress = [&](const std::string& name, const std::string& why) {
    stats.regressions.push_back(std::string(section) + ' ' + name + ": " +
                                why);
  };
  for (const auto& [name, leaf] : current) {
    const auto it = baseline.find(name);
    if (it == baseline.end()) {
      ++stats.only_current;
      continue;
    }
    ++stats.compared;
    if (const std::optional<std::string> why = check(leaf, it->second)) {
      regress(name, *why);
    }
  }
  for (const auto& [name, leaf] : baseline) {
    if (current.contains(name)) continue;
    ++stats.only_baseline;
    regress(name, "missing, baseline " + leaf.literal);
  }
}

// Deterministic half: exact match, literal for literal, so integers above
// 2^53 (a 64-bit answer hash) are not rounded into agreement. Any
// difference between two runs of the same seed and options is a defect.
std::optional<std::string> check_exact(const Leaf& current,
                                       const Leaf& baseline) {
  if (current.literal == baseline.literal) return std::nullopt;
  return current.literal + " vs baseline " + baseline.literal +
         " (exact class)";
}

// Wall-clock half: a ratio band around a positive baseline. Values where
// both sides are under the noise floor never flag. A current value <= 0
// lies below every band around a positive baseline, so it flags. A
// non-positive baseline (a signed RSS delta, a zero) defines no band; its
// key is only checked for presence.
std::optional<std::string> check_band(const Leaf& current,
                                      const Leaf& baseline, double tolerance,
                                      double noise_floor) {
  const double value = current.number;
  const double base = baseline.number;
  if (std::fabs(value) < noise_floor && std::fabs(base) < noise_floor) {
    return std::nullopt;
  }
  if (base <= 0) return std::nullopt;
  if (value <= base * tolerance && value >= base / tolerance) {
    return std::nullopt;
  }
  char line[128];
  std::snprintf(line, sizeof line, "%.6g vs baseline %.6g (x%.1f band)",
                value, base, tolerance);
  return line;
}

}  // namespace

int run_obs_report(const ObsReportOptions& options, std::ostream& out,
                   std::ostream& err) {
  const auto current = load_metrics(options.metrics_path, err);
  if (!current) return 4;

  out << "== itm obs report: " << options.metrics_path << " ==\n";
  print_summary(*current, out);

  if (options.baseline_path.empty()) return 0;

  const auto baseline = load_metrics(options.baseline_path, err);
  if (!baseline) return 4;

  DiffStats stats;
  diff_section(current->deterministic, baseline->deterministic,
               "deterministic", stats, check_exact);
  diff_section(current->wall, baseline->wall, "wall_clock", stats,
               [&options](const Leaf& value, const Leaf& base) {
                 return check_band(value, base, options.wall_tolerance,
                                   options.noise_floor);
               });

  out << "\n== diff vs " << options.baseline_path << " ==\n";
  out << "compared " << stats.compared << " metrics (" << stats.only_current
      << " only in current, " << stats.only_baseline << " only in baseline)\n";
  if (stats.regressions.empty()) {
    out << "OK: within tolerance\n";
    return 0;
  }
  for (const auto& regression : stats.regressions) {
    out << "REGRESSION: " << regression << "\n";
  }
  out << stats.regressions.size() << " regression(s)\n";
  return 1;
}

int run_obs_trace(const std::string& trace_path, std::ostream& out,
                  std::ostream& err) {
  const auto text = read_file(trace_path);
  if (!text) {
    err << "itm obs: cannot read '" << trace_path << "'\n";
    return 4;
  }
  std::string parse_error;
  const auto doc = parse_json(*text, &parse_error);
  if (!doc) {
    err << "itm obs: '" << trace_path << "' is not valid JSON: " << parse_error
        << "\n";
    return 4;
  }
  const JsonValue* events = doc->find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    err << "itm obs: '" << trace_path << "' has no traceEvents array\n";
    return 4;
  }

  struct Ev {
    std::string name;
    double tid = 0;
    double ts = 0;
    double dur = 0;
    double depth = 0;
  };
  std::vector<Ev> spans;
  spans.reserve(events->array().size());
  for (const JsonValue& raw : events->array()) {
    if (!raw.is_object()) continue;
    Ev ev;
    if (const JsonValue* name = raw.find("name"); name && name->is_string()) {
      ev.name = name->string();
    }
    ev.tid = raw.number_at("tid").value_or(0);
    ev.ts = raw.number_at("ts").value_or(0);
    ev.dur = raw.number_at("dur").value_or(0);
    if (const JsonValue* args = raw.find("args")) {
      ev.depth = args->number_at("depth").value_or(0);
    }
    spans.push_back(std::move(ev));
  }

  // Per-name aggregates.
  struct NameStats {
    std::size_t count = 0;
    double total_us = 0;
    double max_us = 0;
  };
  std::map<std::string, NameStats, std::less<>> by_name;
  for (const Ev& ev : spans) {
    NameStats& stats = by_name[ev.name];
    ++stats.count;
    stats.total_us += ev.dur;
    stats.max_us = std::max(stats.max_us, ev.dur);
  }

  out << "== itm obs trace: " << trace_path << " (" << spans.size()
      << " spans) ==\n";
  out << "span                              count     total_ms      max_ms\n";
  for (const auto& [name, stats] : by_name) {
    char line[160];
    std::snprintf(line, sizeof line, "%-32s %6zu %12.3f %11.3f\n", name.c_str(),
                  stats.count, stats.total_us / 1000.0, stats.max_us / 1000.0);
    out << line;
  }

  // Stage-level analysis: depth-0 spans are stages; spans contained in a
  // stage's [ts, ts+dur) window attribute to it. Per-tid busy time inside
  // the window gives the shard-imbalance view (max/mean over active tids).
  out << "\nstage critical path\n";
  out << "stage                           wall_ms   child_ms  tids  "
         "imbalance\n";
  bool any_stage = false;
  for (const Ev& stage : spans) {
    if (stage.depth != 0 || stage.dur <= 0) continue;
    // Worker-thread shard spans are depth 0 on their own tid; they are the
    // *children* in this analysis, not stages.
    if (stage.name == "executor.shard") continue;
    const double begin = stage.ts;
    const double end = stage.ts + stage.dur;
    std::map<double, double> busy_by_tid;
    double child_us = 0;
    for (const Ev& ev : spans) {
      if (&ev == &stage) continue;
      if (ev.ts < begin || ev.ts + ev.dur > end) continue;
      // Only count leaf-ish work once: direct children (depth 1 on the
      // stage's thread) and worker-thread spans (any depth, other tids).
      if (ev.tid == stage.tid && ev.depth != stage.depth + 1) continue;
      child_us += ev.dur;
      busy_by_tid[ev.tid] += ev.dur;
    }
    double max_busy = 0;
    double total_busy = 0;
    for (const auto& [tid, busy] : busy_by_tid) {
      max_busy = std::max(max_busy, busy);
      total_busy += busy;
    }
    char imbalance[24];
    if (busy_by_tid.size() > 1 && total_busy > 0) {
      const double mean = total_busy / static_cast<double>(busy_by_tid.size());
      std::snprintf(imbalance, sizeof imbalance, "%.2fx", max_busy / mean);
    } else {
      std::snprintf(imbalance, sizeof imbalance, "-");
    }
    char line[200];
    std::snprintf(line, sizeof line, "%-28s %10.3f %10.3f %5zu %10s\n",
                  stage.name.c_str(), stage.dur / 1000.0, child_us / 1000.0,
                  busy_by_tid.size(), imbalance);
    out << line;
    any_stage = true;
  }
  if (!any_stage) out << "(no depth-0 spans)\n";
  return 0;
}

}  // namespace itm::obs
