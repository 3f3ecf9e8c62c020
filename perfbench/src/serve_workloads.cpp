#include "serve_workloads.h"

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "client.h"
#include "net/executor.h"
#include "obs/resource.h"
#include "proc.h"
#include "serve/delta.h"
#include "serve/lru_cache.h"
#include "serve/query_engine.h"
#include "serve/server.h"
#include "serve/snapshot_reader.h"
#include "stats.h"
#include "streams.h"

namespace perfbench {

namespace {

using itm::serve::QueryEngine;

constexpr std::uint64_t kWarmSalt = 0x77a2f00d;

// Fixed load shape, chosen by measured steadiness (see perfbench/README.md).
// One closed-loop client thread and a one-thread server, each pinned to a
// CPU of its own; 256 queries in flight.
constexpr std::size_t kInFlight = 256;
constexpr std::size_t kServerThreads = 1;
constexpr std::size_t kCacheSize = 1024;    // server --cache-size, per worker slot
constexpr std::size_t kSlices = 3;          // run slices, each with its own servers
constexpr std::size_t kEpochBuilds = 9;     // in-process builds per slice
constexpr std::size_t kChainLength = 4;     // cyclic delta chain
constexpr std::size_t kSegment = 2000;      // mixed: queries between deltas
constexpr std::size_t kLookupPool = 1u << 17;  // lookups: distinct stream lines
// Latency quantiles are taken per block of this many consecutive answers,
// and the median over blocks is reported.
constexpr std::size_t kLatencyBlock = 2000;

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot read " + path);
  std::ostringstream os;
  os << is.rdbuf();
  return std::move(os).str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << bytes;
  if (!os) throw std::runtime_error("cannot write " + path);
}

// Builds a stream whose expected replies come from the reference engine of
// the chain position each item is answered at.
class PlanBuilder {
 public:
  PlanBuilder(const std::vector<std::unique_ptr<QueryEngine>>& engines,
              const std::vector<std::uint64_t>& checksums)
      : engines_(&engines), memo_(engines.size()) {
    plan_.chain_checksums = checksums;
  }

  void query(std::size_t position, const std::string& line) {
    const auto [it, inserted] =
        memo_[position].try_emplace(line, static_cast<std::uint32_t>(plan_.answers.size()));
    if (inserted) plan_.answers.push_back((*engines_)[position]->answer(line));
    plan_.items.push_back({StreamItem::Kind::kQuery, line, it->second});
  }
  void epoch(std::size_t position) {
    plan_.items.push_back(
        {StreamItem::Kind::kEpoch, "epoch", static_cast<std::uint32_t>(position)});
  }
  // Applies delta `from` -> from + 1 (mod chain length).
  void apply(std::size_t from, const std::string& delta_path) {
    plan_.items.push_back({StreamItem::Kind::kApplyDelta, "apply-delta " + delta_path,
                           static_cast<std::uint32_t>((from + 1) % engines_->size())});
  }
  [[nodiscard]] Plan take() { return std::move(plan_); }

 private:
  const std::vector<std::unique_ptr<QueryEngine>>* engines_;
  std::vector<std::unordered_map<std::string, std::uint32_t>> memo_;
  Plan plan_;
};

// One request/reply exchange on a blocking-mode socket, with a timeout.
bool request(int fd, const std::string& line, std::string* reply, double timeout_s) {
  const std::string out = line + "\n";
  if (::write(fd, out.data(), out.size()) != static_cast<ssize_t>(out.size())) return false;
  reply->clear();
  const itm::obs::Stopwatch watch;
  char c = 0;
  while (watch.elapsed_s() < timeout_s) {
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 100) <= 0) continue;
    const ssize_t n = ::read(fd, &c, 1);
    if (n <= 0) return false;
    if (c == '\n') return true;
    reply->push_back(c);
  }
  return false;
}

struct Launched {
  pid_t pid = -1;
  int fd = -1;
};

// Starts `itm served`, connects and waits for the reply to `stats`.
Launched launch(const ServeInputs& inputs, std::size_t index, int cpu,
                const std::string& expected_stats, double* setup_s, Report& report) {
  const std::string sock = inputs.work_dir + "/served-" + std::to_string(index) + ".sock";
  ::unlink(sock.c_str());
  Launched server;
  const itm::obs::Stopwatch watch;
  server.pid = spawn({inputs.itm, "served", "--snapshot", inputs.snapshot_path, "--listen",
                      sock, "--threads", std::to_string(kServerThreads),
                      "--cache-size", std::to_string(kCacheSize)},
                     inputs.work_dir + "/served.log", cpu);
  while (server.fd < 0 && watch.elapsed_s() < 60.0) {
    server.fd = connect_unix(sock);
    if (server.fd >= 0) break;
    int status = 0;
    if (::waitpid(server.pid, &status, WNOHANG) == server.pid) {
      throw std::runtime_error("itm served exited during start-up (see " + inputs.work_dir +
                               "/served.log)");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  if (server.fd < 0) {
    terminate_and_wait(server.pid, 5.0);
    throw std::runtime_error("itm served did not accept a connection within 60 s");
  }
  std::string reply;
  const bool answered = request(server.fd, "stats", &reply, 30.0);
  *setup_s = watch.elapsed_s();
  if (answered && reply == expected_stats) {
    report.op(true);
  } else {
    report.fail("first reply after launch: '" + reply + "'");
  }
  return server;
}

void stop(Launched& server, Report& report) {
  if (server.fd >= 0) ::close(server.fd);
  server.fd = -1;
  if (terminate_and_wait(server.pid, 10.0)) {
    report.op(true);
  } else {
    report.fail("itm served did not exit 0 after SIGTERM");
  }
}

// Adds a slice's results to the run's.
void append(ClientResult& into, const ClientResult& part) {
  into.attempted += part.attempted;
  into.failed += part.failed;
  into.queries += part.queries;
  into.wall_s += part.wall_s;
  const auto extend = [](std::vector<double>& to, const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  extend(into.query_latency_us, part.query_latency_us);
  extend(into.apply_ms, part.apply_ms);
  extend(into.server_p50_us, part.server_p50_us);
  extend(into.server_p99_us, part.server_p99_us);
  if (into.first_failure.empty()) into.first_failure = part.first_failure;
}

void count(const ClientResult& result, Report& report) {
  report.ops(result.attempted, result.failed);
  report.note_failure(result.first_failure);
}

template <typename F>
double median_ms(std::size_t repeats, F&& f) {
  std::vector<double> ms;
  for (std::size_t i = 0; i < repeats; ++i) {
    const itm::obs::Stopwatch watch;
    f(i);
    ms.push_back(watch.elapsed_s() * 1e3);
  }
  return median(ms);
}

// Hit ratio of a model of the server's answer cache over the answered part
// of the stream. Epoch keeps one LRU per executor slot but exposes no hit
// counts, so the stream is replayed through Epoch::kSlots bare LruCaches of
// the server's capacity: batches of the in-flight size, split by the
// executor's own shard geometry (shard i uses slot i), caches dropped at
// every epoch swap. The server forms batches from what it has buffered, so
// its batches, and hits, can differ.
double replay_cache_hits(const Plan& plan, std::uint64_t items, std::size_t batch,
                         std::size_t capacity) {
  using Cache = itm::serve::LruCache<std::string>;
  std::vector<Cache> slots;
  std::uint64_t hits = 0;
  std::uint64_t lookups = 0;
  const auto reset = [&] {
    for (const Cache& slot : slots) {
      hits += slot.hits();
      lookups += slot.hits() + slot.misses();
    }
    slots.assign(itm::serve::Epoch::kSlots, Cache(capacity));
  };
  reset();
  std::vector<const std::string*> lines;
  const auto flush = [&] {
    itm::net::Executor::serial().parallel_for(
        lines.size(), [&](const itm::net::Executor::Shard& shard) {
          Cache& cache = slots[shard.index];
          for (std::size_t i = shard.begin; i < shard.end; ++i) {
            if (!cache.get(*lines[i])) cache.put(*lines[i], std::string());
          }
        });
    lines.clear();
  };
  for (std::uint64_t i = 0; i < items; ++i) {
    const StreamItem& item = plan.items[i % plan.items.size()];
    if (item.kind != StreamItem::Kind::kQuery) {
      flush();
      if (item.kind == StreamItem::Kind::kApplyDelta) reset();
      continue;
    }
    lines.push_back(&item.line);
    if (lines.size() == batch) flush();
  }
  flush();
  reset();
  return lookups == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(lookups);
}

// Mean in-process answer time (no cache) over `lines`, in microseconds.
double mean_answer_us(const QueryEngine& engine, const std::vector<std::string>& lines) {
  const itm::obs::Stopwatch watch;
  std::size_t bytes = 0;
  for (const std::string& line : lines) bytes += engine.answer(line).size();
  const double us = watch.elapsed_s() * 1e6;
  return bytes == 0 ? 0.0 : us / static_cast<double>(lines.size());
}

// Median p50 and p99 over blocks of kLatencyBlock consecutive samples.
std::pair<double, double> block_quantiles(const std::vector<double>& latency,
                                          std::size_t* blocks) {
  std::vector<double> p50s;
  std::vector<double> p99s;
  for (std::size_t begin = 0; begin + kLatencyBlock <= latency.size(); begin += kLatencyBlock) {
    std::vector<double> block(latency.begin() + static_cast<std::ptrdiff_t>(begin),
                              latency.begin() + static_cast<std::ptrdiff_t>(begin + kLatencyBlock));
    p50s.push_back(*percentile(block, 0.50));
    p99s.push_back(*percentile(block, 0.99));
  }
  *blocks = p99s.size();
  return {median(p50s), median(p99s)};
}

}  // namespace

void run_serve(const ServeInputs& inputs, const ServeSettings& settings,
               bool serve_setup, SpanRecorder* spans, Report& report) {
  // ---- Reference model: the delta chain and one engine per position.
  const std::string bytes = slurp(inputs.snapshot_path);
  std::string error;
  const auto base = itm::serve::read_snapshot(bytes, &error);
  if (!base) throw std::runtime_error("served snapshot does not validate: " + error);
  const std::size_t length = kChainLength;
  const std::vector<std::string> chain = snapshot_chain(*base, inputs.seed, length);
  if (chain[0] == bytes) {
    report.op(true);
  } else {
    report.fail("served snapshot does not re-write byte-identically");
  }
  const std::vector<std::string> deltas = chain_deltas(chain);
  std::vector<std::string> delta_paths;
  std::vector<std::uint64_t> checksums;
  std::vector<itm::serve::SnapshotView> views;
  std::vector<std::unique_ptr<QueryEngine>> engines;
  for (std::size_t k = 0; k < length; ++k) {
    delta_paths.push_back(inputs.work_dir + "/delta-" + std::to_string(k) + ".itmsd");
    write_file(delta_paths.back(), deltas[k]);
    checksums.push_back(itm::serve::snapshot_checksum(chain[k]));
    views.push_back(*itm::serve::borrow_snapshot(chain[k], &error));
  }
  for (const auto& view : views) engines.push_back(std::make_unique<QueryEngine>(view, 0));

  Plan plan;
  {
    PlanBuilder builder(engines, checksums);
    if (settings.mixed) {
      const auto lines = mixed_stream(*base, inputs.seed, length * kSegment);
      for (std::size_t k = 0; k < length; ++k) {
        for (std::size_t i = 0; i < kSegment; ++i) {
          builder.query(k, lines[k * kSegment + i]);
        }
        builder.epoch(k);
        builder.apply(k, delta_paths[k]);
      }
    } else {
      for (const auto& line : lookup_stream(*base, inputs.seed, kLookupPool)) {
        builder.query(0, line);
      }
    }
    plan = builder.take();
  }
  Plan warm_plan;
  {
    PlanBuilder builder(engines, checksums);
    const std::uint64_t warm_seed = inputs.seed ^ kWarmSalt;
    const auto lines = settings.mixed ? mixed_stream(*base, warm_seed, 1u << 15)
                                      : lookup_stream(*base, warm_seed, 1u << 15);
    for (const auto& line : lines) builder.query(0, line);
    warm_plan = builder.take();
  }

  // The client thread and the server each get a CPU of their own.
  const int server_cpu = allowed_cpu(1);
  const int client_cpu = server_cpu >= 0 ? allowed_cpu(0) : -1;
  const ScopedPin pin(client_cpu);

  // An optional `epoch` query, then `passes` whole passes of apply-deltas
  // over the chain from `position`; a whole pass returns to `position`.
  const auto chain_plan = [&](std::size_t position, std::size_t passes, bool epoch_first) {
    PlanBuilder builder(engines, checksums);
    if (epoch_first) builder.epoch(position);
    for (std::size_t j = 0; j < passes * length; ++j) {
      builder.apply((position + j) % length, delta_paths[(position + j) % length]);
    }
    return builder.take();
  };

  // ---- The run is kSlices identical slices, each with its own servers:
  // epoch builds, launches (setup is exec to first reply; the last server
  // of the slice stays up), warm-up, a timed part of seconds / kSlices, an
  // `epoch` query and, on lookups, one idle pass of apply-deltas. Host
  // speed drifts over seconds and the server's peak RSS depends on its
  // allocator's history, so each metric is taken over all slices.
  const std::string expected_stats = engines[0]->answer("stats");
  const std::size_t launches = std::max<std::size_t>(1, settings.launches / kSlices);
  std::vector<double> setup;
  std::vector<double> build_s;
  std::vector<double> hwm_mb;
  ClientResult timed;
  ClientResult post;
  ProcSample busy;  // server counters summed over the timed parts
  double client_cpu_s = 0.0;
  for (std::size_t slice = 0; slice < kSlices; ++slice) {
    for (std::size_t i = 0; serve_setup && i < kEpochBuilds; ++i) {
      std::string copy = bytes;
      const itm::obs::Stopwatch watch;
      const auto epoch = itm::serve::Epoch::from_bytes(i, std::move(copy), kCacheSize, &error);
      build_s.push_back(watch.elapsed_s());
      report.op(epoch != nullptr);
    }
    Launched server;
    for (std::size_t i = 0; i < launches; ++i) {
      double setup_s = 0.0;
      server = launch(inputs, slice * launches + i, server_cpu, expected_stats, &setup_s, report);
      setup.push_back(setup_s);
      if (i + 1 < launches) stop(server, report);
    }

    std::uint64_t epoch_id = 0;
    const ClientResult warm =
        run_closed_loop(server.fd, warm_plan, {kInFlight, settings.warm_s}, epoch_id);
    count(warm, report);

    const ProcSample before = sample_process(server.pid);
    const double client_cpu_before = self_cpu_s();
    const ClientResult part = run_closed_loop(
        server.fd, plan, {kInFlight, settings.seconds / kSlices}, epoch_id);
    client_cpu_s += self_cpu_s() - client_cpu_before;
    const ProcSample after = sample_process(server.pid);
    count(part, report);
    busy.cpu_s += after.cpu_s - before.cpu_s;
    busy.syscr += after.syscr - before.syscr;
    busy.syscw += after.syscw - before.syscw;
    busy.ctx_switches += after.ctx_switches - before.ctx_switches;
    append(timed, part);

    // Server quantiles of the epoch the timed part ended in.
    const Plan post_plan = chain_plan(epoch_id % length, settings.mixed ? 0 : 1, true);
    ClientOptions post_options{1, 600.0};
    post_options.max_items = post_plan.items.size();
    const ClientResult idle = run_closed_loop(server.fd, post_plan, post_options, epoch_id);
    count(idle, report);
    append(post, idle);
    hwm_mb.push_back(sample_process(server.pid).hwm_mb);
    stop(server, report);
  }

  // ---- End-to-end metrics. Latency quantiles are taken per block of
  // consecutive answers and the median over blocks is reported, so a burst
  // of host noise that stalls a few blocks moves them little.
  std::size_t blocks = 0;
  const auto [p50, p99] = block_quantiles(timed.query_latency_us, &blocks);
  if (blocks < 3) report.fail("fewer than three blocks of answered queries");
  const std::vector<double>& applies = settings.mixed ? timed.apply_ms : post.apply_ms;
  if (applies.size() < 3) report.fail("fewer than 3 apply-delta round trips");
  report.metric("qps", static_cast<double>(timed.queries) / timed.wall_s, "1/s");
  report.metric("p50_us", p50, "us");
  report.metric("p99_us", p99, "us");
  report.metric("update_ms", median(applies), "ms");
  if (serve_setup) {
    report.metric("setup_s", median(setup), "s");
    report.metric("build_s", median(build_s), "s");
    report.metric("peak_rss_mb", median(hwm_mb), "MB");
  }
  report.info("serve.mix", settings.mixed ? "serve_load-mix,zipf-keys,deltas" : "uniform-lookups");
  report.info("serve.in_flight", static_cast<double>(kInFlight));
  report.info("serve.server_threads", static_cast<double>(kServerThreads));
  report.info("serve.client_threads", 1.0);
  report.info("serve.pinned_cpus", std::to_string(client_cpu) + "," + std::to_string(server_cpu));
  report.info("serve.cache_size", static_cast<double>(kCacheSize));
  report.info("serve.slices", static_cast<double>(kSlices));
  report.info("serve.launches", static_cast<double>(setup.size()));
  report.info("serve.snapshot_bytes", static_cast<double>(bytes.size()));
  report.info("serve.client_prefixes", static_cast<double>(base->prefixes.size()));
  report.info("serve.chain_length", static_cast<double>(length));
  if (settings.mixed) report.info("serve.segment", static_cast<double>(kSegment));
  report.info("serve.timed_s", timed.wall_s);
  report.info("serve.queries", static_cast<double>(timed.queries));
  report.info("serve.latency_samples", static_cast<double>(timed.query_latency_us.size()));
  report.info("serve.latency_blocks", static_cast<double>(blocks));
  report.info("serve.update_samples", static_cast<double>(applies.size()));
  if (serve_setup) report.info("serve.build_samples", static_cast<double>(build_s.size()));
  report.info("serve.setup_samples", static_cast<double>(setup.size()));
  report.info("serve.server_hwm_mb", median(hwm_mb));
  if (spans == nullptr) return;
  using Scope = SpanRecorder::Scope;

  // ---- Per-layer metrics: the server process over the timed phase ...
  const double queries = static_cast<double>(std::max<std::uint64_t>(timed.queries, 1));
  report.layer("server.cpu_us_per_query", busy.cpu_s * 1e6 / queries, "us");
  report.layer("server.writes_per_query", static_cast<double>(busy.syscw) / queries, "count");
  report.layer("server.reads_per_query", static_cast<double>(busy.syscr) / queries, "count");
  report.layer("server.ctx_switches_per_query", static_cast<double>(busy.ctx_switches) / queries,
               "count");
  const auto& p50s = settings.mixed ? timed.server_p50_us : post.server_p50_us;
  const auto& p99s = settings.mixed ? timed.server_p99_us : post.server_p99_us;
  report.layer("server.answer_p50_us", median(p50s), "us");
  report.layer("server.answer_p99_us", median(p99s), "us");
  report.layer("client.cpu_us_per_query", client_cpu_s * 1e6 / queries, "us");

  // ... and the serving layer's calls in process.
  const Scope root(*spans, "serve.in_process");
  report.layer("serve.validate_ms", median_ms(5, [&](std::size_t) {
                 const Scope s(*spans, "serve.borrow_snapshot");
                 report.op(itm::serve::borrow_snapshot(bytes, &error).has_value());
               }),
               "ms");
  report.layer("serve.epoch_load_ms", median_ms(length, [&](std::size_t k) {
                 std::string copy = chain[k];
                 const Scope s(*spans, "serve.epoch_from_bytes");
                 report.op(itm::serve::Epoch::from_bytes(k, std::move(copy), kCacheSize,
                                                         &error) != nullptr);
               }),
               "ms");
  report.layer("serve.delta_apply_ms", median_ms(length, [&](std::size_t k) {
                 const Scope s(*spans, "serve.apply_delta");
                 const auto target = itm::serve::apply_delta(chain[k], deltas[k], &error);
                 report.op(target && *target == chain[(k + 1) % length]);
               }),
               "ms");
  const auto lookups = lookup_stream(*base, inputs.seed, 20000);
  // Rollups: the verbs that scan whole sections of the map (outage walks
  // every service mapping; country and top-* walk every AS).
  std::vector<std::string> rollups;
  for (auto& line : mixed_stream(*base, inputs.seed, 40000)) {
    if (rollups.size() < 500 && (line.rfind("outage ", 0) == 0 ||
                                 line.rfind("country ", 0) == 0 ||
                                 line.rfind("top-", 0) == 0)) {
      rollups.push_back(std::move(line));
    }
  }
  {
    const Scope s(*spans, "serve.answer_lookup");
    report.layer("serve.lookup_us", mean_answer_us(*engines[0], lookups), "us");
  }
  {
    const Scope s(*spans, "serve.answer_rollup");
    report.layer("serve.rollup_us", mean_answer_us(*engines[0], rollups), "us");
  }
  report.layer("serve.cache_hit_ratio",
               replay_cache_hits(plan, timed.attempted / kSlices, kInFlight, kCacheSize),
               "ratio");
}

}  // namespace perfbench
