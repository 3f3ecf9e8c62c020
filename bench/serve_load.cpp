// SERVE — load-drives the snapshot query engine: compiles the built map
// into an in-memory `.itms` blob, loads it back as a serving Epoch through
// the validating reader (the production path of `itm serve[d]`), then
// replays a large deterministic query stream through itm::net::Executor
// and reports QPS, latency quantiles and a seed-stable aggregate answer
// hash.
//
// The replay is deterministic end to end: query i is derived from
// Rng::split(i), the stream is answered in session batches of
// ServedOptions::max_batch lines through the epoch's answer cache (as
// Server::answer_batch does), and the answer hash chains per executor
// shard of the stream and merges in shard order — shard boundaries depend
// only on the query count, and the cache is consulted in input order, so
// the answer hash and every deterministic counter are identical for any
// thread count.
//
// Two further phases drive the resident-server stack (`itm served`): a
// *sustained* phase replays a bounded hot working set through the live
// epoch's answer_batch, one session batch per round (the cache-hot steady
// state a resident server converges to), and a *delta* phase applies an
// `.itmsd` delta to that epoch, builds the next epoch from the result and
// proves it answers the hot set byte-identically to an engine over the
// fresh target snapshot (answer-hash equality).
//
// Usage: serve_load [seed] [scale] [queries] [threads]
//   queries defaults to 1,000,000 (at least 1); threads 0 = hardware
//   concurrency, at most 1,024. A malformed value exits 2.
#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "net/rng.h"
#include "serve/delta.h"
#include "serve/format.h"
#include "serve/query_engine.h"
#include "serve/server.h"
#include "serve/snapshot_reader.h"
#include "serve/snapshot_writer.h"

namespace {

using namespace itm;

// One replayed query, derived purely from the stream index: the mix leans
// on point lookups (the hot serving path) with a tail of rollups.
std::string make_query(const serve::SnapshotView& snap, Rng rng) {
  const std::uint64_t pick = rng.next_below(100);
  if (pick < 70 && !snap.prefixes.empty()) {
    // Address inside a known client prefix (95%) or anywhere (5%).
    if (rng.next_below(20) == 0) {
      return "lookup " + Ipv4Addr(static_cast<std::uint32_t>(rng.next_u64()))
                             .to_string();
    }
    const auto& rec =
        snap.prefixes[rng.next_below(snap.prefixes.size())];
    const auto prefix = rec.prefix();
    const auto offset = rng.next_below(prefix.size());
    return "lookup " + prefix.address_at(offset).to_string();
  }
  if (pick < 80 && !snap.ases.empty()) {
    return "as " +
           std::to_string(snap.ases[rng.next_below(snap.ases.size())].asn);
  }
  if (pick < 88 && !snap.ases.empty()) {
    return "outage " +
           std::to_string(snap.ases[rng.next_below(snap.ases.size())].asn);
  }
  if (pick < 93 && !snap.countries.empty()) {
    return "country " +
           std::to_string(
               snap.countries[rng.next_below(snap.countries.size())].country);
  }
  if (pick < 97) return "top-as " + std::to_string(1 + rng.next_below(20));
  if (pick < 99) {
    return "top-country " + std::to_string(1 + rng.next_below(8));
  }
  return "stats";
}

// FNV chains over answers in index order, one per executor shard of the
// n-answer stream, merged in shard order into a running hash.
class ShardedHash {
 public:
  ShardedHash(net::Executor& executor, std::size_t n)
      : ends_(executor.map_shards<std::size_t>(
            n, [](const net::Executor::Shard& shard) { return shard.end; })),
        chains_(ends_.size(), serve::fnv1a64("")) {}

  // Adds the answer at stream index `i`; indexes arrive ascending.
  void add(std::size_t i, std::string_view answer) {
    while (i >= ends_[shard_]) ++shard_;
    chains_[shard_] ^= serve::fnv1a64(answer);
    chains_[shard_] *= 0x100000001b3ull;
  }

  [[nodiscard]] std::uint64_t value(
      std::uint64_t hash = serve::fnv1a64("")) const {
    for (const std::uint64_t chain : chains_) {
      hash ^= chain;
      hash *= 0x100000001b3ull;
    }
    return hash;
  }

 private:
  std::vector<std::size_t> ends_;
  std::vector<std::uint64_t> chains_;
  std::size_t shard_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const std::size_t total_queries =
      bench::arg_u64(argc, argv, 3, "queries", 1'000'000);
  const std::size_t threads =
      bench::arg_u64(argc, argv, 4, "threads", 0, kMaxThreads);
  if (total_queries == 0) {
    std::cerr << "[bench] queries must be at least 1\n";
    return 2;
  }
  auto scenario = bench::make_scenario(argc, argv);

  core::MapBuilder builder(*scenario);
  core::MapBuildOptions build_options;
  build_options.threads = threads;
  std::cerr << "[bench] building the traffic map...\n";
  const auto map = builder.build(build_options);

  // Compile and reload through the production path: the engines below serve
  // from validated file bytes, not from the builder's structures.
  bench::WallTimer compile_timer;
  std::ostringstream blob_out;
  serve::write_snapshot(map, *scenario, blob_out);
  const std::string blob = blob_out.str();
  std::string error;
  const auto snapshot = serve::borrow_snapshot(blob, &error);
  if (!snapshot) {
    std::cerr << "[bench] snapshot rejected: " << error << "\n";
    return 1;
  }
  std::cerr << "[bench] snapshot: " << blob.size() << " bytes, "
            << snapshot->prefixes.size() << " prefixes, "
            << snapshot->endpoints.size() << " endpoints (compile+reload "
            << core::num(compile_timer.seconds(), 3) << " s)\n";

  net::Executor executor(threads);
  const Rng base(scenario->config().seed ^ 0x5e7f);
  const auto replay_epoch = serve::Epoch::from_bytes(0, blob, 4096, &error);
  if (!replay_epoch) {
    std::cerr << "[bench] epoch load rejected: " << error << "\n";
    return 1;
  }

  bench::WallTimer replay_timer;
  const serve::SnapshotView& snap = *snapshot;
  const serve::Epoch& replay = *replay_epoch;
  const std::size_t max_batch = serve::ServedOptions{}.max_batch;
  ShardedHash replay_hash(executor, total_queries);
  std::uint64_t answer_bytes = 0;
  std::vector<std::string> batch;
  for (std::size_t begin = 0; begin < total_queries; begin += max_batch) {
    const std::size_t end = std::min(total_queries, begin + max_batch);
    batch.clear();
    for (std::size_t i = begin; i < end; ++i) {
      batch.push_back(make_query(snap, base.split(i)));
    }
    replay.answer_batch(batch, executor);
    for (std::size_t i = begin; i < end; ++i) {
      replay_hash.add(i, batch[i - begin]);
      answer_bytes += batch[i - begin].size();
    }
  }
  const double elapsed = replay_timer.seconds();
  const auto cache = replay.engine().cache_counts();
  const std::uint64_t hash = replay_hash.value();

  std::cout << "== SERVE: snapshot query-serving load ==\n";
  std::cout << "queries: " << total_queries << " over "
            << executor.thread_count() << " threads in "
            << core::num(elapsed, 3) << " s ("
            << core::num(elapsed > 0 ? total_queries / elapsed : 0, 0)
            << " qps)\n";
  std::cout << "answers: " << answer_bytes << " bytes, cache hit rate "
            << core::pct(cache.hits + cache.misses > 0
                             ? static_cast<double>(cache.hits) /
                                   (cache.hits + cache.misses)
                             : 0)
            << "\n";
  std::cout << "answer hash: " << hash
            << " (stable for this seed across thread counts)\n";
  // The epoch's log-bucket latency quantiles are exact to one bucket, at
  // 1 us resolution.
  const auto& quantiles = replay.latency();
  const double p50 = quantiles.quantile(0.50);
  const double p90 = quantiles.quantile(0.90);
  const double p99 = quantiles.quantile(0.99);
  const double p999 = quantiles.quantile(0.999);
  std::cout << "latency: count=" << quantiles.count()
            << " mean_us=" << core::num(quantiles.mean(), 2) << "\n";
  std::cout << "latency quantiles (us): p50=" << core::num(p50, 1)
            << " p90=" << core::num(p90, 1) << " p99=" << core::num(p99, 1)
            << " p999=" << core::num(p999, 1)
            << " max=" << quantiles.max() << "\n";
  // ---- Resident-server phases: the `itm served` serving stack.
  // Hot working set: enough distinct queries to exercise the answer paths,
  // few enough that the epoch's answer cache converges to all-hits — the
  // steady state of a resident server fed a production query mix.
  const std::size_t hot_set_size = std::min<std::size_t>(2048, total_queries);
  std::vector<std::string> hot_set;
  hot_set.reserve(hot_set_size);
  for (std::size_t i = 0; i < hot_set_size; ++i) {
    hot_set.push_back(make_query(snap, base.split(0x40000000ull + i)));
  }

  // Answers the hot set `rounds` times through `epoch`, one session batch
  // per round — exactly Server::answer_batch: the epoch's answer cache
  // consulted in input order. The hot set fits the cache, so it converges
  // to all-hits after the first pass. Each round's answers hash per
  // executor shard of the hot set.
  const auto run_resident =
      [&](const serve::Epoch& epoch,
          std::size_t rounds) -> std::pair<double, std::uint64_t> {
    const ShardedHash unhashed(executor, hot_set.size());
    std::uint64_t h = serve::fnv1a64("");
    bench::WallTimer timer;
    for (std::size_t round = 0; round < rounds; ++round) {
      std::vector<std::string> answers = hot_set;
      epoch.answer_batch(answers, executor);
      ShardedHash round_hash = unhashed;
      for (std::size_t i = 0; i < answers.size(); ++i) {
        round_hash.add(i, answers[i]);
      }
      h = round_hash.value(h);
    }
    return {timer.seconds(), h};
  };

  const auto epoch0 = serve::Epoch::from_bytes(0, blob, 4096, &error);
  if (!epoch0) {
    std::cerr << "[bench] epoch load rejected: " << error << "\n";
    return 1;
  }
  // Warm the answer cache, then measure the cache-hot steady state.
  const std::size_t sustained_rounds =
      std::max<std::size_t>(1, total_queries / hot_set.size());
  (void)run_resident(*epoch0, 1);
  const auto [sustained_s, sustained_hash] =
      run_resident(*epoch0, sustained_rounds);
  const std::size_t sustained_queries = hot_set.size() * sustained_rounds;
  const double sustained_qps =
      sustained_s > 0 ? sustained_queries / sustained_s : 0;
  std::cout << "resident sustained: " << sustained_queries << " queries in "
            << core::num(sustained_s, 3) << " s ("
            << core::num(sustained_qps, 0) << " qps cache-hot)\n";

  // ---- Delta apply, as `apply-delta` does it: splice the live epoch's
  // bytes, build the next epoch, and check its answers.
  // The target map: the same world after a probing increment — a small,
  // realistic delta against the live snapshot.
  const auto target_snapshot = [&] {
    serve::Snapshot next = *serve::read_snapshot(blob, &error);
    next.addresses_probed += 4096;
    if (!next.ases.empty()) next.ases.front().activity *= 1.25;
    return next;
  }();
  std::ostringstream target_out;
  serve::write_snapshot(target_snapshot, target_out);
  const std::string target_blob = target_out.str();
  const auto delta = serve::diff_snapshots(blob, target_blob, &error);
  if (!delta) {
    std::cerr << "[bench] diff failed: " << error << "\n";
    return 1;
  }
  const obs::Stopwatch apply_watch;
  auto applied =
      serve::apply_delta(epoch0->view(), epoch0->bytes(), *delta, &error);
  const std::uint64_t delta_apply_ns = apply_watch.elapsed_ns();
  if (!applied || *applied != target_blob) {
    std::cerr << "[bench] delta apply is not byte-identical: " << error
              << "\n";
    return 1;
  }
  std::cout << "delta: " << delta->size() << " bytes applied in "
            << core::num(static_cast<double>(delta_apply_ns) * 1e-3, 0)
            << " us (byte-identical to the "
            << target_blob.size() << "-byte target)\n";

  // The delta-built epoch must answer the hot set byte-identically to a
  // fresh engine over the target snapshot bytes.
  const auto epoch1 =
      serve::Epoch::from_bytes(1, std::move(*applied), 4096, &error);
  if (!epoch1) {
    std::cerr << "[bench] applied epoch rejected: " << error << "\n";
    return 1;
  }
  const auto [verify_s, post_hash] = run_resident(*epoch1, 1);
  (void)verify_s;
  const auto target_view = serve::borrow_snapshot(target_blob, &error);
  if (!target_view) {
    std::cerr << "[bench] target view rejected: " << error << "\n";
    return 1;
  }
  const serve::QueryEngine target_engine(*target_view, 0);
  // Hashed as run_resident(1) hashes, so the two are comparable exactly.
  ShardedHash expected(executor, hot_set.size());
  for (std::size_t i = 0; i < hot_set.size(); ++i) {
    expected.add(i, target_engine.answer(hot_set[i]));
  }
  const std::uint64_t expected_hash = expected.value();
  if (post_hash != expected_hash) {
    std::cerr << "[bench] delta-built answers diverge from the fresh target "
                 "snapshot (hash " << post_hash << " != " << expected_hash
              << ")\n";
    return 1;
  }
  std::cout << "delta-built answer hash matches a fresh engine over the "
               "target snapshot (" << post_hash << ")\n";

  // The record: a metrics registry export, deterministic values (hashes
  // and counts, identical for every thread count) apart from wall-clock
  // ones.
  const auto as_gauge = [](auto v) { return static_cast<std::int64_t>(v); };
  obs::MetricsRegistry record;
  record.counter("seed").add(scenario->config().seed);
  record.gauge("queries").set(as_gauge(total_queries));
  record.counter("answer_hash").add(hash);
  record.counter("answer_bytes").add(answer_bytes);
  record.counter("cache.hits").add(cache.hits);
  record.counter("cache.misses").add(cache.misses);
  record.counter("sustained_hash").add(sustained_hash);
  record.gauge("threads", obs::Determinism::kWallClock)
      .set(as_gauge(executor.thread_count()));
  record.gauge("qps", obs::Determinism::kWallClock)
      .set(std::llround(elapsed > 0 ? total_queries / elapsed : 0.0));
  record.gauge("sustained_qps", obs::Determinism::kWallClock)
      .set(std::llround(sustained_qps));
  record.gauge("delta_apply_ns", obs::Determinism::kWallClock)
      .set(as_gauge(delta_apply_ns));
  record.gauge("serve_p50_us", obs::Determinism::kWallClock)
      .set(std::llround(p50));
  record.gauge("serve_p99_us", obs::Determinism::kWallClock)
      .set(std::llround(p99));
  record.write_json(std::cout, obs::MetricsRegistry::Export::kAll);
  itm::bench::dump_metrics_snapshot("serve_load");
  return 0;
}
