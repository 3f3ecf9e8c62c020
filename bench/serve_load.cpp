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
// Three further phases drive the resident-server stack (`itm served`):
// a *sustained* phase replays a bounded hot working set through an
// Epoch/EpochManager pin-answer-unpin cycle (the cache-hot steady state a
// resident server converges to), a *swap* phase re-runs it while a writer
// applies an `.itmsd` delta mid-flight, and a verification phase proves
// the delta-built epoch answers byte-identically to an engine over the
// fresh target snapshot (answer-hash equality).
//
// Usage: serve_load [seed] [scale] [queries] [threads]
//   queries defaults to 1,000,000; threads 0 = hardware concurrency.
#include <algorithm>
#include <chrono>
#include <memory>
#include <sstream>
#include <string_view>
#include <thread>
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
  auto scenario = bench::make_scenario(argc, argv);
  const std::size_t total_queries =
      argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 1'000'000;
  const std::size_t threads =
      argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 0;

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
  obs::count("serve_load.queries", total_queries);
  obs::count("serve_load.answer_bytes", answer_bytes);
  obs::count("serve_load.cache.hits", cache.hits);
  obs::count("serve_load.cache.misses", cache.misses);
  obs::gauge_set("serve_load.answer_hash",
                 static_cast<std::int64_t>(hash));

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
  // The epoch's log-bucket latency quantiles are exact to one bucket.
  // Resolution is 1 us, so sub-microsecond quantiles clamp to 1 in the
  // record.
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

  serve::EpochManager epochs;
  {
    auto epoch0 = serve::Epoch::from_bytes(0, blob, 4096, &error);
    if (!epoch0) {
      std::cerr << "[bench] epoch load rejected: " << error << "\n";
      return 1;
    }
    (void)epochs.install(std::move(epoch0));
  }

  // Answers the hot set `rounds` times through the pinned epoch, one
  // session batch per round — exactly Server::answer_batch: one pin for
  // the batch, the epoch's answer cache consulted in input order. The hot
  // set fits the cache, so it converges to all-hits after the first pass.
  // Each round's answers hash per executor shard of the hot set.
  const auto run_resident =
      [&](std::size_t rounds) -> std::pair<double, std::uint64_t> {
    const ShardedHash unhashed(executor, hot_set.size());
    std::uint64_t h = serve::fnv1a64("");
    bench::WallTimer timer;
    for (std::size_t round = 0; round < rounds; ++round) {
      std::vector<std::string> answers = hot_set;
      {
        const serve::EpochPin pin(epochs, 0);
        pin->answer_batch(answers, executor);
      }
      ShardedHash round_hash = unhashed;
      for (std::size_t i = 0; i < answers.size(); ++i) {
        round_hash.add(i, answers[i]);
      }
      h = round_hash.value(h);
    }
    return {timer.seconds(), h};
  };

  // Warm the answer cache, then measure the cache-hot steady state.
  const std::size_t sustained_rounds =
      std::max<std::size_t>(1, total_queries / hot_set.size());
  (void)run_resident(1);
  const auto [sustained_s, sustained_hash] = run_resident(sustained_rounds);
  const std::size_t sustained_queries = hot_set.size() * sustained_rounds;
  const double sustained_qps =
      sustained_s > 0 ? sustained_queries / sustained_s : 0;
  std::cout << "resident sustained: " << sustained_queries << " queries in "
            << core::num(sustained_s, 3) << " s ("
            << core::num(sustained_qps, 0) << " qps cache-hot)\n";

  // ---- Delta apply + hot swap under load.
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
  bench::WallTimer apply_timer;
  const auto applied = serve::apply_delta(blob, *delta, &error);
  const double delta_apply_us = apply_timer.seconds() * 1e6;
  if (!applied || *applied != target_blob) {
    std::cerr << "[bench] delta apply is not byte-identical: " << error
              << "\n";
    return 1;
  }
  std::cout << "delta: " << delta->size() << " bytes applied in "
            << core::num(delta_apply_us, 0) << " us (byte-identical to the "
            << target_blob.size() << "-byte target)\n";

  // Swap while the sustained workload is in flight: a writer thread
  // installs the delta-built epoch mid-run; the session keeps answering
  // with no locks taken, and the retired epoch is returned only after the
  // batch that pinned it let go.
  auto epoch1 = serve::Epoch::from_bytes(1, *applied, 4096, &error);
  if (!epoch1) {
    std::cerr << "[bench] applied epoch rejected: " << error << "\n";
    return 1;
  }
  std::unique_ptr<const serve::Epoch> retired;
  {
    std::unique_ptr<const serve::Epoch> next = std::move(epoch1);
    std::thread writer([&epochs, &retired, &next] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      retired = epochs.install(std::move(next));
    });
    const auto [swap_s, swap_hash] = run_resident(sustained_rounds);
    writer.join();
    (void)swap_hash;  // pre/post answers interleave; verified quiescently below
    std::cout << "swap under load: " << sustained_queries << " queries in "
              << core::num(swap_s, 3) << " s with 1 hot swap (retired epoch "
              << (retired ? retired->id() : 0) << " after "
              << (retired ? retired->queries() : 0) << " answers)\n";
  }

  // Quiescent verification: the delta-built epoch must answer the hot set
  // byte-identically to a fresh engine over the target snapshot bytes.
  const auto [verify_s, post_hash] = run_resident(1);
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
    std::cerr << "[bench] post-swap answers diverge from the fresh target "
                 "snapshot (hash " << post_hash << " != " << expected_hash
              << ")\n";
    return 1;
  }
  std::cout << "post-swap answer hash matches a fresh engine over the "
               "target snapshot (" << post_hash << ")\n";

  bench::BenchRecord record("serve_load");
  record.str("scale", argc > 2 ? argv[2] : "default")
      .num("seed", scenario->config().seed)
      .num("queries", static_cast<std::uint64_t>(total_queries))
      .num("threads", static_cast<std::uint64_t>(executor.thread_count()))
      .num("answer_hash", hash)
      .num("qps", elapsed > 0 ? total_queries / elapsed : 0.0)
      .num("sustained_qps", sustained_qps)
      .num("sustained_hash", sustained_hash)
      .num("delta_apply_us", std::max(delta_apply_us, 1.0))
      .num("swaps", epochs.swaps())
      .num("serve_p50_us", std::max(p50, 1.0))
      .num("serve_p99_us", std::max(p99, 1.0));
  std::cout << record.line();
  itm::bench::dump_metrics_snapshot("serve_load");
  return 0;
}
