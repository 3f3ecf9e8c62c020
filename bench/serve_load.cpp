// SERVE — load-drives the snapshot query engine: compiles the built map
// into an in-memory `.itms` blob, loads it back through the validating
// reader (the exact production path of `itm serve`), then replays a large
// deterministic query stream through itm::net::Executor and reports QPS,
// a latency histogram and a seed-stable aggregate answer hash.
//
// The replay is deterministic end to end: query i is derived from
// Rng::split(i), every shard runs its own QueryEngine (own LRU cache), and
// per-shard results merge in shard order — so the answer hash and every
// deterministic counter are identical for any thread count.
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

struct ShardResult {
  std::uint64_t hash = 0;
  std::uint64_t answer_bytes = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
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
  // Latency is wall-clock by nature; the histogram handle is resolved once
  // so the per-query cost is two clock reads and one atomic increment.
  static constexpr std::uint64_t kLatencyBoundsUs[] = {1,   2,   5,    10,
                                                       20,  50,  100,  200,
                                                       500, 1000, 5000};
  auto& latency_us = obs::metrics().histogram(
      "serve_load.latency_us", kLatencyBoundsUs, obs::Determinism::kWallClock);

  bench::WallTimer replay_timer;
  const serve::SnapshotView& snap = *snapshot;
  const auto shard_results = executor.map_shards<ShardResult>(
      total_queries,
      [&snap, &base, &latency_us](const net::Executor::Shard& shard) {
        serve::QueryEngine engine(snap, 4096);
        ShardResult result;
        result.hash = serve::fnv1a64("");
        for (std::size_t i = shard.begin; i < shard.end; ++i) {
          const std::string query = make_query(snap, base.split(i));
          bench::WallTimer query_timer;
          const std::string answer = engine.execute(query);
          latency_us.observe(
              static_cast<std::uint64_t>(query_timer.seconds() * 1e6));
          // Chain the per-answer hash in index order within the shard.
          result.hash ^= serve::fnv1a64(answer);
          result.hash *= 0x100000001b3ull;
          result.answer_bytes += answer.size();
        }
        result.cache_hits = engine.cache_hits();
        result.cache_misses = engine.cache_misses();
        return result;
      });
  const double elapsed = replay_timer.seconds();

  // Shard-order merge: boundaries depend only on the query count, so the
  // aggregate is identical for every thread count.
  std::uint64_t hash = serve::fnv1a64("");
  std::uint64_t answer_bytes = 0, hits = 0, misses = 0;
  for (const auto& shard : shard_results) {
    hash ^= shard.hash;
    hash *= 0x100000001b3ull;
    answer_bytes += shard.answer_bytes;
    hits += shard.cache_hits;
    misses += shard.cache_misses;
  }
  obs::count("serve_load.queries", total_queries);
  obs::count("serve_load.answer_bytes", answer_bytes);
  obs::count("serve_load.cache.hits", hits);
  obs::count("serve_load.cache.misses", misses);
  obs::gauge_set("serve_load.answer_hash",
                 static_cast<std::int64_t>(hash));

  std::cout << "== SERVE: snapshot query-serving load ==\n";
  std::cout << "queries: " << total_queries << " over "
            << executor.thread_count() << " threads in "
            << core::num(elapsed, 3) << " s ("
            << core::num(elapsed > 0 ? total_queries / elapsed : 0, 0)
            << " qps)\n";
  std::cout << "answers: " << answer_bytes << " bytes, cache hit rate "
            << core::pct(hits + misses > 0
                             ? static_cast<double>(hits) / (hits + misses)
                             : 0)
            << "\n";
  std::cout << "answer hash: " << hash
            << " (stable for this seed across thread counts)\n";
  const auto counts = latency_us.counts();
  std::cout << "latency: count=" << latency_us.count()
            << " mean_us=" << core::num(latency_us.count() > 0
                                            ? static_cast<double>(
                                                  latency_us.sum()) /
                                                  latency_us.count()
                                            : 0,
                                        2)
            << " p_le_10us="
            << core::pct(latency_us.count() > 0
                             ? static_cast<double>(counts[0] + counts[1] +
                                                   counts[2] + counts[3]) /
                                   latency_us.count()
                             : 0)
            << "\n";
  // Every shard engine feeds the shared "serve.query_latency_us" quantile
  // histogram; the log-bucket quantiles are exact to one bucket. Resolution
  // is 1 us, so sub-microsecond quantiles clamp to 1 in the record.
  const auto& quantiles = obs::metrics().quantile("serve.query_latency_us");
  const double p50 = quantiles.quantile(0.50);
  const double p90 = quantiles.quantile(0.90);
  const double p99 = quantiles.quantile(0.99);
  const double p999 = quantiles.quantile(0.999);
  std::cout << "latency quantiles (us): p50=" << core::num(p50, 1)
            << " p90=" << core::num(p90, 1) << " p99=" << core::num(p99, 1)
            << " p999=" << core::num(p999, 1)
            << " max=" << quantiles.max() << "\n";
  // ---- Resident-server phases: the `itm served` serving stack.
  // Hot working set: enough distinct queries to exercise the answer paths,
  // few enough that the per-slot LRU caches converge to all-hits — the
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
  // executor batch per round — exactly Server::answer_batch: one pin per
  // shard, the shard index as the cache slot. The shard split depends only
  // on the hot-set size, so every round re-visits the same per-slot slice
  // and the caches converge to all-hits after the first pass.
  const auto run_resident =
      [&](std::size_t rounds) -> std::pair<double, std::uint64_t> {
    std::uint64_t h = serve::fnv1a64("");
    bench::WallTimer timer;
    for (std::size_t round = 0; round < rounds; ++round) {
      const auto hashes = executor.map_shards<std::uint64_t>(
          hot_set.size(),
          [&epochs, &hot_set](const net::Executor::Shard& shard) {
            const serve::EpochPin pin(epochs, shard.index);
            std::uint64_t shard_hash = serve::fnv1a64("");
            for (std::size_t i = shard.begin; i < shard.end; ++i) {
              const std::string answer = pin->answer(shard.index, hot_set[i]);
              shard_hash ^= serve::fnv1a64(answer);
              shard_hash *= 0x100000001b3ull;
            }
            return shard_hash;
          });
      for (const std::uint64_t shard_hash : hashes) {
        h ^= shard_hash;
        h *= 0x100000001b3ull;
      }
    }
    return {timer.seconds(), h};
  };

  // Warm the per-slot caches, then measure the cache-hot steady state.
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
  // installs the delta-built epoch mid-run; readers keep answering with no
  // locks taken, and the retired epoch is returned only after every reader
  // slot released it.
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
  // Same shard split and merge as run_resident(1), so the two hashes are
  // comparable exactly.
  const auto expected_shards = executor.map_shards<std::uint64_t>(
      hot_set.size(),
      [&target_engine, &hot_set](const net::Executor::Shard& shard) {
        std::uint64_t h = serve::fnv1a64("");
        for (std::size_t i = shard.begin; i < shard.end; ++i) {
          h ^= serve::fnv1a64(target_engine.answer(hot_set[i]));
          h *= 0x100000001b3ull;
        }
        return h;
      });
  std::uint64_t expected_hash = serve::fnv1a64("");
  for (const std::uint64_t shard_hash : expected_shards) {
    expected_hash ^= shard_hash;
    expected_hash *= 0x100000001b3ull;
  }
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
