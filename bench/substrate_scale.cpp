// SUBSTRATE — the Internet-scale data-layout bench behind the committed
// BENCH_<tier>.json trajectory.
//
// For a pinned scale tier (core::ScaleTier: tiny / medium / huge — pinned
// seed, pinned config) this bench:
//
//   1. generates the scenario and times it,
//   2. measures the prefix substrate: the bytes of a path-compressed arena
//      PrefixTrie loaded with every routable /24,
//   3. builds the full traffic map with the tier's build options and
//      times it,
//   4. compiles the `.itms` snapshot and replays a deterministic
//      lookup-heavy query stream through the production serving epoch
//      (serve qps and per-query latency), then times a rollup mix on a
//      fresh engine and one delta apply,
//   5. records everything in a metrics registry and writes its JSON export.
//
// The record is the repo's perf ledger, in the one schema that
// `--metrics-out` files use too. Structural values (counts, bytes, hashes)
// are deterministic for the pinned tier and sit in the deterministic
// section; timings, qps and RSS are wall-clock. `tier` is the
// core::ScaleTier value (0 tiny, 1 medium, 2 huge). tools/check_bench.sh
// re-runs the tiny tier and diffs it with `itm obs report --baseline
// BENCH_tiny.json`: deterministic values exactly, wall-clock values within
// the ratio band. Every wall-clock value is an integer in a unit (us, ns,
// bytes) that keeps it above the report's noise floor.
//
// Usage: substrate_scale [tiny|medium|huge] [out.json]
//   Defaults: tiny, BENCH_<tier>.json in the current directory.
#include <cmath>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "net/prefix_trie.h"
#include "net/rng.h"
#include "serve/delta.h"
#include "serve/format.h"
#include "serve/query_engine.h"
#include "serve/server.h"
#include "serve/snapshot_reader.h"
#include "serve/snapshot_writer.h"

namespace {

using namespace itm;

// Deterministic lookup-heavy query mix (the hot serving path), derived
// purely from the stream index.
std::string make_query(const serve::SnapshotView& snap, Rng rng) {
  const std::uint64_t pick = rng.next_below(100);
  if (pick < 80 && !snap.prefixes.empty()) {
    const auto& rec = snap.prefixes[rng.next_below(snap.prefixes.size())];
    const auto prefix = rec.prefix();
    return "lookup " +
           prefix.address_at(rng.next_below(prefix.size())).to_string();
  }
  if (pick < 90 && !snap.ases.empty()) {
    return "as " +
           std::to_string(snap.ases[rng.next_below(snap.ases.size())].asn);
  }
  if (pick < 97 && !snap.countries.empty()) {
    return "country " +
           std::to_string(
               snap.countries[rng.next_below(snap.countries.size())].country);
  }
  return "stats";
}

// Deterministic rollup mix: the verbs the engine answers from its
// per-epoch rollup index.
std::string make_rollup_query(const serve::SnapshotView& snap, Rng rng) {
  const std::uint64_t pick = rng.next_below(4);
  if (pick == 0 && !snap.ases.empty()) {
    return "outage " +
           std::to_string(snap.ases[rng.next_below(snap.ases.size())].asn);
  }
  if (pick == 1 && !snap.countries.empty()) {
    return "country " +
           std::to_string(
               snap.countries[rng.next_below(snap.countries.size())].country);
  }
  if (pick == 2) return "top-as " + std::to_string(1 + rng.next_below(20));
  return "top-country " + std::to_string(1 + rng.next_below(8));
}

}  // namespace

int main(int argc, char** argv) {
  const std::string tier_name = argc > 1 ? argv[1] : "tiny";
  const auto tier = core::parse_scale_tier(tier_name);
  if (!tier) {
    std::cerr << "usage: substrate_scale [tiny|medium|huge] [out.json]\n";
    return 2;
  }
  const std::string out_path =
      argc > 2 ? argv[2] : ("BENCH_" + tier_name + ".json");

  // ---- 1. generate the pinned world.
  const auto config = core::tier_config(*tier);
  std::cerr << "[bench] generating " << tier_name << " tier (seed "
            << config.seed << ")...\n";
  bench::WallTimer gen_timer;
  auto scenario = core::Scenario::generate(config);
  const double generate_s = gen_timer.seconds();
  const auto& topo = scenario->topo();
  const std::size_t n_ases = topo.graph.size();
  std::cerr << "[bench] " << n_ases << " ASes, " << topo.graph.links().size()
            << " links, " << scenario->users().size() << " user /24s ("
            << core::num(generate_s, 1) << " s)\n";

  // ---- 2. the prefix substrate.
  const auto routable = topo.addresses.routable_slash24s();
  PrefixTrie<Asn> arena_trie;
  arena_trie.reserve(routable.size());
  for (const auto& prefix : routable) {
    const auto origin = topo.addresses.origin_of(prefix);
    arena_trie.insert(prefix, origin ? *origin : Asn(0));
  }
  const std::size_t n_prefixes = routable.size();
  std::cerr << "[bench] trie over " << n_prefixes << " /24s: "
            << arena_trie.node_count() << " nodes / "
            << arena_trie.memory_bytes() << " B\n";

  // ---- 3. the full pipeline at the tier's build options.
  core::MapBuilder builder(*scenario);
  const auto options = core::tier_build_options(*tier);
  std::cerr << "[bench] building the traffic map...\n";
  bench::WallTimer build_timer;
  const auto map = builder.build(options);
  const double build_s = build_timer.seconds();
  bench::report_stage_timings(builder.last_timings());

  // ---- 4. snapshot + a deterministic serve replay.
  std::ostringstream blob_out;
  serve::write_snapshot(map, *scenario, blob_out);
  const std::string blob = blob_out.str();
  std::string error;
  const auto snapshot = serve::borrow_snapshot(blob, &error);
  if (!snapshot) {
    std::cerr << "[bench] snapshot rejected: " << error << "\n";
    return 1;
  }

  const std::size_t total_queries =
      *tier == core::ScaleTier::kTiny ? 200'000 : 100'000;
  // The serving path of `itm serve[d]`, one line at a time: one epoch and
  // its answer cache.
  const auto epoch = serve::Epoch::from_bytes(0, blob, 4096, &error);
  if (!epoch) {
    std::cerr << "[bench] epoch rejected: " << error << "\n";
    return 1;
  }
  const Rng base(config.seed ^ 0x5ca1e);
  std::uint64_t answer_hash = serve::fnv1a64("");
  // Per-query latency in ns, log-bucketed (within ~6% of the exact order
  // statistic): the epoch's own record has 1 us resolution, too coarse for
  // answers that take a few us.
  obs::QuantileHistogram latency_ns;
  bench::WallTimer replay_timer;
  for (std::size_t i = 0; i < total_queries; ++i) {
    std::vector<std::string> line{make_query(*snapshot, base.split(i))};
    const obs::Stopwatch answer_watch;
    epoch->answer_batch(line, net::Executor::serial());
    latency_ns.observe(answer_watch.elapsed_ns());
    answer_hash ^= serve::fnv1a64(line[0]);
    answer_hash *= 0x100000001b3ull;
  }
  const double replay_s = replay_timer.seconds();
  const double qps = replay_s > 0 ? total_queries / replay_s : 0;
  std::cerr << "[bench] serve replay: " << total_queries << " queries in "
            << core::num(replay_s, 2) << " s (" << core::num(qps, 0)
            << " qps, p50 " << core::num(latency_ns.quantile(0.50), 0)
            << " ns, p99 " << core::num(latency_ns.quantile(0.99), 0)
            << " ns)\n";

  // Uncached rollup answers on a fresh engine, the index build included:
  // the per-query cost of the rollups of one 2,000-query serving epoch.
  const std::size_t rollup_queries = 2'000;
  std::vector<std::string> rollup_lines;
  const Rng rollup_base(config.seed ^ 0x7011u);
  for (std::size_t i = 0; i < rollup_queries; ++i) {
    rollup_lines.push_back(make_rollup_query(*snapshot, rollup_base.split(i)));
  }
  const serve::QueryEngine rollup_engine(*snapshot);
  std::size_t rollup_bytes = 0;
  bench::WallTimer rollup_timer;
  for (const std::string& line : rollup_lines) {
    rollup_bytes += rollup_engine.answer(line).size();
  }
  const double serve_rollup_ns =
      rollup_timer.seconds() * 1e9 / static_cast<double>(rollup_queries);
  std::cerr << "[bench] rollups: " << rollup_queries << " uncached answers ("
            << rollup_bytes << " bytes), " << core::num(serve_rollup_ns, 0)
            << " ns each\n";

  // ---- 4b. delta apply cost (the `itm served` apply-delta path): a small
  // probing increment against the live snapshot, applied by the strict
  // `.itmsd` applier. The rebuild must be byte-identical to the fresh
  // target — the wall time is the tier's delta_apply_ns ledger entry.
  serve::Snapshot delta_target = *serve::read_snapshot(blob, &error);
  delta_target.addresses_probed += 4096;
  if (!delta_target.ases.empty()) delta_target.ases.front().activity *= 1.25;
  std::ostringstream delta_target_out;
  serve::write_snapshot(delta_target, delta_target_out);
  const std::string delta_target_blob = delta_target_out.str();
  const auto delta = serve::diff_snapshots(blob, delta_target_blob, &error);
  if (!delta) {
    std::cerr << "[bench] diff failed: " << error << "\n";
    return 1;
  }
  const obs::Stopwatch apply_watch;
  const auto applied = serve::apply_delta(blob, *delta, &error);
  const std::uint64_t delta_apply_ns = apply_watch.elapsed_ns();
  if (!applied || *applied != delta_target_blob) {
    std::cerr << "[bench] delta apply is not byte-identical: " << error
              << "\n";
    return 1;
  }
  std::cerr << "[bench] delta apply: " << delta->size() << "-byte delta -> "
            << delta_target_blob.size() << " bytes in "
            << core::num(static_cast<double>(delta_apply_ns) * 1e-3, 0)
            << " us (byte-identical)\n";

  // ---- 5. the ledger record. Each value is recorded with its
  // determinism class at the call site, so itm-lint's determinism-taint
  // rule rejects a timing recorded as deterministic.
  const auto as_gauge = [](auto v) { return static_cast<std::int64_t>(v); };
  obs::MetricsRegistry record;
  record.gauge("tier").set(as_gauge(*tier));
  record.counter("seed").add(config.seed);
  record.gauge("ases").set(as_gauge(n_ases));
  record.gauge("links").set(as_gauge(topo.graph.links().size()));
  record.gauge("routable_prefixes").set(as_gauge(n_prefixes));
  record.gauge("user_prefixes").set(as_gauge(scenario->users().size()));
  record.gauge("trie_nodes").set(as_gauge(arena_trie.node_count()));
  record.gauge("trie_bytes").set(as_gauge(arena_trie.memory_bytes()));
  record.gauge("snapshot_bytes").set(as_gauge(blob.size()));
  record.gauge("client_prefixes").set(as_gauge(map.client_prefixes.size()));
  record.counter("answer_hash").add(answer_hash);
  record.gauge("queries").set(as_gauge(total_queries));
  record.gauge("generate.wall_us", obs::Determinism::kWallClock)
      .set(std::llround(generate_s * 1e6));
  record.gauge("build.wall_us", obs::Determinism::kWallClock)
      .set(std::llround(build_s * 1e6));
  record.gauge("serve_qps", obs::Determinism::kWallClock)
      .set(std::llround(qps));
  record.gauge("serve_p50_ns", obs::Determinism::kWallClock)
      .set(std::llround(latency_ns.quantile(0.50)));
  record.gauge("serve_p99_ns", obs::Determinism::kWallClock)
      .set(std::llround(latency_ns.quantile(0.99)));
  record.gauge("serve_rollup_ns", obs::Determinism::kWallClock)
      .set(std::llround(serve_rollup_ns));
  record.gauge("delta_apply_ns", obs::Determinism::kWallClock)
      .set(as_gauge(delta_apply_ns));
  record.gauge("peak_rss_bytes", obs::Determinism::kWallClock)
      .set(as_gauge(bench::peak_rss_bytes()));
  std::ofstream out(out_path);
  record.write_json(out, obs::MetricsRegistry::Export::kAll);
  if (!out) {
    std::cerr << "[bench] cannot write " << out_path << "\n";
    return 1;
  }
  std::cerr << "[bench] wrote " << out_path << "\n";
  record.write_json(std::cout, obs::MetricsRegistry::Export::kAll);
  bench::dump_metrics_snapshot("substrate_scale");
  return 0;
}
