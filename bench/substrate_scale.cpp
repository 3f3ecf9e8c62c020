// SUBSTRATE — the Internet-scale data-layout bench behind the committed
// BENCH_<tier>.json trajectory.
//
// For a pinned scale tier (core::ScaleTier: tiny / medium / huge — pinned
// seed, pinned config) this bench:
//
//   1. generates the scenario and times it,
//   2. measures the substrate layout:
//        bytes/AS      — the SoA topology::AsTable columns,
//        bytes/prefix  — a path-compressed arena PrefixTrie loaded with
//                        every routable /24,
//   3. builds the full traffic map with the tier's build options and
//      times it,
//   4. compiles the `.itms` snapshot and replays a deterministic
//      lookup-heavy query stream through the production serving epoch
//      (serve qps),
//   5. emits everything as one machine-readable JSON line.
//
// The JSON line is the repo's perf ledger: tools/check_bench.sh re-runs the
// tiny tier per commit and diffs structural fields exactly / perf fields
// within a tolerance band against the committed BENCH_tiny.json.
//
// Usage: substrate_scale [tiny|medium|huge] [out.json]
//   Defaults: tiny, BENCH_<tier>.json in the current directory.
#include <algorithm>
#include <string>
#include <vector>

#include "bench_common.h"
#include "net/prefix_trie.h"
#include "net/rng.h"
#include "serve/delta.h"
#include "serve/format.h"
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

  // ---- 2. the substrate layout.
  const std::size_t as_bytes_soa = topo.table.memory_bytes();

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
  bench::WallTimer replay_timer;
  for (std::size_t i = 0; i < total_queries; ++i) {
    std::vector<std::string> line{make_query(*snapshot, base.split(i))};
    epoch->answer_batch(line, net::Executor::serial());
    answer_hash ^= serve::fnv1a64(line[0]);
    answer_hash *= 0x100000001b3ull;
  }
  const double replay_s = replay_timer.seconds();
  const double qps = replay_s > 0 ? total_queries / replay_s : 0;
  // Per-query latency quantiles from the epoch's log-bucketed histogram
  // (accurate to one log-bucket). Resolution is 1 us, so sub-microsecond
  // quantiles clamp to 1 — bench_diff.py requires positive perf values.
  const auto& latency = epoch->latency();
  const double serve_p50_us = std::max(latency.quantile(0.50), 1.0);
  const double serve_p99_us = std::max(latency.quantile(0.99), 1.0);
  std::cerr << "[bench] serve replay: " << total_queries << " queries in "
            << core::num(replay_s, 2) << " s (" << core::num(qps, 0)
            << " qps, p50 " << core::num(serve_p50_us, 1) << " us, p99 "
            << core::num(serve_p99_us, 1) << " us)\n";

  // ---- 4b. delta apply cost (the `itm served` apply-delta path): a small
  // probing increment against the live snapshot, applied by the strict
  // `.itmsd` applier. The rebuild must be byte-identical to the fresh
  // target — the wall time is the tier's delta_apply_us perf ledger entry.
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
  bench::WallTimer apply_timer;
  const auto applied = serve::apply_delta(blob, *delta, &error);
  const double delta_apply_us = apply_timer.seconds() * 1e6;
  if (!applied || *applied != delta_target_blob) {
    std::cerr << "[bench] delta apply is not byte-identical: " << error
              << "\n";
    return 1;
  }
  std::cerr << "[bench] delta apply: " << delta->size() << "-byte delta -> "
            << delta_target_blob.size() << " bytes in "
            << core::num(delta_apply_us, 0) << " us (byte-identical)\n";

  // ---- 5. the ledger line. Structural fields (counts, per-entry bytes,
  // hashes) are deterministic for the pinned tier; *_s / qps / rss fields
  // are machine-dependent perf (check_bench.sh's tolerance band).
  bench::BenchRecord record("substrate_scale");
  record.str("tier", tier_name)
      .num("seed", static_cast<std::uint64_t>(config.seed))
      .num("ases", static_cast<std::uint64_t>(n_ases))
      .num("links", static_cast<std::uint64_t>(topo.graph.links().size()))
      .num("routable_prefixes", static_cast<std::uint64_t>(n_prefixes))
      .num("user_prefixes",
           static_cast<std::uint64_t>(scenario->users().size()))
      .num("bytes_per_as_soa", static_cast<double>(as_bytes_soa) / n_ases)
      .num("bytes_per_prefix_soa",
           static_cast<double>(arena_trie.memory_bytes()) / n_prefixes)
      .num("trie_nodes_soa",
           static_cast<std::uint64_t>(arena_trie.node_count()))
      .num("snapshot_bytes", static_cast<std::uint64_t>(blob.size()))
      .num("client_prefixes",
           static_cast<std::uint64_t>(map.client_prefixes.size()))
      .num("answer_hash", answer_hash)
      .num("queries", static_cast<std::uint64_t>(total_queries))
      .num("generate_s", generate_s)
      .num("build_s", build_s)
      .num("serve_qps", qps)
      .num("serve_p50_us", serve_p50_us)
      .num("serve_p99_us", serve_p99_us)
      .num("delta_apply_us", std::max(delta_apply_us, 1.0))
      .num("peak_rss_bytes",
           static_cast<std::uint64_t>(bench::peak_rss_bytes()));
  record.write(out_path);
  std::cout << record.line();
  bench::dump_metrics_snapshot("substrate_scale");
  return 0;
}
