// Seeded inputs for the serve workloads: query streams and delta chains.
//
// Everything here is a pure function of (snapshot, seed): the same seed
// yields the same query lines and the same delta bytes, so two runs with
// one seed send the server identical inputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/rng.h"
#include "serve/snapshot.h"

namespace perfbench {

// `count` point lookups ("lookup a.b.c.d"), each drawn uniformly over the
// snapshot's client prefixes with a uniform host inside the prefix.
[[nodiscard]] std::vector<std::string> lookup_stream(
    const itm::serve::Snapshot& snap, std::uint64_t seed, std::size_t count);

// `count` queries in the verb mix of bench/serve_load.cpp's make_query:
// 70% lookup (5% of them at any address, the rest inside a client prefix),
// 10% as, 8% outage, 5% country, 4% top-as (k 1..20), 2% top-country
// (k 1..8), 1% stats. Unlike make_query, keys are Zipf-skewed over a
// seed-shuffled popularity order, so hot keys repeat and differ per seed.
// The exponent is the world model's long-tail service popularity exponent
// (cdn::ServiceCatalogConfig::longtail_zipf).
[[nodiscard]] std::vector<std::string> mixed_stream(
    const itm::serve::Snapshot& snap, std::uint64_t seed, std::size_t count);

// A cyclic chain of `length` snapshots: element 0 is `base` itself and
// element k > 0 is `base` after k probing increments, the delta target of
// bench/serve_load.cpp and bench/substrate_scale.cpp (4,096 more addresses
// probed and one AS's activity scaled by 1.25 per increment). The AS of
// each increment is drawn from `seed`. Returned as canonical `.itms` bytes.
[[nodiscard]] std::vector<std::string> snapshot_chain(
    const itm::serve::Snapshot& base, std::uint64_t seed, std::size_t length);

// The `.itmsd` deltas of a cyclic chain: delta k turns chain[k] into
// chain[(k + 1) % size]. Throws std::runtime_error if diffing fails.
[[nodiscard]] std::vector<std::string> chain_deltas(
    const std::vector<std::string>& chain);

}  // namespace perfbench
