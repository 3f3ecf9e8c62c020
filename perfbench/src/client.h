// Closed-loop load client for `itm served` over one stream connection.
//
// The client keeps a fixed number of stream items in flight: it sends the
// next item only when a reply frees a slot. Every reply is checked against
// its expected line — a query against the reference engine's answer for
// the epoch that answered it (control verbs are sequencing points, so that
// epoch follows from the stream order), an `apply-delta` against the
// predicted checksum. A mismatch, an "error:" reply, a closed connection or
// a stall longer than the timeout counts as a failure; the client never
// hangs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct StreamItem {
  enum class Kind : std::uint8_t { kQuery, kEpoch, kApplyDelta };
  Kind kind = Kind::kQuery;
  std::string line;
  // kQuery: index into Plan::answers.
  // kEpoch / kApplyDelta: chain position the server holds after the item.
  std::uint32_t ref = 0;
};

// A cyclic stream plus what every reply must be. The stream must return
// the server to chain position 0 at its end, so it can repeat.
struct Plan {
  std::vector<StreamItem> items;
  std::vector<std::string> answers;
  // Snapshot checksum per delta-chain position (position 0 = served file).
  std::vector<std::uint64_t> chain_checksums;
};

struct ClientOptions {
  std::size_t in_flight = 64;
  double seconds = 1.0;      // stop issuing new items after this long
  std::size_t max_items = 0;  // stop issuing after this many; 0 = no cap
};

// No reply for this long ends the run; outstanding items count as failed.
inline constexpr double kStallTimeoutS = 10.0;

struct ClientResult {
  std::uint64_t attempted = 0;  // items sent
  std::uint64_t failed = 0;     // wrong, error, or missing replies
  std::uint64_t queries = 0;    // query items answered correctly
  double wall_s = 0.0;          // first send to last reply
  std::vector<double> query_latency_us;  // per answered query, in answer order
  std::vector<double> apply_ms;          // per apply-delta round trip
  // Server-side per-answer quantiles from each `epoch` reply.
  std::vector<double> server_p50_us;
  std::vector<double> server_p99_us;
  std::string first_failure;  // diagnostic for the first failed reply
};

// Runs the plan over connected socket `fd` from item `start`, cycling,
// until `options.seconds` pass, then drains every outstanding reply.
// `epoch_id` is the server's current epoch id; it advances per delta.
[[nodiscard]] ClientResult run_closed_loop(int fd, const Plan& plan,
                                           const ClientOptions& options,
                                           std::uint64_t& epoch_id);

// Lowercase hex, as the server prints checksums.
[[nodiscard]] std::string hex64(std::uint64_t value);

}  // namespace perfbench
