// The resident query server behind `itm served` and `itm serve` (DESIGN.md
// decision #13).
//
// A long-lived process holds the current map as an immutable *Epoch* —
// snapshot storage (an mmap of the `.itms` file, or the in-memory bytes a
// delta apply produced), the validated SnapshotView over it, one
// QueryEngine with its answer cache, and a per-epoch latency record.
//
// Every session — stdin/stdout, a queries file (`itm serve`), or one
// AF_UNIX connection — runs through one loop over one fd line transport.
// A session speaks the query protocol of query_engine.h, answered by
// sharded workers over net::Executor, plus control verbs:
//
//   swap-snapshot <path>   load a full `.itms` and hot-swap to it
//   apply-delta <path>     apply an `.itmsd` to the live epoch and swap
//   epoch                  current epoch id/checksum/latency quantiles
//   quit                   end the session
//
// Every non-empty line gets exactly one reply line, in input order, except
// lines starting with `#`: those and empty lines get no reply. A line
// longer than 8,192 bytes ends the session with one `error:` line. Replies
// to a batch leave in one write loop; a failed write (the reader hung up)
// ends the session and never the process.
//
// Epochs swap on the session thread. Control verbs run between batches,
// so the current epoch changes only while no batch is in flight: every
// batch answers against exactly one epoch, and a swap retires the old
// epoch at once. Sessions are served one at a time, so nothing else reads
// the epoch concurrently (DESIGN.md decision #13).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/executor.h"
#include "obs/quantile.h"
#include "serve/mmap.h"
#include "serve/query_engine.h"

namespace itm::serve {

// One immutable serving generation: storage + view + engine. Construction
// validates; after that every member is read-only except the engine's
// answer cache, the query count and the latency record, which only
// answer_batch() writes.
class Epoch {
 public:
  // Only perfbench's cache model reads this; the server does not.
  static constexpr std::size_t kSlots = 64;

  // Builds an epoch by mapping a full `.itms` file (zero-copy).
  [[nodiscard]] static std::unique_ptr<Epoch> from_file(
      std::uint64_t id, const std::string& path, std::size_t cache_capacity,
      std::string* error);
  // Builds an epoch over in-memory snapshot bytes (the delta-apply path);
  // takes ownership of `bytes` and borrow-views them, so delta epochs and
  // mmap epochs serve through the identical code path.
  [[nodiscard]] static std::unique_ptr<Epoch> from_bytes(
      std::uint64_t id, std::string bytes, std::size_t cache_capacity,
      std::string* error);

  [[nodiscard]] std::uint64_t id() const { return id_; }
  [[nodiscard]] std::uint64_t checksum() const { return checksum_; }
  // The full snapshot bytes (header included) — the base a delta applies to.
  [[nodiscard]] std::string_view bytes() const;
  // The validated view of bytes() the epoch serves from; a delta splices
  // its result from it without validating the base again.
  [[nodiscard]] const SnapshotView& view() const { return engine_->view(); }
  [[nodiscard]] const QueryEngine& engine() const { return *engine_; }

  // Replaces every line of `lines` by its answer through the engine's
  // answer cache, computing misses over `executor`
  // (QueryEngine::answer_batch), and counts them. One caller at a time;
  // engine().answer() is the cache-free, thread-safe path.
  void answer_batch(std::vector<std::string>& lines,
                    net::Executor& executor) const;

  [[nodiscard]] std::uint64_t queries() const { return queries_; }
  // Per-epoch answer latency (cache hits included).
  [[nodiscard]] const obs::QuantileHistogram& latency() const {
    return latency_;
  }

 private:
  explicit Epoch(std::uint64_t id) : id_(id) {}

  std::uint64_t id_ = 0;
  std::uint64_t checksum_ = 0;
  std::optional<MmapSnapshot> mapped_;  // from_file storage
  std::string blob_;                    // from_bytes storage
  std::unique_ptr<QueryEngine> engine_;
  mutable obs::QuantileHistogram latency_;
  mutable std::uint64_t queries_ = 0;
};

struct ServedOptions {
  std::string snapshot_path;  // initial epoch (required)
  std::string listen_path;    // AF_UNIX socket path; empty = stdio session
  std::size_t cache_capacity = 1024;  // cached answers per epoch
  std::size_t max_batch = 4096;       // queries dispatched per executor batch
};

// The resident server: the current epoch, one executor, a session loop.
class Server {
 public:
  // Session batches form from what a client has sent so far, so the server
  // re-classes `executor`'s batch counts as wall-clock.
  Server(ServedOptions options, net::Executor& executor);

  // Loads the initial epoch from options.snapshot_path. False + error on
  // any open/validation failure (the CLI turns this into exit code 4).
  [[nodiscard]] bool start(std::string* error);

  // Serves one session: reads lines from `in_fd` and writes replies to
  // `out_fd` (the same fd for a socket) until EOF, `quit`, an overlong
  // line, a failed write or a requested shutdown. Closes neither fd.
  void serve_session(int in_fd, int out_fd);

  // Serves on the configured transport: one stdin/stdout session, or an
  // AF_UNIX listener accepting one session at a time. Then adds the live
  // epoch's query and cache counts to the current metrics registry, as
  // each swap does for the epoch it retires; call it once. Returns a
  // process exit code (0 on EOF/quit/graceful shutdown).
  [[nodiscard]] int run();

  // Control operations (also exercised directly by tests and the session
  // loop's control verbs). Call them on the session thread, between
  // batches.
  [[nodiscard]] bool swap_snapshot(const std::string& path,
                                   std::string* error);
  [[nodiscard]] bool apply_delta_file(const std::string& path,
                                      std::string* error);

  // The live epoch (null before start()) and the number of swaps since
  // start(); the initial load is not a swap.
  [[nodiscard]] const Epoch* epoch() const { return epoch_.get(); }
  [[nodiscard]] std::uint64_t swaps() const { return swaps_; }

  // Flags a graceful shutdown (async-signal-safe: one atomic store). The
  // session loop drains in-flight queries and returns.
  static void request_shutdown();
  [[nodiscard]] static bool shutdown_requested();
  // Re-arms the process-wide flag (tests run several sessions in-process).
  static void clear_shutdown();
  // Installs SIGTERM/SIGINT handlers that call request_shutdown(), with
  // SA_RESTART off so a blocking read observes the flag promptly, and
  // ignores SIGPIPE so a reader that hangs up on a pipe ends its session
  // with EPIPE instead of killing the process.
  static void install_signal_handlers();

 private:
  class LineIo;
  // Handles one control verb; sets `quit` when the session should end.
  [[nodiscard]] std::string control(const std::string& line, bool* quit);
  // Answers and clears `lines`, queueing the replies on `io`.
  void answer_batch(std::vector<std::string>& lines, LineIo& io);
  void install_epoch(std::unique_ptr<const Epoch> next, const char* how);
  [[nodiscard]] int run_unix();

  ServedOptions options_;
  net::Executor* executor_;
  std::unique_ptr<const Epoch> epoch_;
  std::uint64_t swaps_ = 0;
  std::uint64_t next_epoch_id_ = 0;
};

}  // namespace itm::serve
