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
// Hot swap is RCU-style: EpochManager keeps an atomic current-epoch
// pointer and a fixed array of per-worker hazard slots. A reader pins the
// epoch into its slot, re-checks the current pointer (retrying if a swap
// raced), answers, and clears the slot; the writer exchanges the pointer
// and then waits for every slot to let go of the old epoch before deleting
// it. Queries take no locks — a swap costs the writer a grace wait, never
// a reader a stall — and an answer is always computed against exactly one
// epoch, never a blend (asserted under TSan by tests/serve/hot_swap_test).
#pragma once

#include <array>
#include <atomic>
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
  // Hazard-pin slots: concurrent readers of an epoch (EpochManager).
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
  [[nodiscard]] const QueryEngine& engine() const { return *engine_; }

  // Replaces every line of `lines` by its answer through the engine's
  // answer cache, computing misses over `executor`
  // (QueryEngine::answer_batch), and counts them. One caller at a time;
  // engine().answer() is the cache-free, thread-safe path.
  void answer_batch(std::vector<std::string>& lines,
                    net::Executor& executor) const;

  [[nodiscard]] std::uint64_t queries() const {
    return queries_.load(std::memory_order_relaxed);
  }
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
  mutable std::atomic<std::uint64_t> queries_{0};
};

// The atomic epoch pointer plus per-reader hazard slots. One writer at a
// time (the session loop); up to kSlots concurrent readers.
class EpochManager {
 public:
  static constexpr std::size_t kSlots = Epoch::kSlots;

  EpochManager() = default;
  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;
  ~EpochManager();

  // Publishes `next` as the current epoch and waits for every reader slot
  // to release the previous one. Returns the retired epoch (fully
  // quiesced — safe to inspect and destroy); null on the first install.
  [[nodiscard]] std::unique_ptr<const Epoch> install(
      std::unique_ptr<const Epoch> next);

  // Pins the current epoch into `slot` and returns it. The epoch stays
  // valid until unpin(slot); a concurrent install() waits for the slot.
  [[nodiscard]] const Epoch* pin(std::size_t slot);
  void unpin(std::size_t slot);

  // The current epoch without pinning — only safe on the writer thread or
  // when no install can run concurrently.
  [[nodiscard]] const Epoch* current() const {
    return current_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t swaps() const {
    return swaps_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<const Epoch*> current_{nullptr};
  std::array<std::atomic<const Epoch*>, kSlots> pins_{};
  std::atomic<std::uint64_t> swaps_{0};
};

// RAII pin for query paths (exception-safe unpin, so a throwing reader can
// never wedge a writer's grace wait).
class EpochPin {
 public:
  EpochPin(EpochManager& manager, std::size_t slot)
      : manager_(&manager), slot_(slot), epoch_(manager.pin(slot)) {}
  ~EpochPin() { manager_->unpin(slot_); }
  EpochPin(const EpochPin&) = delete;
  EpochPin& operator=(const EpochPin&) = delete;

  [[nodiscard]] const Epoch* operator->() const { return epoch_; }
  [[nodiscard]] const Epoch& operator*() const { return *epoch_; }
  [[nodiscard]] const Epoch* get() const { return epoch_; }

 private:
  EpochManager* manager_;
  std::size_t slot_;
  const Epoch* epoch_;
};

struct ServedOptions {
  std::string snapshot_path;  // initial epoch (required)
  std::string listen_path;    // AF_UNIX socket path; empty = stdio session
  std::size_t cache_capacity = 4096;  // cached answers per epoch
  std::size_t max_batch = 4096;       // queries dispatched per executor batch
};

// The resident server: one EpochManager, one executor, a session loop.
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
  // loop's control verbs). Writer-side: one caller at a time.
  [[nodiscard]] bool swap_snapshot(const std::string& path,
                                   std::string* error);
  [[nodiscard]] bool apply_delta_file(const std::string& path,
                                      std::string* error);

  [[nodiscard]] EpochManager& epochs() { return epochs_; }

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
  EpochManager epochs_;
  std::uint64_t next_epoch_id_ = 0;
};

}  // namespace itm::serve
