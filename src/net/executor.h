// Deterministic sharded parallelism for the map-build pipeline.
//
// Executor is a small fixed-size thread pool exposing parallel_for /
// parallel_map over an index range [0, n). The range is split into
// contiguous shards whose boundaries depend ONLY on n — never on the thread
// count or on scheduling — so a caller that merges per-shard results in
// shard order (or writes per-index slots) produces bit-identical output
// whether the work ran on 1 thread or 16. This is the repo's determinism
// contract (DESIGN.md decision #6): parallelism must never change results,
// only wall-clock time.
//
// Rules of use:
//   * Shard functions must not share mutable state except through their own
//     per-shard / per-index output slots; RNG-consuming stages derive one
//     stream per item or per shard via Rng::split, never share a generator.
//   * Nested parallelism is rejected: calling parallel_for from inside a
//     shard function throws std::logic_error (a worker blocking on a child
//     batch could deadlock the pool). Structure stages as flat loops.
//   * Exceptions thrown by shard functions are captured and the first one
//     (lowest shard index) is rethrown on the calling thread after the
//     batch drains; remaining shards still run.
//
// Every thread count runs one shard loop. Executor(1) spawns no workers, so
// its calling thread claims every shard itself; the batch, the timing and
// the error handling are the ones a pool of 16 uses.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace itm::net {

class Executor {
 public:
  // threads == 0 selects hardware_threads(). The calling thread counts
  // toward the total and participates in every batch, so Executor(4) spawns
  // three workers.
  explicit Executor(std::size_t threads = 0);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  [[nodiscard]] std::size_t thread_count() const { return threads_; }

  // The class of the batch bookkeeping counts (executor.batches, .shards,
  // .items): deterministic where batch sizes are a function of the input.
  // A server whose batches form from what a client has sent so far
  // re-classes them as wall-clock.
  void set_batch_count_class(obs::Determinism det) { batch_counts_ = det; }

  [[nodiscard]] static std::size_t hardware_threads();

  // Process-wide single-threaded executor for callers given no pool. It has
  // no workers, so parallel_for never touches its shared state and any
  // number of threads may use it at once.
  [[nodiscard]] static Executor& serial();

  // One contiguous slice of the index range.
  struct Shard {
    std::size_t begin = 0;
    std::size_t end = 0;    // exclusive
    std::size_t index = 0;  // shard ordinal in [0, count)
    std::size_t count = 0;  // total shards in this batch
  };

  // Number of shards a range of n items is split into: min(n, 64), a pure
  // function of n so that shard boundaries are schedule-independent.
  [[nodiscard]] static std::size_t shard_count_for(std::size_t n);

  // Runs fn once per shard, blocking until every shard finishes. Shards are
  // claimed dynamically by the pool (and by the calling thread); fn must be
  // safe to invoke concurrently. Throws std::logic_error when called from
  // inside a shard function.
  void parallel_for(std::size_t n, const std::function<void(const Shard&)>& fn);

  // fn(i) -> T for every index, results returned in index order. T must be
  // default-constructible; each slot is written by exactly one invocation,
  // so the output is identical for every thread count.
  template <typename T, typename Fn>
  [[nodiscard]] std::vector<T> parallel_map(std::size_t n, Fn&& fn) {
    std::vector<T> out(n);
    parallel_for(n, [&out, &fn](const Shard& shard) {
      for (std::size_t i = shard.begin; i < shard.end; ++i) out[i] = fn(i);
    });
    return out;
  }

  // fn(shard) -> T per shard, results in shard order — the building block
  // for ordered merges of per-shard accumulators.
  template <typename T, typename Fn>
  [[nodiscard]] std::vector<T> map_shards(std::size_t n, Fn&& fn) {
    std::vector<T> out(shard_count_for(n));
    parallel_for(n, [&out, &fn](const Shard& shard) {
      out[shard.index] = fn(shard);
    });
    return out;
  }

 private:
  struct Batch;

  void worker_loop();
  static void run_shards(Batch& batch);

  std::size_t threads_ = 1;
  obs::Determinism batch_counts_ = obs::Determinism::kDeterministic;
  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::shared_ptr<Batch> batch_;  // non-null while a batch is open
  std::uint64_t generation_ = 0;
  bool stop_ = false;
};

}  // namespace itm::net
