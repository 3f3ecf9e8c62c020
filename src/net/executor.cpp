#include "net/executor.h"

#include <atomic>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace.h"

namespace itm::net {

namespace {

// Set while the current thread is executing a shard function; used to
// reject nested parallel_for calls, which could deadlock the pool.
thread_local bool tl_in_shard = false;

// Shards concurrently executing across all executors; its high-water mark is
// the closest analogue of "queue depth" for this pool (claimed-but-running
// work). Scheduling-dependent, so recorded in the wall-clock section.
std::atomic<std::int64_t> g_active_shards{0};

// Post-batch health rollup, attributed to the pipeline stage in flight (or
// "executor" outside any StageScope). Imbalance is max/mean shard wall time:
// 1.0 = perfectly balanced, large = one straggler shard dominated the batch.
// All wall-clock: shard durations are scheduling artifacts.
void publish_batch_health(const std::vector<std::uint64_t>& shard_micros) {
  if (shard_micros.empty()) return;
  std::uint64_t max = 0;
  std::uint64_t sum = 0;
  for (const std::uint64_t v : shard_micros) {
    max = v > max ? v : max;
    sum += v;
  }
  auto& shard_us = obs::metrics().quantile("executor.shard_us");
  for (const std::uint64_t v : shard_micros) shard_us.observe(v);
  const char* stage = obs::current_stage();
  const std::string prefix = stage[0] != '\0' ? stage : "executor";
  obs::count(prefix + ".exec_batches", 1, obs::Determinism::kWallClock);
  obs::count(prefix + ".exec_shards", shard_micros.size(),
             obs::Determinism::kWallClock);
  if (sum > 0) {
    const double mean = static_cast<double>(sum) /
                        static_cast<double>(shard_micros.size());
    obs::gauge_max(
        prefix + ".imbalance_x1000",
        static_cast<std::int64_t>(static_cast<double>(max) * 1000.0 / mean),
        obs::Determinism::kWallClock);
  }
}

}  // namespace

struct Executor::Batch {
  std::size_t n = 0;
  std::size_t shard_count = 0;
  const std::function<void(const Shard&)>* fn = nullptr;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> completed{0};
  // One slot per shard; each written by exactly one thread.
  std::vector<std::exception_ptr> errors;
  // Per-shard wall micros (same one-writer-per-slot discipline); feeds the
  // post-batch imbalance rollup.
  std::vector<std::uint64_t> shard_micros;
  std::mutex done_mutex;
  std::condition_variable done_cv;
};

Executor::Executor(std::size_t threads)
    : threads_(threads == 0 ? hardware_threads() : threads) {
  workers_.reserve(threads_ > 0 ? threads_ - 1 : 0);
  for (std::size_t i = 1; i < threads_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Executor::~Executor() {
  {
    const std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

std::size_t Executor::hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

Executor& Executor::serial() {
  static Executor instance(1);
  return instance;
}

std::size_t Executor::shard_count_for(std::size_t n) {
  constexpr std::size_t kMaxShards = 64;
  return n < kMaxShards ? n : kMaxShards;
}

void Executor::run_shards(Batch& batch) {
  const std::size_t base = batch.n / batch.shard_count;
  const std::size_t rem = batch.n % batch.shard_count;
  for (;;) {
    const std::size_t index = batch.next.fetch_add(1);
    if (index >= batch.shard_count) return;
    Shard shard;
    shard.index = index;
    shard.count = batch.shard_count;
    shard.begin = index * base + (index < rem ? index : rem);
    shard.end = shard.begin + base + (index < rem ? 1 : 0);
    obs::gauge_max(
        "executor.active_shards_hwm",
        g_active_shards.fetch_add(1, std::memory_order_relaxed) + 1,
        obs::Determinism::kWallClock);
    obs::Span span("executor.shard");
    tl_in_shard = true;
    try {
      (*batch.fn)(shard);
    } catch (...) {
      batch.errors[index] = std::current_exception();
    }
    tl_in_shard = false;
    // The span is the shard's one clock; its duration feeds the post-batch
    // imbalance rollup.
    batch.shard_micros[index] = static_cast<std::uint64_t>(span.close() * 1e6);
    g_active_shards.fetch_sub(1, std::memory_order_relaxed);
    obs::progress().add_completed(1);
    if (batch.completed.fetch_add(1) + 1 == batch.shard_count) {
      const std::lock_guard lock(batch.done_mutex);
      batch.done_cv.notify_all();
    }
  }
}

void Executor::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    std::shared_ptr<Batch> batch;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [&] {
        return stop_ || (batch_ != nullptr && generation_ != seen);
      });
      if (stop_) return;
      batch = batch_;
      seen = generation_;
    }
    run_shards(*batch);
  }
}

void Executor::parallel_for(std::size_t n,
                            const std::function<void(const Shard&)>& fn) {
  if (tl_in_shard) {
    throw std::logic_error(
        "Executor::parallel_for: nested parallelism is not supported");
  }
  if (n == 0) return;
  const std::size_t shard_count = shard_count_for(n);
  // Batch bookkeeping: shard geometry depends only on n, so these counts
  // are identical for every thread count. The thread count itself is a run
  // property, not an event count.
  obs::count("executor.batches", 1, batch_counts_);
  obs::count("executor.shards", shard_count, batch_counts_);
  obs::count("executor.items", n, batch_counts_);
  obs::gauge_set("executor.threads", static_cast<std::int64_t>(threads_),
                 obs::Determinism::kWallClock);
  obs::progress().add_expected(shard_count);
  if (obs::recorder().enabled()) {
    char fields[96];
    std::snprintf(fields, sizeof fields, "\"items\": %zu, \"shards\": %zu", n,
                  shard_count);
    obs::recorder().event("executor.batch", fields);
  }
  auto batch = std::make_shared<Batch>();
  batch->n = n;
  batch->shard_count = shard_count;
  batch->fn = &fn;
  batch->errors.resize(shard_count);
  batch->shard_micros.resize(shard_count, 0);
  // The pool joins only when it has workers and the batch more than one
  // shard; otherwise the calling thread runs every shard through the same
  // loop, and an executor without workers never touches its shared state.
  const bool pooled = !workers_.empty() && shard_count > 1;
  if (pooled) {
    {
      const std::lock_guard lock(mutex_);
      batch_ = batch;
      ++generation_;
    }
    cv_.notify_all();
  }
  run_shards(*batch);
  if (pooled) {
    {
      std::unique_lock lock(batch->done_mutex);
      batch->done_cv.wait(lock, [&] {
        return batch->completed.load() == batch->shard_count;
      });
    }
    const std::lock_guard lock(mutex_);
    batch_.reset();
  }
  publish_batch_health(batch->shard_micros);
  // Take the errors out of the batch so every exception object is released
  // on this thread: a worker may drop the last Batch reference while the
  // caller is still handling a rethrown exception.
  const auto errors = std::move(batch->errors);
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace itm::net
