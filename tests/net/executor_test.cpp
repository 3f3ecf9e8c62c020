#include "net/executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace itm::net {
namespace {

TEST(Executor, EmptyRangeNeverInvokesTheFunction) {
  Executor executor(4);
  std::atomic<int> calls{0};
  executor.parallel_for(0, [&calls](const Executor::Shard&) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
  EXPECT_TRUE((executor.parallel_map<int>(0, [](std::size_t) { return 1; }))
                  .empty());
}

TEST(Executor, SingleItemRunsExactlyOnce) {
  Executor executor(4);
  std::atomic<int> calls{0};
  executor.parallel_for(1, [&calls](const Executor::Shard& shard) {
    ++calls;
    EXPECT_EQ(shard.begin, 0u);
    EXPECT_EQ(shard.end, 1u);
    EXPECT_EQ(shard.index, 0u);
    EXPECT_EQ(shard.count, 1u);
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(Executor, MoreThreadsThanItemsCoversEachItemOnce) {
  Executor executor(8);
  std::vector<std::atomic<int>> touched(3);
  executor.parallel_for(3, [&touched](const Executor::Shard& shard) {
    for (std::size_t i = shard.begin; i < shard.end; ++i) ++touched[i];
  });
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(Executor, ShardsPartitionTheRange) {
  // Shard geometry is a pure function of n: contiguous, disjoint, complete.
  for (const std::size_t n : {1u, 7u, 63u, 64u, 65u, 1000u}) {
    Executor executor(3);
    std::vector<std::atomic<int>> touched(n);
    std::atomic<std::size_t> shards_seen{0};
    executor.parallel_for(n, [&touched, &shards_seen,
                              n](const Executor::Shard& shard) {
      ++shards_seen;
      EXPECT_EQ(shard.count, Executor::shard_count_for(n));
      for (std::size_t i = shard.begin; i < shard.end; ++i) ++touched[i];
    });
    EXPECT_EQ(shards_seen.load(), Executor::shard_count_for(n));
    for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
  }
}

TEST(Executor, ParallelMapPreservesIndexOrder) {
  Executor executor(4);
  const auto out = executor.parallel_map<std::size_t>(
      1000, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 1000u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(Executor, ResultsIdenticalAcrossThreadCounts) {
  const auto run = [](std::size_t threads) {
    Executor executor(threads);
    return executor.parallel_map<double>(
        512, [](std::size_t i) { return static_cast<double>(i) * 0.5 + 1; });
  };
  const auto serial = run(1);
  EXPECT_EQ(serial, run(2));
  EXPECT_EQ(serial, run(4));
  EXPECT_EQ(serial, run(13));
}

TEST(Executor, MapShardsReturnsOnePerShardInOrder) {
  Executor executor(4);
  const std::size_t n = 1000;
  const auto sums = executor.map_shards<std::uint64_t>(
      n, [](const Executor::Shard& shard) {
        std::uint64_t sum = 0;
        for (std::size_t i = shard.begin; i < shard.end; ++i) sum += i;
        return sum;
      });
  EXPECT_EQ(sums.size(), Executor::shard_count_for(n));
  const auto total = std::accumulate(sums.begin(), sums.end(),
                                     std::uint64_t{0});
  EXPECT_EQ(total, std::uint64_t{n} * (n - 1) / 2);
}

TEST(Executor, ExceptionFromWorkerPropagatesLowestShardFirst) {
  // Every thread count runs the same shard loop: a throwing shard does not
  // stop the others, and the lowest-index error is the one rethrown.
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    Executor executor(threads);
    std::atomic<int> ran{0};
    const auto run = [&] {
      executor.parallel_for(64, [&ran](const Executor::Shard& shard) {
        ++ran;
        if (shard.index == 5) throw std::runtime_error("shard five");
        if (shard.index == 40) throw std::runtime_error("shard forty");
      });
    };
    EXPECT_THROW(run(), std::runtime_error);
    EXPECT_EQ(ran.load(), 64);
    ran = 0;
    try {
      run();
      ADD_FAILURE() << "no exception rethrown";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "shard five");
    }
    EXPECT_EQ(ran.load(), 64);
    // The executor survives an exceptional batch.
    std::atomic<int> calls{0};
    executor.parallel_for(8, [&calls](const Executor::Shard&) { ++calls; });
    EXPECT_EQ(calls.load(), static_cast<int>(Executor::shard_count_for(8)));
  }
}

TEST(Executor, NestedSubmitIsRejected) {
  Executor executor(4);
  const auto nested = [&] {
    executor.parallel_for(16, [&executor](const Executor::Shard&) {
      // The nested call is the point of this test: it must throw.
      // itm-lint: allow(executor-reentrancy)
      executor.parallel_for(2, [](const Executor::Shard&) {});
    });
  };
  EXPECT_THROW(nested(), std::logic_error);
  // Also rejected when the inner call targets a different executor (any
  // nested region could deadlock or oversubscribe).
  Executor other(2);
  const auto cross_nested = [&] {
    executor.parallel_for(16, [&other](const Executor::Shard&) {
      // Deliberate cross-executor nesting; the guard must still reject it.
      // itm-lint: allow(executor-reentrancy)
      other.parallel_for(2, [](const Executor::Shard&) {});
    });
  };
  EXPECT_THROW(cross_nested(), std::logic_error);
}

TEST(Executor, ZeroSelectsHardwareConcurrency) {
  Executor executor(0);
  EXPECT_GE(executor.thread_count(), 1u);
  EXPECT_EQ(executor.thread_count(), Executor::hardware_threads());
}

TEST(Executor, ManyConcurrentIncrementsSumCorrectly) {
  Executor executor(4);
  std::atomic<std::uint64_t> sum{0};
  executor.parallel_for(10000, [&sum](const Executor::Shard& shard) {
    for (std::size_t i = shard.begin; i < shard.end; ++i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(sum.load(), std::uint64_t{10000} * 9999 / 2);
}

TEST(Executor, BackToBackBatchesReuseThePool) {
  Executor executor(4);
  for (int round = 0; round < 50; ++round) {
    const auto out = executor.parallel_map<int>(
        97, [round](std::size_t i) { return static_cast<int>(i) + round; });
    ASSERT_EQ(out.size(), 97u);
    EXPECT_EQ(out[96], 96 + round);
  }
}

}  // namespace
}  // namespace itm::net
