// ThreadPool: the fork-join primitive a plan's batch shards and a
// streamed session's pipeline stages run on. Covers chunk coverage (each
// chunk run exactly once), exception propagation, and concurrent
// fork-joins from many caller threads (the BatchExecutor sharing
// pattern; also the TSan job's main target).
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"

namespace ndsnn::util {
namespace {

TEST(ThreadPoolTest, ResolveLanes) {
  EXPECT_GE(ThreadPool::resolve_lanes(0), 1);
  EXPECT_EQ(ThreadPool::resolve_lanes(1), 1);
  EXPECT_EQ(ThreadPool::resolve_lanes(7), 7);
}

TEST(ThreadPoolTest, RejectsZeroLanes) {
  EXPECT_THROW(ThreadPool(0), std::invalid_argument);
}

TEST(ThreadPoolTest, ParallelChunksRunsEveryChunkOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> marks(1000);
  pool.parallel_chunks(1000, [&](int64_t c) { marks[static_cast<std::size_t>(c)]++; });
  for (const auto& m : marks) EXPECT_EQ(m.load(), 1);
}

TEST(ThreadPoolTest, SingleLanePoolRunsInline) {
  ThreadPool pool(1);
  int64_t sum = 0;
  // One lane: chunks execute serially on the caller, no races possible.
  pool.parallel_chunks(100, [&](int64_t c) { sum += c; });
  EXPECT_EQ(sum, 99 * 100 / 2);
}

TEST(ThreadPoolTest, ChunkExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_chunks(8,
                                    [](int64_t c) {
                                      if (c == 3) throw std::runtime_error("chunk 3");
                                    }),
               std::runtime_error);
  // The pool survives a failed job and keeps serving.
  std::atomic<int> runs{0};
  pool.parallel_chunks(4, [&](int64_t) { runs++; });
  EXPECT_EQ(runs.load(), 4);
}

TEST(ThreadPoolTest, ConcurrentForkJoinsFromManyThreads) {
  // The BatchExecutor pattern: several request workers drive one shared
  // pool at once. Each caller's fork-join must see exactly its own
  // chunks complete.
  ThreadPool pool(4);
  constexpr int kCallers = 4;
  constexpr int kRounds = 25;
  std::vector<std::thread> callers;
  std::vector<int64_t> sums(kCallers, 0);
  callers.reserve(kCallers);
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        std::vector<std::atomic<int64_t>> partial(8);
        pool.parallel_chunks(8, [&](int64_t c) {
          int64_t s = 0;
          for (int64_t i = c * 100; i < (c + 1) * 100; ++i) s += i;
          partial[static_cast<std::size_t>(c)] += s;
        });
        int64_t total = 0;
        for (const auto& p : partial) total += p.load();
        sums[static_cast<std::size_t>(t)] += total;
      }
    });
  }
  for (auto& c : callers) c.join();
  const int64_t expect_per_round = 799 * 800 / 2;
  for (int t = 0; t < kCallers; ++t) {
    EXPECT_EQ(sums[static_cast<std::size_t>(t)], expect_per_round * kRounds) << t;
  }
}

}  // namespace
}  // namespace ndsnn::util
