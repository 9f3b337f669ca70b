// Shared execution thread pool.
//
// One fixed set of worker threads serves a compiled plan's batch shards
// (runtime::Plan owns the pool; CompiledNetwork::infer runs one row
// shard of the batch per lane through the serial plan), so a call pays
// a queue handoff instead of a thread spawn. parallel_chunks() is a blocking fork-join: the
// calling thread claims chunks alongside the workers (a pool of `lanes`
// applies `lanes` execution lanes with lanes-1 helper threads), and
// concurrent calls from different threads — the BatchExecutor's request
// workers sharing one plan pool — interleave in the queue and steal
// chunks from whichever call is in flight.
//
// Telemetry: dispatches increment the process metrics registry
// (pool.fork_joins / pool.chunks — relaxed counters, one atomic add per
// call).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace ndsnn::util {

class ThreadPool {
 public:
  /// A pool of `lanes` execution lanes: the calling thread plus
  /// lanes - 1 workers. lanes must be >= 1 (1 = no workers, every
  /// parallel_chunks call degenerates to an inline serial loop).
  explicit ThreadPool(int64_t lanes);

  /// Joins the workers. Must not run concurrently with parallel_chunks.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// CompileOptions::num_threads semantics: 0 resolves to
  /// std::thread::hardware_concurrency() (at least 1), anything else is
  /// taken literally.
  [[nodiscard]] static int64_t resolve_lanes(int64_t requested);

  [[nodiscard]] int64_t lanes() const { return lanes_; }

  /// Blocking fork-join: invoke fn(c) for every c in [0, chunks), in
  /// parallel across the pool, caller participating. Returns when all
  /// chunks completed; the first chunk exception (if any) is rethrown
  /// here. fn must not call back into the pool (no nesting).
  void parallel_chunks(int64_t chunks, const std::function<void(int64_t)>& fn);

 private:
  /// One fork-join call in flight. Chunks are claimed with an atomic
  /// cursor (workers and the caller steal from the same counter);
  /// completion is a mutex-guarded count so the caller's wait cannot
  /// miss the last wakeup.
  struct Job {
    const std::function<void(int64_t)>* fn = nullptr;
    int64_t chunks = 0;
    std::atomic<int64_t> next{0};
    std::mutex mu;
    std::condition_variable cv;
    int64_t done = 0;               ///< guarded by mu
    std::exception_ptr error;       ///< first chunk failure, guarded by mu
  };

  void worker_loop();
  static void run_chunk(Job& job, int64_t c);

  int64_t lanes_ = 1;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<Job>> jobs_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace ndsnn::util
