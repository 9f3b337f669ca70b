// Shared execution thread pool for intra-op parallelism.
//
// One fixed set of worker threads serves every parallel kernel of a
// compiled plan (runtime::Plan owns the pool; ops borrow it), so a hot
// loop pays a queue handoff instead of a per-call thread spawn.
// parallel_chunks() is a blocking fork-join over precomputed index
// ranges: the calling thread claims chunks alongside the workers (a
// pool of `lanes` applies `lanes` execution lanes with lanes-1 helper
// threads), and concurrent calls from different threads — the
// BatchExecutor's request workers sharing one plan pool — interleave in
// the queue and steal chunks from whichever call is in flight.
//
// Determinism: the pool changes *who* computes, never *what*. Every
// kernel that dispatches through it partitions by output row / output
// channel, so each output element is produced by exactly one chunk
// running the identical serial accumulation order; fp32 results are
// bitwise independent of the lane count (pinned by
// tests/runtime/parallel_runtime_test.cpp across the differential
// harness configs).
//
// Telemetry: dispatches increment the process metrics registry
// (pool.fork_joins / pool.chunks / pool.serial_inline — relaxed
// counters, one atomic add per call), so a metrics dump shows how
// often the kernels actually went parallel vs fell below
// kMinParallelWork.
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

/// Inner-loop work (FMA-scale iterations) below which a kernel should
/// stay serial: the fork-join handoff (~5-20us of wakeup + completion
/// wait) costs more than the loop itself. Calibrated on the lenet5 fc
/// layers: fc2 [84 x 120] at 0.9 sparsity over a T*N=16 batch is ~16k
/// terms and stays serial, fc1 [120 x 400] is ~77k and dispatches.
constexpr int64_t kMinParallelWork = int64_t{1} << 15;

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

  /// How many chunks a kernel with `work` total inner iterations should
  /// split into: one chunk per kMinParallelWork of work, capped by the
  /// lane count and by `max_chunks` (the partitionable extent, e.g. the
  /// output row count). Returns 1 — stay serial — for small work.
  [[nodiscard]] int64_t chunks_for(int64_t work, int64_t max_chunks) const;

  /// Blocking fork-join: invoke fn(c) for every c in [0, chunks), in
  /// parallel across the pool, caller participating. Returns when all
  /// chunks completed; the first chunk exception (if any) is rethrown
  /// here. fn must not call back into the pool (no nesting).
  void parallel_chunks(int64_t chunks, const std::function<void(int64_t)>& fn);

  /// Convenience fork-join over an even split of [begin, end) into
  /// `chunks` ranges: fn(lo, hi) per chunk.
  void parallel_for(int64_t begin, int64_t end, int64_t chunks,
                    const std::function<void(int64_t, int64_t)>& fn);

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

/// chunks_for over a possibly-absent pool: a null pool is serial.
[[nodiscard]] int64_t chunks_for(const ThreadPool* pool, int64_t work, int64_t max_chunks);

/// Split rows [0, rows) into at most `chunks` contiguous ranges of
/// near-equal *weight*, where `prefix` is a prefix-sum array of length
/// rows + 1 (weight of row r = prefix[r+1] - prefix[r]; a Csr row_ptr
/// is exactly this). Greedy walk against the
/// ideal cumulative targets; never emits an empty range. Returns the
/// bounds vector {0, b1, ..., rows} (size = actual chunks + 1).
[[nodiscard]] std::vector<int64_t> balanced_bounds(const int64_t* prefix, int64_t rows,
                                                   int64_t chunks);

/// Even split of [begin, end) into at most `chunks` non-empty ranges.
[[nodiscard]] std::vector<int64_t> even_bounds(int64_t begin, int64_t end, int64_t chunks);

/// The kernels' one dispatch pattern: split rows [0, rows) into
/// chunks_for(work, rows) weight-balanced ranges (prefix as in
/// balanced_bounds) and fork-join fn(lo, hi) across the pool; a null
/// pool or sub-threshold work runs fn(0, rows) inline on the caller.
void parallel_balanced(ThreadPool* pool, const int64_t* prefix, int64_t rows, int64_t work,
                       const std::function<void(int64_t, int64_t)>& fn);

/// Unweighted sibling of parallel_balanced: even ranges over
/// [begin, end), serial inline (fn(begin, end)) on a null pool or
/// sub-threshold work.
void parallel_even(ThreadPool* pool, int64_t begin, int64_t end, int64_t work,
                   const std::function<void(int64_t, int64_t)>& fn);

}  // namespace ndsnn::util
