#include "util/thread_pool.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/metrics.hpp"

namespace ndsnn::util {

namespace {

/// Dispatch counters in the process metrics registry: how often callers
/// fork-join and how many chunks the forks fanned out. Cached
/// references — registry lookups lock, the counters themselves are one
/// relaxed atomic add.
struct PoolMetrics {
  Counter& fork_joins;
  Counter& chunks;

  static PoolMetrics& get() {
    auto& reg = MetricsRegistry::global();
    static PoolMetrics m{reg.counter("pool.fork_joins"), reg.counter("pool.chunks")};
    return m;
  }
};

}  // namespace

ThreadPool::ThreadPool(int64_t lanes) : lanes_(lanes) {
  if (lanes < 1) {
    throw std::invalid_argument("ThreadPool: lanes must be >= 1");
  }
  workers_.reserve(static_cast<std::size_t>(lanes - 1));
  for (int64_t i = 0; i < lanes - 1; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool(resolve_lanes(0));
  return pool;
}

int64_t ThreadPool::range_count(const ThreadPool* pool, int64_t n, int64_t grain) {
  if (pool == nullptr || pool->lanes() <= 1 || n <= 0) return 1;
  return std::clamp<int64_t>(n / std::max<int64_t>(grain, 1), 1, pool->lanes());
}

int64_t ThreadPool::resolve_lanes(int64_t requested) {
  if (requested > 0) return requested;
  const auto hw = static_cast<int64_t>(std::thread::hardware_concurrency());
  return hw > 0 ? hw : 1;
}

void ThreadPool::run_chunk(Job& job, int64_t c) {
  try {
    (*job.fn)(c);
  } catch (...) {
    const std::lock_guard<std::mutex> lock(job.mu);
    if (!job.error) job.error = std::current_exception();
  }
  {
    const std::lock_guard<std::mutex> lock(job.mu);
    if (++job.done == job.chunks) job.cv.notify_all();
  }
}

void ThreadPool::parallel_chunks(int64_t chunks, const std::function<void(int64_t)>& fn) {
  if (chunks <= 0) return;
  if (chunks == 1 || lanes_ <= 1) {
    for (int64_t c = 0; c < chunks; ++c) fn(c);
    return;
  }
  PoolMetrics& metrics = PoolMetrics::get();
  metrics.fork_joins.add();
  metrics.chunks.add(chunks);
  auto job = std::make_shared<Job>();
  job->fn = &fn;  // the caller blocks below, so the reference outlives the job
  job->chunks = chunks;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    jobs_.push_back(job);
  }
  cv_.notify_all();
  // The caller is a lane too: steal chunks until the cursor runs out,
  // then wait for the stragglers the workers still hold.
  for (;;) {
    const int64_t c = job->next.fetch_add(1, std::memory_order_relaxed);
    if (c >= chunks) break;
    run_chunk(*job, c);
  }
  {
    std::unique_lock<std::mutex> lock(job->mu);
    job->cv.wait(lock, [&] { return job->done == job->chunks; });
  }
  if (job->error) std::rethrow_exception(job->error);
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [this] { return stop_ || !jobs_.empty(); });
    if (jobs_.empty()) return;  // stop_ and nothing in flight
    auto job = jobs_.front();
    const int64_t c = job->next.fetch_add(1, std::memory_order_relaxed);
    if (c >= job->chunks) {
      // Exhausted: retire it from the queue (the caller may still be
      // waiting on completion, which run_chunk signals independently).
      if (!jobs_.empty() && jobs_.front() == job) jobs_.pop_front();
      continue;
    }
    lock.unlock();
    run_chunk(*job, c);
    lock.lock();
  }
}

}  // namespace ndsnn::util
