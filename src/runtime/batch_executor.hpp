// BatchExecutor: SLO-aware serving scheduler for a CompiledNetwork.
//
// A small pool of request workers drains inference requests; each
// request is one input batch [N, ...] and resolves to the mean logits
// [N, classes] through a std::future. The CompiledNetwork plan is
// immutable, so workers share it without synchronization.
//
// Scheduling (PR 7): the queue is not a single FIFO. Requests are
// binned into per-(SLO class, sample shape) sub-queues, and a free
// worker always picks the sub-queue whose *head* is most urgent:
// interactive class before batch class, earliest deadline first (EDF)
// within a class. A request's deadline is its enqueue time plus its
// class's SLO budget (ExecutorOptions::slo_ms, scaled by
// kBatchSloFactor for the batch class); with no SLO configured the
// deadline degenerates to the enqueue time and EDF is exactly
// arrival-order FIFO.
//
// Coalescing without head-of-line blocking: with max_coalesce > 1 a
// worker that picks a sub-queue keeps popping follow-up requests *from
// that same sub-queue* (same shape by construction, so always fusable)
// into one time-major pass of up to max_coalesce samples, splitting the
// logits back per request afterwards. It holds the group open for up to
// max_wait_us waiting for stragglers ONLY while no other request of any
// shape is runnable; the moment an incompatible request arrives the
// group runs with what it has. The previous design popped from one
// global FIFO and could neither fuse same-shape requests separated by
// an incompatible one (interleaved shapes collapsed coalescing to
// nothing) nor stop holding a partial group when foreign work queued
// behind it — tests/runtime/batch_executor_test.cpp pins both fixes.
//
// Admission control: with slo_ms > 0, submit() predicts the end-to-end
// latency a new request would see — predicted queue wait plus the
// request's expected service time — and sheds it immediately (the
// future throws ShedError) once that exceeds the request's SLO budget.
// The wait predictor is the larger of (a) a drain-time estimate, queued
// samples times an EMA of observed per-sample service time divided by
// the worker count, and (b) the recent queue-wait histogram's p90 (the
// PR 6 log-bucket histogram machinery over a short sliding window):
// (a) reacts instantly to bursts, (b) remembers steady-state queueing
// that an instantaneous depth reading misses, and a tail percentile —
// not the median — is what keeps admitted p99 inside the budget.
// Shedding at admission keeps the queue short enough that admitted
// requests meet their budget instead of everyone timing out together.
//
// The predictor can only learn from completions, so two guards stop it
// from latching permanently shut after a spike fills the wait window
// with above-budget samples: the histogram term is ignored while the
// executor is fully idle (no queued or in-flight samples — a new
// request then truly waits ~nothing), and every kShedProbeInterval-th
// consecutive would-shed request is admitted anyway as a probe whose
// completion refreshes the window and the service EMA. A probe is
// exempt from the dispatch-time shed, which charges the same service
// EMA and would otherwise drop every probe before it completes.
//
// Streaming (PR 9): open_stream() attaches a StreamSession — persistent
// per-layer neuron state, one timestep per submit_stream() — to the
// executor. Stream steps live on per-session FIFOs (temporal order is
// part of the semantics, so they never mix into the shape-binned
// sub-queues and are never shed by admission control), outrank every
// queued request (slo_priority: kStream < kInteractive < kBatch), and a
// free worker drains ALL queued steps of a session in one pass, one
// StreamSession::step per frame.
//
// Thread budget: the constructor's num_threads is the *total* worker
// budget. When the plan was compiled with a shard pool
// (CompileOptions::num_threads > 1), each worker's infer() call runs
// the batch's row shards on that pool's lanes, so the executor spawns
// max(1, num_threads / intra_op_threads) request workers: workers x
// plan lanes stays within the budget instead of oversubscribing the
// machine.
//
// Determinism: a request's logits never depend on which worker ran it,
// how many workers exist or which other requests were shed; shedding
// affects only *whether* a request runs. Fusing and row sharding are
// bitwise-exact for fp32 plans, and for quantised plans whose linear
// layers read spike inputs (every op processes batch rows independently,
// and integer-code sums of spikes are exact). A quantised linear layer
// fed non-spike activations is not: quantised Csr::spmm_t sums in a
// different order when a pass has >= 8 rows (its AVX2 route) than below,
// so a fused or sharded request can differ from a solo run in the last
// bits.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "runtime/compiled_network.hpp"
#include "runtime/inference.hpp"
#include "tensor/tensor.hpp"
#include "util/metrics.hpp"

namespace ndsnn::runtime {

class StreamSession;

/// Serving statistics snapshot. Service latency (mean/p50/p95/p99/max)
/// is measured per request from execution start to completion on the
/// worker; queue wait (queue_*) from enqueue to the moment a worker
/// pops the request; e2e_* is their per-request sum — the latency a
/// client actually observes and the quantity SLO violations are counted
/// against. Every request of a fused pass reports that pass's service
/// latency and its own queue wait. Percentiles are nearest-rank over a
/// sliding window of the most recent requests (kLatencyWindow) so a
/// long-lived executor's memory and stats() cost stay bounded;
/// requests/samples/shed/violation counts are all-time totals.
struct ExecutorStats {
  int64_t requests = 0;  ///< requests fully processed (admitted only)
  int64_t samples = 0;   ///< batch rows fully processed
  int64_t fused_batches = 0;       ///< coalesced passes (>= 2 requests each)
  int64_t coalesced_requests = 0;  ///< requests served inside a fused pass
  /// Requests that never executed: refused by admission control at
  /// submit, dropped at dispatch once their deadline became
  /// unreachable, or submitted after shutdown. Their futures throw
  /// ShedError.
  int64_t shed_requests = 0;
  /// Admitted requests whose end-to-end latency (wait + service)
  /// exceeded their SLO budget. Only counted while slo_ms > 0.
  int64_t slo_violations = 0;
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  /// Enqueue -> execution-start wait over the same sliding window.
  double queue_mean_ms = 0.0;
  double queue_p50_ms = 0.0;
  double queue_p95_ms = 0.0;
  /// End-to-end (wait + service) per request over the same window.
  double e2e_p50_ms = 0.0;
  double e2e_p95_ms = 0.0;
  double e2e_p99_ms = 0.0;
  /// Requests waiting in the sub-queues at snapshot time.
  int64_t queue_depth = 0;
  /// Streaming sessions currently open (open_stream - closed/drained).
  int64_t open_streams = 0;
  /// Stream timesteps fully processed (all-time; separate from
  /// `requests` — stream steps never enter the request sub-queues).
  int64_t stream_steps = 0;
  /// Stream steps refused at submit because their session's queue was
  /// at BatchExecutor::kMaxStreamQueue (futures threw
  /// BackpressureError). Counted apart from shed_requests: these steps
  /// are expected to be *resubmitted*, not abandoned.
  int64_t backpressure_rejections = 0;
  /// Admission predictor's current queue-wait estimate (ms).
  double predicted_wait_ms = 0.0;
  /// Mean fraction of wall time the request workers spent executing:
  /// busy time / (elapsed * workers), where elapsed is measured from
  /// the FIRST submitted request — a warm executor that idled before
  /// traffic arrived no longer dilutes its own utilization. Zero until
  /// the first request.
  double worker_utilization = 0.0;
  /// Per-worker busy fraction (index = worker spawn order).
  std::vector<double> utilization_per_worker;
};

/// Scheduling knobs (defaults: coalescing off, no SLO — plain FIFO).
struct ExecutorOptions {
  /// Maximum *samples* (batch rows) per fused pass; <= 1 disables
  /// coalescing. A request bigger than the cap still runs alone.
  int64_t max_coalesce = 1;
  /// How long a worker holding fewer than max_coalesce samples waits
  /// for more same-shape requests before running what it has. The wait
  /// only happens while no other request is runnable; foreign arrivals
  /// end it immediately. 0 = only fuse what is already queued.
  int64_t max_wait_us = 0;
  /// Interactive-class SLO budget in milliseconds. > 0 enables EDF
  /// deadlines, admission control (shedding) and SLO-violation
  /// accounting; 0 disables all three (nothing is ever shed).
  double slo_ms = 0.0;
};

class BatchExecutor {
 public:
  /// Spin up workers over a compiled plan with a total thread budget of
  /// `num_threads` (>= 1; see the header comment for the inter/intra
  /// split). The plan must outlive the executor.
  BatchExecutor(const CompiledNetwork& net, int64_t num_threads,
                const ExecutorOptions& opts = {});

  /// Drains the queue, then joins the workers.
  ~BatchExecutor();

  BatchExecutor(const BatchExecutor&) = delete;
  BatchExecutor& operator=(const BatchExecutor&) = delete;

  /// Enqueue one inference request (the consolidated entry point); the
  /// future resolves to an InferenceResult whose latency_ms is the
  /// request's end-to-end time (queue wait + service). Never throws for
  /// queue-state reasons: a request shed by admission control or
  /// submitted after shutdown() gets a future that throws ShedError
  /// instead — the caller decides whether that is an error, mid-drain
  /// races included. Throws std::invalid_argument for SloClass::kStream
  /// — stream steps belong to a session (open_stream / submit_stream),
  /// not the request queue.
  [[nodiscard]] std::future<InferenceResult> submit(InferenceRequest request);

  /// Open a streaming session over the served plan: persistent neuron
  /// state on the executor, one timestep per submit_stream() call.
  /// Returns the session id. Throws ShedError after shutdown().
  [[nodiscard]] uint64_t open_stream();

  /// Enqueue one timestep frame [N, ...] for an open stream. Steps of a
  /// session run in submission order; a worker drains every queued step
  /// of the session in one pass (StreamSession::step per frame).
  /// Stream steps outrank interactive requests (slo_priority) and are
  /// never shed by admission control — dropping a middle timestep would
  /// corrupt the temporal state — but steps queued at shutdown() or
  /// after close_stream() resolve with ShedError, and a step that finds
  /// kMaxStreamQueue steps already queued resolves with
  /// BackpressureError (session untouched: resubmit the same frame).
  /// latency_ms of each result covers enqueue -> step completion.
  /// Unknown ids resolve with std::invalid_argument through the future.
  [[nodiscard]] std::future<InferenceResult> submit_stream(uint64_t stream,
                                                          tensor::Tensor frame);

  /// Close a stream: queued steps still run, then the session and its
  /// neuron state are dropped. Idempotent; unknown ids are a no-op.
  void close_stream(uint64_t stream);

  /// Stop accepting work, finish queued requests, join workers.
  /// Idempotent; also called by the destructor.
  void shutdown();

  /// Request workers actually spawned (the budget divided by the plan's
  /// shard lanes).
  [[nodiscard]] int64_t num_threads() const {
    return static_cast<int64_t>(workers_.size());
  }
  /// Shard lanes of the served plan (1 = serial plan).
  [[nodiscard]] int64_t intra_op_threads() const { return intra_op_threads_; }

  /// Throughput totals, service / queue-wait / end-to-end percentiles
  /// over the most recent kLatencyWindow requests (nearest rank), shed
  /// and SLO-violation counts, queue depth, the admission predictor's
  /// current estimate, and per-worker utilization since first request.
  [[nodiscard]] ExecutorStats stats() const;

  /// Latency samples retained for percentile estimation.
  static constexpr std::size_t kLatencyWindow = 8192;
  /// Per-session cap on *queued* stream steps (the step being executed
  /// no longer counts). The wire server queues at most one step per
  /// session (it waits on each step before reading the next frame), so
  /// the cap only binds a client pipelining steps in process, and keeps
  /// a stalled worker from letting one session queue without limit.
  static constexpr int64_t kMaxStreamQueue = 64;
  /// Queue waits retained by the admission predictor's histogram; a
  /// short window so the prediction decays quickly after a load spike.
  /// The window only refreshes through completions — the idle gate and
  /// probe admissions (kShedProbeInterval) guarantee completions keep
  /// happening even out of a shed-everything regime.
  static constexpr std::size_t kPredictorWindow = 512;
  /// Every Nth consecutive request the admission predictor would shed
  /// is admitted anyway, so the predictor keeps observing reality and
  /// can re-open once the overload has passed.
  static constexpr int64_t kShedProbeInterval = 32;
  /// The batch class's SLO budget is slo_ms * kBatchSloFactor.
  static constexpr double kBatchSloFactor = 4.0;

 private:
  struct Request {
    tensor::Tensor batch;
    int64_t samples = 0;
    std::promise<InferenceResult> promise;
    SloClass slo = SloClass::kInteractive;
    /// When submit() enqueued the request: the queue-wait clock.
    std::chrono::steady_clock::time_point enqueued;
    /// enqueued + the class's SLO budget (== enqueued when slo_ms == 0,
    /// making EDF identical to arrival order).
    std::chrono::steady_clock::time_point deadline;
    /// Same instant on the trace clock (only filled while tracing).
    double trace_ts_us = 0.0;
    /// Enqueue -> pop wait, filled when a worker takes the request.
    double wait_ms = 0.0;
    /// Admitted by submit() as a kShedProbeInterval probe: runs even
    /// when the dispatch-time shed would drop it.
    bool probe = false;
  };

  /// One scheduling bin: every queued request with this SLO class and
  /// per-sample shape (trailing dims; dim 0 is the batch axis). Within
  /// a bin, arrival order == deadline order, so the head is the bin's
  /// most urgent request. Empty bins are erased.
  struct SubQueue {
    SloClass slo = SloClass::kInteractive;
    std::vector<int64_t> shape;
    std::deque<Request> q;
  };

  /// One timestep waiting on a stream's own FIFO (never in the request
  /// sub-queues: per-session order is part of the semantics).
  struct StreamStep {
    tensor::Tensor frame;
    std::promise<InferenceResult> promise;
    std::chrono::steady_clock::time_point enqueued;
  };

  /// One open streaming session: the state-carrying StreamSession plus
  /// its step FIFO. `busy` marks a worker mid-drain (exactly one worker
  /// serves a session at a time — temporal order); `closed` defers the
  /// erase to that worker when set mid-drain.
  struct StreamEntry {
    std::unique_ptr<StreamSession> session;
    std::deque<StreamStep> steps;
    bool busy = false;
    bool closed = false;
  };

  void worker_loop(std::size_t worker);
  /// Lowest-id stream with runnable steps and no worker on it, or 0.
  /// Caller holds mu_.
  [[nodiscard]] uint64_t pick_stream_locked() const;
  /// Drain every queued step of stream `sid` in one pass and resolve
  /// the promises. Called by a worker that holds `lock`;
  /// releases it around execution, reacquires before returning.
  void drain_stream(uint64_t sid, std::unique_lock<std::mutex>& lock,
                    std::size_t worker);
  /// Index of the sub-queue whose head is most urgent ((class,
  /// deadline) lexicographic min), or -1 when nothing is queued.
  /// Caller holds mu_.
  [[nodiscard]] int pick_queue() const;
  /// Sub-queue index for (slo, shape), or -1. Caller holds mu_.
  [[nodiscard]] int find_queue(SloClass slo, const std::vector<int64_t>& shape) const;
  /// Admission predictor (ms). Caller holds mu_.
  [[nodiscard]] double predicted_wait_ms_locked() const;
  /// SLO budget of a class in ms (infinity semantics via slo_ms == 0
  /// are handled by the callers). Requires opts_.slo_ms > 0.
  [[nodiscard]] double budget_ms(SloClass slo) const;
  /// Pop the most urgent request plus same-shape followers up to the
  /// coalesce cap, holding the group open for stragglers only while
  /// nothing else is runnable (caller holds mu_ via `lock`). With an
  /// SLO configured, heads that are already doomed — expected finish
  /// past their deadline even if started now — are popped into `doomed`
  /// instead (lazy shed at dispatch; the caller resolves them with
  /// ShedError outside the lock). May return an empty group when every
  /// queued head was doomed.
  std::vector<Request> take_group(std::unique_lock<std::mutex>& lock,
                                  std::vector<Request>& doomed);
  /// Pop the head of queues_[qi] with wait bookkeeping. Caller holds mu_.
  Request pop_head(int qi);
  void run_group(std::vector<Request>& group, std::size_t worker);
  void record(const std::vector<Request>& group, int64_t samples, double ms, bool fused,
              std::size_t worker);

  const CompiledNetwork& net_;
  const ExecutorOptions opts_;
  int64_t intra_op_threads_ = 1;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  /// unique_ptr: SubQueue holds promises (move-only) and vector
  /// reallocation must not try to copy them.
  std::vector<std::unique_ptr<SubQueue>> queues_;
  int64_t queued_requests_ = 0;  ///< total across sub-queues
  int64_t queued_samples_ = 0;   ///< total batch rows across sub-queues
  /// Open streaming sessions by id (std::map: pick_stream_locked scans
  /// in id order, so stream service order is deterministic).
  std::map<uint64_t, StreamEntry> streams_;
  uint64_t next_stream_id_ = 1;
  int64_t queued_stream_steps_ = 0;  ///< steps waiting across all streams
  int64_t stream_steps_ = 0;         ///< steps fully processed (all-time)
  /// Samples taken by workers but not yet finished: the admission
  /// predictor's drain term counts them too (a running fused pass
  /// delays new arrivals just like queued work does).
  int64_t inflight_samples_ = 0;
  bool stopping_ = false;
  bool has_first_request_ = false;
  std::chrono::steady_clock::time_point first_request_;  ///< utilization denominator
  int64_t done_requests_ = 0;  ///< requests fully processed (all-time)
  int64_t done_samples_ = 0;   ///< batch rows fully processed (all-time)
  int64_t fused_batches_ = 0;
  int64_t coalesced_requests_ = 0;
  int64_t shed_requests_ = 0;
  int64_t backpressure_rejections_ = 0;
  int64_t slo_violations_ = 0;
  /// EMA of observed service time per sample (ms); the drain-time term
  /// of the admission predictor.
  double ema_service_per_sample_ms_ = 0.0;
  /// Consecutive would-shed submits since the last admission; at
  /// kShedProbeInterval the next one is admitted as a probe.
  int64_t sheds_since_probe_ = 0;
  /// One completed request's latencies; e2e is their sum.
  struct Latency {
    double wait_ms = 0.0;
    double service_ms = 0.0;
  };
  std::vector<Latency> latencies_;  ///< ring of the last kLatencyWindow requests
  std::size_t latency_next_ = 0;    ///< ring write cursor
  /// Admission predictor: log-bucket counts (util::HistogramSnapshot
  /// bucket math) over the last kPredictorWindow queue waits in us.
  std::array<int32_t, util::HistogramSnapshot::kBuckets> recent_wait_counts_{};
  std::vector<int16_t> recent_wait_buckets_;  ///< ring of bucket indices
  std::size_t recent_wait_next_ = 0;
  std::vector<double> busy_ms_;       ///< per-worker execution time

  std::vector<std::thread> workers_;
};

}  // namespace ndsnn::runtime
