#include "runtime/batch_executor.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "runtime/stream_session.hpp"
#include "runtime/trace.hpp"
#include "tensor/ops.hpp"
#include "util/fault_injection.hpp"
#include "util/metrics.hpp"
#include "util/stopwatch.hpp"

namespace ndsnn::runtime {

using tensor::Shape;
using tensor::Tensor;

namespace {

/// Per-sample layout of a request: every dim after the batch axis.
/// Requests with equal keys (and equal SLO class) share a sub-queue and
/// are always fusable.
std::vector<int64_t> shape_key(const Tensor& t) {
  std::vector<int64_t> key;
  for (int64_t d = 1; d < t.rank(); ++d) key.push_back(t.dim(d));
  return key;
}

double ms_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Resolve a request's or stream step's future with ShedError. Caller
/// must NOT hold mu_.
template <typename Item>
void shed(Item& item, const char* why) {
  item.promise.set_exception(std::make_exception_ptr(ShedError(why)));
}

/// Fail every promise of `items` with its own copy of `error`, same
/// what(): a shared one's refcount is invisible to ThreadSanitizer.
template <typename Items>
void fail_each(const std::exception_ptr& error, Items& items) {
  const auto fail = [&](const auto& copy) {
    for (auto& item : items) item.promise.set_exception(std::make_exception_ptr(copy));
  };
  try {
    std::rethrow_exception(error);
  } catch (const std::invalid_argument& e) {  // a malformed batch or frame stays one
    fail(std::invalid_argument(e.what()));
  } catch (const std::exception& e) {
    fail(std::runtime_error(e.what()));
  } catch (...) {
    fail(std::runtime_error("BatchExecutor: unknown error"));
  }
}

/// Process-wide serving metrics (util::MetricsRegistry). Looked up once;
/// the references stay valid for the process lifetime.
struct ExecutorMetrics {
  util::Counter& requests;
  util::Counter& coalesced;
  util::Counter& shed;
  util::Counter& backpressure;
  util::Gauge& queue_depth;
  util::Histogram& queue_wait_us;
  util::Histogram& service_us;

  static ExecutorMetrics& get() {
    auto& reg = util::MetricsRegistry::global();
    static ExecutorMetrics m{reg.counter("executor.requests"),
                             reg.counter("executor.coalesced_requests"),
                             reg.counter("executor.shed_requests"),
                             reg.counter("executor.backpressure"),
                             reg.gauge("executor.queue_depth"),
                             reg.histogram("executor.queue_wait_us"),
                             reg.histogram("executor.service_us")};
    return m;
  }
};

}  // namespace

BatchExecutor::BatchExecutor(const CompiledNetwork& net, int64_t num_threads,
                             const ExecutorOptions& opts)
    : net_(net), opts_(opts), intra_op_threads_(net.intra_op_threads()) {
  if (num_threads < 1) {
    throw std::invalid_argument("BatchExecutor: num_threads must be >= 1");
  }
  recent_wait_buckets_.reserve(kPredictorWindow);
  // Split the budget: a plan with a shard pool already fans each
  // request's rows across intra_op_threads lanes, so spawning num_threads
  // request workers on top would oversubscribe the machine.
  const int64_t request_workers = std::max<int64_t>(1, num_threads / intra_op_threads_);
  busy_ms_.assign(static_cast<std::size_t>(request_workers), 0.0);
  workers_.reserve(static_cast<std::size_t>(request_workers));
  for (int64_t i = 0; i < request_workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(static_cast<std::size_t>(i)); });
  }
}

BatchExecutor::~BatchExecutor() { shutdown(); }

double BatchExecutor::budget_ms(SloClass slo) const {
  return slo == SloClass::kBatch ? opts_.slo_ms * kBatchSloFactor : opts_.slo_ms;
}

double BatchExecutor::predicted_wait_ms_locked() const {
  // Drain-time term: how long the queued work takes the worker pool at
  // the observed per-sample service rate. Reacts instantly to bursts.
  double depth_ms = 0.0;
  if (ema_service_per_sample_ms_ > 0.0 && !workers_.empty()) {
    depth_ms = static_cast<double>(queued_samples_ + inflight_samples_) *
               ema_service_per_sample_ms_ / static_cast<double>(workers_.size());
  }
  // Histogram term: p90 of the last kPredictorWindow observed queue
  // waits (log-bucket counts, util::HistogramSnapshot bucket math).
  // Remembers steady-state queueing a momentary depth dip hides. A high
  // percentile, not the median: admission protects the SLO of the
  // *tail*, and at 80% utilization the p90 wait runs several times the
  // median — a median predictor admits a tail that then violates.
  //
  // Only consulted while work is actually outstanding: the window
  // refreshes exclusively through completions, so with the executor
  // fully idle the entries are leftovers from the last spike and the
  // true wait of a new request is ~zero. Without this gate a spike that
  // fills the window with above-budget waits latches admission shut
  // forever — every submit sheds, nothing completes, the window never
  // decays (the probe admissions in submit() cover the non-idle version
  // of the same trap).
  double hist_ms = 0.0;
  const auto n = static_cast<int64_t>(recent_wait_buckets_.size());
  if (n > 0 && queued_samples_ + inflight_samples_ > 0) {
    const auto target =
        std::max<int64_t>(1, static_cast<int64_t>(std::ceil(0.90 * static_cast<double>(n))));
    int64_t seen = 0;
    for (int b = 0; b < util::HistogramSnapshot::kBuckets; ++b) {
      seen += recent_wait_counts_[static_cast<std::size_t>(b)];
      if (seen >= target) {
        hist_ms = util::HistogramSnapshot::bucket_mid(b) / 1e3;  // us -> ms
        break;
      }
    }
  }
  return std::max(depth_ms, hist_ms);
}

std::future<InferenceResult> BatchExecutor::submit(InferenceRequest request) {
  if (request.slo == SloClass::kStream) {
    throw std::invalid_argument(
        "BatchExecutor::submit: kStream steps belong to a session — use "
        "open_stream/submit_stream");
  }
  const SloClass slo = request.slo;
  Request req;
  req.samples = request.batch.rank() >= 1 ? request.batch.dim(0) : 1;
  req.batch = std::move(request.batch);
  req.slo = slo;
  req.enqueued = std::chrono::steady_clock::now();
  req.deadline = req.enqueued;
  if (opts_.slo_ms > 0.0) {
    req.deadline += std::chrono::microseconds(
        static_cast<int64_t>(budget_ms(slo) * 1e3));
  }
  if (trace::enabled()) req.trace_ts_us = trace::now_us();
  std::future<InferenceResult> future = req.promise.get_future();
  bool rejected = false;
  const char* why = "";
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      rejected = true;
      why = "BatchExecutor: submit after shutdown";
      ++shed_requests_;
    } else if (opts_.slo_ms > 0.0 &&
               predicted_wait_ms_locked() +
                       ema_service_per_sample_ms_ * static_cast<double>(req.samples) >
                   budget_ms(slo) &&
               ++sheds_since_probe_ < kShedProbeInterval) {
      // The SLO is on end-to-end latency, so admission charges the
      // request its own expected service time on top of the queue wait.
      // Every kShedProbeInterval-th consecutive would-shed request is
      // admitted anyway (the probe): completions are the only thing
      // that refreshes the predictor's wait window and service EMA, so
      // a shed-everything regime would otherwise never observe the load
      // dropping and could latch shut permanently.
      rejected = true;
      why = "BatchExecutor: shed — predicted queue wait above SLO budget";
      ++shed_requests_;
    } else {
      req.probe = sheds_since_probe_ >= kShedProbeInterval;
      sheds_since_probe_ = 0;
      if (!has_first_request_) {
        has_first_request_ = true;
        first_request_ = req.enqueued;
      }
      const std::vector<int64_t> key = shape_key(req.batch);
      int qi = find_queue(slo, key);
      if (qi < 0) {
        queues_.push_back(std::make_unique<SubQueue>(SubQueue{slo, key, {}}));
        qi = static_cast<int>(queues_.size()) - 1;
      }
      ++queued_requests_;
      queued_samples_ += req.samples;
      queues_[static_cast<std::size_t>(qi)]->q.push_back(std::move(req));
      ExecutorMetrics::get().queue_depth.set(queued_requests_);
    }
  }
  if (rejected) {
    ExecutorMetrics::get().shed.add(1);
    shed(req, why);
  } else {
    cv_.notify_one();
  }
  return future;
}

uint64_t BatchExecutor::open_stream() {
  auto session = std::make_unique<StreamSession>(net_);
  const std::lock_guard<std::mutex> lock(mu_);
  if (stopping_) throw ShedError("BatchExecutor: open_stream after shutdown");
  const uint64_t sid = next_stream_id_++;
  StreamEntry entry;
  entry.session = std::move(session);
  streams_.emplace(sid, std::move(entry));
  return sid;
}

std::future<InferenceResult> BatchExecutor::submit_stream(uint64_t stream,
                                                         Tensor frame) {
  StreamStep step;
  step.frame = std::move(frame);
  step.enqueued = std::chrono::steady_clock::now();
  std::future<InferenceResult> future = step.promise.get_future();
  const char* reject = nullptr;
  bool invalid = false;
  bool backpressure = false;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = streams_.find(stream);
    if (it == streams_.end()) {
      invalid = true;
      reject = "BatchExecutor: submit_stream on unknown stream id";
    } else if (stopping_ || it->second.closed) {
      reject = stopping_ ? "BatchExecutor: stream step after shutdown"
                         : "BatchExecutor: stream step after close_stream";
      ++shed_requests_;
    } else if (static_cast<int64_t>(it->second.steps.size()) >= kMaxStreamQueue ||
               util::fault::should_fail("executor.backpressure")) {
      // Rejected BEFORE the step touches the session: its carry state is
      // exactly what it was, so resubmitting the same frame is safe and
      // required (dropping the timestep would corrupt temporal order).
      backpressure = true;
      reject = "BatchExecutor: stream queue full — resubmit this frame "
               "after backoff";
      ++backpressure_rejections_;
    } else {
      it->second.steps.push_back(std::move(step));
      ++queued_stream_steps_;
    }
  }
  if (invalid) {
    step.promise.set_exception(std::make_exception_ptr(std::invalid_argument(reject)));
  } else if (backpressure) {
    ExecutorMetrics::get().backpressure.add(1);
    step.promise.set_exception(std::make_exception_ptr(BackpressureError(reject)));
  } else if (reject != nullptr) {
    ExecutorMetrics::get().shed.add(1);
    shed(step, reject);
  } else {
    cv_.notify_one();
  }
  return future;
}

void BatchExecutor::close_stream(uint64_t stream) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = streams_.find(stream);
  if (it == streams_.end()) return;
  it->second.closed = true;
  // Queued steps still run (a worker will drain and then erase); only a
  // fully idle session can be dropped on the spot.
  if (!it->second.busy && it->second.steps.empty()) streams_.erase(it);
}

void BatchExecutor::shutdown() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ && workers_.empty()) return;
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

namespace {

/// Nearest-rank percentile of an unsorted copy (smallest value with at
/// least q*n samples at or below it).
struct WindowStats {
  double mean = 0.0, p50 = 0.0, p95 = 0.0, p99 = 0.0, max = 0.0;
};

WindowStats window_stats(std::vector<double> sorted) {
  WindowStats w;
  if (sorted.empty()) return w;
  std::sort(sorted.begin(), sorted.end());
  double total = 0.0;
  for (const double v : sorted) total += v;
  const auto n = static_cast<int64_t>(sorted.size());
  const auto rank = [&](double q) {
    auto r = static_cast<int64_t>(std::ceil(q * static_cast<double>(n)));
    if (r < 1) r = 1;
    if (r > n) r = n;
    return sorted[static_cast<std::size_t>(r - 1)];
  };
  w.mean = total / static_cast<double>(n);
  w.p50 = rank(0.50);
  w.p95 = rank(0.95);
  w.p99 = rank(0.99);
  w.max = sorted.back();
  return w;
}

}  // namespace

ExecutorStats BatchExecutor::stats() const {
  std::vector<Latency> latencies;
  std::vector<double> busy;
  ExecutorStats s;
  bool has_first = false;
  std::chrono::steady_clock::time_point first{};
  {
    const std::lock_guard<std::mutex> lock(mu_);
    s.requests = done_requests_;
    s.samples = done_samples_;
    s.fused_batches = fused_batches_;
    s.coalesced_requests = coalesced_requests_;
    s.shed_requests = shed_requests_;
    s.backpressure_rejections = backpressure_rejections_;
    s.slo_violations = slo_violations_;
    s.queue_depth = queued_requests_;
    s.open_streams = static_cast<int64_t>(streams_.size());
    s.stream_steps = stream_steps_;
    s.predicted_wait_ms = predicted_wait_ms_locked();
    latencies = latencies_;
    busy = busy_ms_;
    has_first = has_first_request_;
    first = first_request_;
  }
  std::vector<double> services;
  std::vector<double> waits;
  std::vector<double> e2e;
  services.reserve(latencies.size());
  waits.reserve(latencies.size());
  e2e.reserve(latencies.size());
  for (const Latency& l : latencies) {
    services.push_back(l.service_ms);
    waits.push_back(l.wait_ms);
    e2e.push_back(l.wait_ms + l.service_ms);
  }
  const WindowStats service = window_stats(std::move(services));
  s.mean_ms = service.mean;
  s.p50_ms = service.p50;
  s.p95_ms = service.p95;
  s.p99_ms = service.p99;
  s.max_ms = service.max;
  const WindowStats wait = window_stats(std::move(waits));
  s.queue_mean_ms = wait.mean;
  s.queue_p50_ms = wait.p50;
  s.queue_p95_ms = wait.p95;
  const WindowStats end_to_end = window_stats(std::move(e2e));
  s.e2e_p50_ms = end_to_end.p50;
  s.e2e_p95_ms = end_to_end.p95;
  s.e2e_p99_ms = end_to_end.p99;
  // Utilization denominator: wall time since the FIRST request, not
  // since construction — a warm executor that idled before traffic
  // used to report misleadingly low utilization.
  const double elapsed_ms =
      has_first ? ms_between(first, std::chrono::steady_clock::now()) : 0.0;
  s.utilization_per_worker.reserve(busy.size());
  double busy_total = 0.0;
  for (const double b : busy) {
    s.utilization_per_worker.push_back(elapsed_ms > 0.0 ? b / elapsed_ms : 0.0);
    busy_total += b;
  }
  if (!busy.empty() && elapsed_ms > 0.0) {
    s.worker_utilization = busy_total / (elapsed_ms * static_cast<double>(busy.size()));
  }
  return s;
}

void BatchExecutor::record(const std::vector<Request>& group, int64_t samples, double ms,
                           bool fused, std::size_t worker) {
  ExecutorMetrics& metrics = ExecutorMetrics::get();
  metrics.requests.add(static_cast<int64_t>(group.size()));
  metrics.service_us.record(ms * 1e3);
  const std::lock_guard<std::mutex> lock(mu_);
  inflight_samples_ -= samples;
  done_requests_ += static_cast<int64_t>(group.size());
  done_samples_ += samples;
  if (fused) {
    ++fused_batches_;
    coalesced_requests_ += static_cast<int64_t>(group.size());
    metrics.coalesced.add(static_cast<int64_t>(group.size()));
  }
  if (worker < busy_ms_.size()) busy_ms_[worker] += ms;
  // Admission predictor input: EMA of per-sample service time.
  if (samples > 0) {
    const double per_sample = ms / static_cast<double>(samples);
    constexpr double kAlpha = 0.2;
    ema_service_per_sample_ms_ = ema_service_per_sample_ms_ > 0.0
                                     ? (1.0 - kAlpha) * ema_service_per_sample_ms_ +
                                           kAlpha * per_sample
                                     : per_sample;
  }
  for (const Request& r : group) {
    if (latencies_.size() < kLatencyWindow) {
      latencies_.push_back({r.wait_ms, ms});
    } else {
      latencies_[latency_next_] = {r.wait_ms, ms};
    }
    latency_next_ = (latency_next_ + 1) % kLatencyWindow;
    if (opts_.slo_ms > 0.0 && r.wait_ms + ms > budget_ms(r.slo)) ++slo_violations_;
    // Sliding predictor histogram: add this wait's bucket, retire the
    // oldest once the window is full.
    const int bucket = util::HistogramSnapshot::bucket_index(r.wait_ms * 1e3);
    if (recent_wait_buckets_.size() < kPredictorWindow) {
      recent_wait_buckets_.push_back(static_cast<int16_t>(bucket));
    } else {
      const int old = recent_wait_buckets_[recent_wait_next_];
      --recent_wait_counts_[static_cast<std::size_t>(old)];
      recent_wait_buckets_[recent_wait_next_] = static_cast<int16_t>(bucket);
    }
    ++recent_wait_counts_[static_cast<std::size_t>(bucket)];
    recent_wait_next_ = (recent_wait_next_ + 1) % kPredictorWindow;
    metrics.queue_wait_us.record(r.wait_ms * 1e3);
  }
}

int BatchExecutor::find_queue(SloClass slo, const std::vector<int64_t>& shape) const {
  for (std::size_t i = 0; i < queues_.size(); ++i) {
    if (queues_[i]->slo == slo && queues_[i]->shape == shape) return static_cast<int>(i);
  }
  return -1;
}

int BatchExecutor::pick_queue() const {
  int best = -1;
  for (std::size_t i = 0; i < queues_.size(); ++i) {
    if (queues_[i]->q.empty()) continue;
    if (best < 0) {
      best = static_cast<int>(i);
      continue;
    }
    const Request& head = queues_[i]->q.front();
    const Request& incumbent = queues_[static_cast<std::size_t>(best)]->q.front();
    // Interactive before batch (slo_priority rank, not raw enum value);
    // EDF within a class. With slo_ms == 0 every deadline equals its
    // enqueue time, so this is arrival-order FIFO across sub-queues.
    if (head.slo != incumbent.slo) {
      if (slo_priority(head.slo) < slo_priority(incumbent.slo)) best = static_cast<int>(i);
    } else if (head.deadline < incumbent.deadline) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

BatchExecutor::Request BatchExecutor::pop_head(int qi) {
  SubQueue& sq = *queues_[static_cast<std::size_t>(qi)];
  Request req = std::move(sq.q.front());
  sq.q.pop_front();
  --queued_requests_;
  queued_samples_ -= req.samples;
  const auto now = std::chrono::steady_clock::now();
  req.wait_ms = ms_between(req.enqueued, now);
  if (trace::enabled() && req.trace_ts_us > 0.0) {
    trace::Span span;
    span.name = "queue-wait";
    span.cat = "queue";
    span.ts_us = req.trace_ts_us;
    span.dur_us = trace::now_us() - req.trace_ts_us;
    span.rows = req.samples;
    trace::record(std::move(span));
  }
  return req;
}

std::vector<BatchExecutor::Request> BatchExecutor::take_group(
    std::unique_lock<std::mutex>& lock, std::vector<Request>& doomed) {
  std::vector<Request> group;
  int first = pick_queue();
  // Lazy shed: a head whose expected finish is already past its
  // deadline would execute only to violate — drop it at dispatch so the
  // capacity serves requests that can still make their budget. (The
  // admission predictor bounds the queue, but a load spike between
  // admit and dispatch can still doom requests; EDF puts them at the
  // head, where they would otherwise delay every follower too.)
  // Probes run regardless: they were admitted against the same
  // forecast, and their completion is what refreshes it.
  if (opts_.slo_ms > 0.0) {
    while (first >= 0) {
      const Request& head = queues_[static_cast<std::size_t>(first)]->q.front();
      if (head.probe) break;
      const double service_ms =
          ema_service_per_sample_ms_ * static_cast<double>(head.samples);
      const auto finish = std::chrono::steady_clock::now() +
                          std::chrono::microseconds(static_cast<int64_t>(service_ms * 1e3));
      if (finish <= head.deadline) break;
      doomed.push_back(pop_head(first));
      ++shed_requests_;
      if (queues_[static_cast<std::size_t>(first)]->q.empty()) {
        queues_.erase(queues_.begin() + first);
      }
      first = pick_queue();
    }
    if (first < 0) {
      ExecutorMetrics::get().queue_depth.set(queued_requests_);
      return group;  // everything queued was doomed
    }
  }
  group.push_back(pop_head(first));
  const SloClass slo = group.front().slo;
  const std::vector<int64_t> key = shape_key(group.front().batch);
  // Drop the bin if that pop emptied it — sub-queues are transient.
  if (queues_[static_cast<std::size_t>(first)]->q.empty()) {
    queues_.erase(queues_.begin() + first);
  }
  if (opts_.max_coalesce <= 1) {
    ExecutorMetrics::get().queue_depth.set(queued_requests_);
    return group;
  }
  int64_t samples = group.front().samples;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(opts_.max_wait_us);
  double hold_open_start_us = -1.0;  // first straggler wait, trace clock
  while (samples < opts_.max_coalesce) {
    // Fuse whatever same-class same-shape requests are already queued.
    // They are compatible by construction; other bins are untouched, so
    // interleaved foreign shapes no longer break a group apart (the old
    // single-FIFO design stopped at the first incompatible request and
    // fused nothing under interleaving).
    const int qi = find_queue(slo, key);
    if (qi >= 0) {
      SubQueue& sq = *queues_[static_cast<std::size_t>(qi)];
      if (samples + sq.q.front().samples > opts_.max_coalesce) break;
      samples += sq.q.front().samples;
      group.push_back(pop_head(qi));
      if (sq.q.empty()) queues_.erase(queues_.begin() + qi);
      continue;
    }
    if (stopping_ || opts_.max_wait_us <= 0) break;
    // Hold the group open for stragglers ONLY while nothing else is
    // runnable: if any other bin has work, run immediately — a partial
    // group must never make unrelated requests wait behind its timer.
    if (queued_requests_ > 0) break;
    if (trace::enabled() && hold_open_start_us < 0.0) hold_open_start_us = trace::now_us();
    if (cv_.wait_until(lock, deadline,
                       [this] { return stopping_ || queued_requests_ > 0; })) {
      if (stopping_ && queued_requests_ == 0) break;
      continue;  // something arrived: fuse it or run (loop re-checks)
    }
    break;  // timed out
  }
  if (hold_open_start_us >= 0.0 && trace::enabled()) {
    trace::Span span;
    span.name = "coalesce-wait";
    span.cat = "coalesce";
    span.ts_us = hold_open_start_us;
    span.dur_us = trace::now_us() - hold_open_start_us;
    span.rows = samples;
    trace::record(std::move(span));
  }
  ExecutorMetrics::get().queue_depth.set(queued_requests_);
  return group;
}

void BatchExecutor::run_group(std::vector<Request>& group, std::size_t worker) {
  int64_t samples = 0;
  for (const Request& r : group) samples += r.samples;
  const bool fused = group.size() > 1;
  bool recorded = false;
  try {
    if (util::fault::should_fail("executor.stall")) {
      // A slow pass: long enough for tests to observe queueing behind
      // it, short enough to never threaten a deadline.
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    if (util::fault::should_fail("executor.run")) {
      throw std::runtime_error("injected fault: executor.run");
    }
    const util::Stopwatch sw;
    Tensor logits;
    {
      trace::ScopedSpan span("execute", "serve");
      span.rows(samples);
      if (!fused) {
        logits = net_.infer({std::move(group.front().batch), group.front().slo}).logits;
      } else {
        // One time-major pass over the concatenated batch. Every op
        // treats batch rows independently, so slicing the fused logits
        // reproduces each request's solo result bitwise.
        std::vector<const Tensor*> parts;
        parts.reserve(group.size());
        for (const Request& r : group) parts.push_back(&r.batch);
        logits = net_.infer({tensor::concat_rows(parts), group.front().slo}).logits;
      }
    }
    const double ms = sw.millis();
    record(group, samples, ms, fused, worker);
    recorded = true;
    // latency_ms is the request's end-to-end time: its own queue wait
    // plus the (possibly fused) pass's service time.
    if (!fused) {
      Request& r = group.front();
      r.promise.set_value(InferenceResult{std::move(logits), r.wait_ms + ms, 0});
    } else {
      trace::ScopedSpan span("fused-split", "split");
      span.rows(samples);
      int64_t row = 0;
      for (Request& r : group) {
        r.promise.set_value(
            InferenceResult{tensor::slice_rows(logits, row, row + r.samples), r.wait_ms + ms, 0});
        row += r.samples;
      }
    }
  } catch (...) {
    if (!recorded) {
      // record() never ran for this group; release its in-flight claim.
      const std::lock_guard<std::mutex> lock(mu_);
      inflight_samples_ -= samples;
    }
    fail_each(std::current_exception(), group);
  }
}

uint64_t BatchExecutor::pick_stream_locked() const {
  for (const auto& [sid, entry] : streams_) {
    if (!entry.busy && !entry.steps.empty()) return sid;
  }
  return 0;
}

void BatchExecutor::drain_stream(uint64_t sid, std::unique_lock<std::mutex>& lock,
                                 std::size_t worker) {
  StreamEntry& entry = streams_.at(sid);  // map nodes are stable; only
                                          // this (busy-holding) worker
                                          // may erase the entry
  entry.busy = true;
  std::deque<StreamStep> steps = std::move(entry.steps);
  entry.steps.clear();
  queued_stream_steps_ -= static_cast<int64_t>(steps.size());
  StreamSession* session = entry.session.get();
  lock.unlock();

  const util::Stopwatch sw;
  std::vector<InferenceResult> results;
  results.reserve(steps.size());
  std::exception_ptr error;
  try {
    if (util::fault::should_fail("executor.stall")) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    if (util::fault::should_fail("executor.stream")) {
      throw std::runtime_error("injected fault: executor.stream");
    }
    trace::ScopedSpan span("stream-drain", "serve");
    span.rows(static_cast<int64_t>(steps.size()));
    // One step per queued frame, in order. A step's latency runs from
    // its enqueue to its completion, so the client sees queue wait too.
    for (const StreamStep& s : steps) {
      results.push_back(session->step(s.frame));
      results.back().latency_ms = ms_between(s.enqueued, std::chrono::steady_clock::now());
    }
  } catch (...) {
    error = std::current_exception();
    // The drain died mid-sequence: per-layer state is part-way
    // through an undefined step. Reset so the session restarts clean
    // rather than silently continuing from a corrupt carry.
    session->reset();
  }
  const double ms = sw.millis();

  lock.lock();
  if (worker < busy_ms_.size()) busy_ms_[worker] += ms;
  if (!error) stream_steps_ += static_cast<int64_t>(steps.size());
  entry.busy = false;
  if (entry.closed && entry.steps.empty()) {
    streams_.erase(sid);
  } else if (!entry.steps.empty()) {
    cv_.notify_one();  // steps arrived while draining
  }
  // Fulfil the promises only after the books are settled, still under
  // the lock: a client that has observed a resolved step future must
  // see stats() reflect this drain (and a close_stream racing in
  // cannot find the entry busy after its last step resolved).
  if (!error) {
    for (std::size_t i = 0; i < steps.size(); ++i) {
      steps[i].promise.set_value(std::move(results[i]));
    }
  } else {
    fail_each(error, steps);
  }
}

void BatchExecutor::worker_loop(std::size_t worker) {
  for (;;) {
    std::vector<Request> group;
    std::vector<Request> doomed;
    bool more = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] {
        return stopping_ || queued_requests_ > 0 || pick_stream_locked() != 0;
      });
      // Streams outrank every queued request (slo_priority): drain one
      // session completely, then loop for the next unit of work.
      if (const uint64_t sid = pick_stream_locked(); sid != 0) {
        drain_stream(sid, lock, worker);
        continue;
      }
      if (queued_requests_ == 0) return;  // stopping_ and drained
      group = take_group(lock, doomed);
      for (const Request& r : group) inflight_samples_ += r.samples;
      more = queued_requests_ > 0;
    }
    // A hold-open wait can swallow the notify_one meant for an idle
    // worker (the waiter wakes, sees a foreign shape and runs its own
    // group) — re-arm a peer whenever work remains queued.
    if (more) cv_.notify_one();
    if (!doomed.empty()) {
      ExecutorMetrics::get().shed.add(static_cast<int64_t>(doomed.size()));
      for (Request& r : doomed) {
        shed(r, "BatchExecutor: shed — deadline unreachable at dispatch");
      }
    }
    if (!group.empty()) run_group(group, worker);
  }
}

}  // namespace ndsnn::runtime
