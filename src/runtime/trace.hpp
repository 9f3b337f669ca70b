// Runtime tracing and plan profiling.
//
// trace:: is a per-thread ring-buffer span recorder compiled into every
// build but disabled by default behind one branch-predictable atomic
// flag — the fast path of an untraced run pays a single relaxed load
// per Plan::execute. When enabled, every op run records a span {layer,
// kind+backend+precision, duration_us, batch rows, observed spike
// rate, bytes touched, thread id}, the ops add phase sub-spans
// (conv-direct for CSR convs, conv-gemm for dense-kernel convs, which
// stage their patch blocks inside that span,
// event-gather, event-scatter, lif-dynamics, bn-normalize, ...), and the
// BatchExecutor adds queue-wait / coalesce-wait / fused-split spans.
// Spans land in a fixed-capacity ring per thread (oldest overwritten,
// drops counted), so a long serving run keeps the most recent window
// instead of growing without bound. chrome_json() exports the merged snapshot as
// Chrome trace-event JSON — load it at chrome://tracing or
// https://ui.perfetto.dev.
//
// Tracing never changes what is computed: the instrumented execute
// path calls the exact same op->run sequence, so traced outputs are
// bitwise identical to untraced ones (pinned by
// tests/runtime/trace_test.cpp across the differential harness).
//
// PlanProfile is the aggregation side: per-op duration histograms,
// run/row counters, and an EMA of the observed firing rate — the
// measured-calibration input the adaptive-runtime roadmap item needs.
// One profile is attached to every compiled Plan (disabled by default;
// CompiledNetwork::enable_profiling flips it) and is safe to record
// into from many request workers at once.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/plan.hpp"
#include "util/metrics.hpp"

namespace ndsnn::runtime {

namespace trace {

/// One completed span. `cat` must point at a string literal ("op",
/// "phase", "queue", "coalesce", "split", "serve").
struct Span {
  std::string name;        ///< op layer name or phase label
  const char* cat = "op";
  double ts_us = 0.0;      ///< start, microseconds since the trace epoch
  double dur_us = 0.0;
  uint32_t tid = 0;        ///< small per-thread id (registration order)
  std::string kind;        ///< op kind/backend/precision tag ("" = none)
  int64_t rows = -1;       ///< batch rows processed (-1 = n/a)
  double spike_rate = -1;  ///< observed nonzero fraction (-1 = n/a)
  int64_t bytes = -1;      ///< approx bytes touched (-1 = n/a)
};

/// Fixed-capacity span ring: push() overwrites the oldest span once
/// full and counts the overwrite. Each thread records into its own
/// ring, so the per-span mutex is uncontended except against snapshot
/// readers.
class Ring {
 public:
  explicit Ring(std::size_t capacity);

  void push(Span&& s);
  /// Oldest-first copy of the retained spans.
  [[nodiscard]] std::vector<Span> spans() const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] int64_t dropped() const;  ///< spans overwritten so far
  void clear();

 private:
  mutable std::mutex mu_;
  std::vector<Span> buf_;
  std::size_t capacity_;
  int64_t total_ = 0;  ///< pushes ever; write cursor = total_ % capacity_
};

namespace detail {
extern std::atomic<bool> g_enabled;
}

/// The branch-predictable hot-path check.
[[nodiscard]] inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on);

/// Microseconds since the process-wide trace epoch (steady clock).
[[nodiscard]] double now_us();
/// Small dense id of the calling thread (stable for its lifetime).
[[nodiscard]] uint32_t thread_id();

/// Append a span to the calling thread's ring (registering the ring on
/// first use). Fills `tid`. Call only when enabled() — the recorder
/// does not re-check.
void record(Span&& s);

/// Merged oldest-first snapshot across all thread rings, sorted by
/// start time. Safe while other threads keep recording.
[[nodiscard]] std::vector<Span> snapshot();
/// Total spans overwritten across all rings.
[[nodiscard]] int64_t dropped();
/// Clear every ring and the drop counts (capacity keeps its value).
void reset();
/// Capacity for rings created after this call (default 1 << 15 spans).
void set_ring_capacity(std::size_t capacity);

/// Chrome trace-event JSON ({"traceEvents": [...]}) for a span list.
[[nodiscard]] std::string chrome_json(const std::vector<Span>& spans);
/// snapshot() -> chrome_json -> file. Throws on unwritable path.
void write_chrome_file(const std::string& path);

/// RAII phase span for the op internals: zero-cost when tracing is
/// disabled (no allocation, one relaxed load).
class ScopedSpan {
 public:
  ScopedSpan(const char* name, const char* cat) {
    if (enabled()) {
      active_ = true;
      span_.name = name;
      span_.cat = cat;
      span_.ts_us = now_us();
    }
  }
  ~ScopedSpan() {
    if (active_) {
      span_.dur_us = now_us() - span_.ts_us;
      record(std::move(span_));
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void rows(int64_t r) {
    if (active_) span_.rows = r;
  }
  void rate(double r) {
    if (active_) span_.spike_rate = r;
  }
  /// True when tracing was on at construction: the span will record.
  [[nodiscard]] bool active() const { return active_; }
  void bytes(int64_t b) {
    if (active_) span_.bytes = b;
  }

 private:
  Span span_;
  bool active_ = false;
};

}  // namespace trace

/// Per-op aggregation attached to a compiled Plan: duration histograms
/// (p50/p95), run/row counters, and an EMA of the observed output
/// firing rate. Recording is lock-free (sharded histograms + atomics)
/// and keyed by op index, so many request workers fold into one
/// profile concurrently. Disabled by default; when disabled,
/// Plan::execute takes its untouched fast path.
class PlanProfile {
 public:
  /// EMA weight of the newest observation (new = 0.8 old + 0.2 obs).
  static constexpr double kEmaAlpha = 0.2;

  struct OpStats {
    std::string layer;
    std::string kind;
    int64_t runs = 0;
    int64_t rows = 0;        ///< batch rows processed, summed over runs
    double mean_us = 0.0;
    double p50_us = 0.0;
    double p95_us = 0.0;
    double ema_rate = -1.0;  ///< EMA firing rate; -1 = never observed
  };

  explicit PlanProfile(const std::vector<OpReport>& reports);

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Fold one op run into slot `op`. `rate` < 0 means not observed.
  void record(std::size_t op, double dur_us, int64_t rows, double rate);
  void count_execute() { executes_.fetch_add(1, std::memory_order_relaxed); }

  [[nodiscard]] std::vector<OpStats> snapshot() const;
  [[nodiscard]] int64_t executes() const { return executes_.load(std::memory_order_relaxed); }
  [[nodiscard]] std::size_t size() const { return labels_.size(); }
  void reset();

 private:
  struct Slot {
    util::Histogram hist;  ///< duration_us
    std::atomic<int64_t> runs{0};
    std::atomic<int64_t> rows{0};
    std::atomic<double> ema{-1.0};
  };

  std::atomic<bool> enabled_{false};
  std::atomic<int64_t> executes_{0};
  std::vector<std::pair<std::string, std::string>> labels_;  ///< (layer, kind)
  std::unique_ptr<Slot[]> slots_;
};

namespace trace {
/// Observed nonzero fraction of a dense tensor: the spike rate of a
/// neuron op's output.
[[nodiscard]] double nonzero_fraction(const tensor::Tensor& t);

/// Run one op through the instrumented path: times run_into(in, out,
/// carry), records an "op" span when tracing is enabled
/// (kind/backend/precision, rows, observed spike rate, approximate bytes
/// touched) and folds the sample into `profile` slot `index` when
/// non-null. The op sees the exact same input either way, so outputs
/// stay bitwise identical.
void run_op_instrumented(const Op& op, const OpReport& report, const Activation& in,
                         Activation& out, OpState* carry, PlanProfile* profile,
                         std::size_t index);
}  // namespace trace

}  // namespace ndsnn::runtime
