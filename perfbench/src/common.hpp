// Shared plumbing of the perfbench workloads: run options, the
// bench-side span recorder, order statistics, the metric tables and the
// result line that run.py checks.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "data/synthetic.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< Chrome trace-event JSON path; empty = none
};

/// One workload run's output: metric values by name plus the operation
/// counts. Every correctness gate that fails adds to `failed` and a line
/// to `problems`.
struct Outcome {
  std::map<std::string, double> metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> problems;

  void set(const std::string& name, double value) { metrics[name] = value; }
  void fail(const std::string& why, int64_t ops = 1);
};

/// In-memory span recorder. A span has a name "<layer>.<what>", start,
/// end, its parent span and a group id shared by the spans of one
/// request or iteration. Disabled tracers record nothing, so untraced
/// runs pay one branch per span.
class Tracer {
 public:
  struct Record {
    const char* name = "";
    int64_t id = 0;
    int64_t parent = 0;  ///< 0 = root
    int64_t group = 0;
    int64_t thread = 0;
    double start_us = 0.0;
    double end_us = 0.0;
  };

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, int64_t group);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;  ///< null when tracing is off
    Record rec_;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] Scope span(const char* name, int64_t group = 0) {
    return Scope(enabled_ ? this : nullptr, name, group);
  }

  /// Mean duration (ms) and count of the spans called `name`.
  [[nodiscard]] double mean_ms(const std::string& name) const;
  [[nodiscard]] int64_t count(const std::string& name) const;

  /// Self time (duration minus the part covered by child spans) summed
  /// per layer — the name's prefix before the first '.' — over every
  /// span whose root span is named in `roots`.
  [[nodiscard]] std::map<std::string, double> self_ms_by_layer(
      const std::vector<std::string>& roots) const;

  /// Write every span as Chrome trace-event JSON ("X" events).
  void write_chrome(const std::string& path) const;

 private:
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  }

  const bool enabled_;
  const Clock::time_point origin_;
  std::atomic<int64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Record> records_;  ///< guarded by mu_
};

[[nodiscard]] double median(std::vector<double> v);
/// Linear-interpolated percentile, q in [0, 1]. 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> v, double q);
[[nodiscard]] double mean(const std::vector<double>& v);
[[nodiscard]] double peak_rss_mb();

/// Bitwise equality of two tensors (shape and every float's bits).
[[nodiscard]] bool bitwise_equal(const ndsnn::tensor::Tensor& a,
                                 const ndsnn::tensor::Tensor& b);
/// Number of rows of `logits` [N, classes] whose argmax is `labels[i]`.
[[nodiscard]] int64_t count_correct(const ndsnn::tensor::Tensor& logits,
                                    const std::vector<int64_t>& labels,
                                    std::size_t first_label = 0);

/// Report the traced run's per-layer self times as self.<layer>_ms
/// per unit of work (`units` root operations).
void set_self_times(Outcome& out, const Tracer& tracer,
                    const std::vector<std::string>& roots, int64_t units);

/// Seed of the synthetic dataset and of the weight init. Fixed: the
/// workload seed drives what is fed to the system (sample order,
/// batches, traffic), not which problem it solves, so accuracy and
/// firing do not drift between seeds.
constexpr uint64_t kModelSeed = 42;

/// NDSNN on spiking LeNet-5, the paper's recipe at bench scale:
/// width 1.0 / 32x32 for train_ndsnn and plan_batch; the serving probe
/// uses serve_sparse's defaults (width 0.5, 16x16).
[[nodiscard]] ndsnn::core::ExperimentConfig lenet_recipe(int64_t epochs, bool serve_model);

/// `n` images from the experiment's distribution, disjoint from its
/// train and test splits: the fixed evaluation set inference runs on.
[[nodiscard]] ndsnn::data::SyntheticVision held_out(const ndsnn::core::Experiment& exp,
                                                    int64_t n);

/// A seeded permutation of 0..n-1.
[[nodiscard]] std::vector<int64_t> permutation(int64_t n, ndsnn::tensor::Rng& rng);

struct MetricSpec {
  const char* name;
  const char* unit;
};
/// The metric tables; BENCHMARK.json lists the same names and units.
extern const std::vector<MetricSpec> kEndToEnd;
extern const std::vector<MetricSpec> kPerLayer;

/// Print the result JSON line (the last line of stdout).
void print_result(const Outcome& out, bool trace);

Outcome run_train_ndsnn(const Options& opts, Tracer& tracer);
Outcome run_plan_batch(const Options& opts, Tracer& tracer);
/// plan_batch's serving probe (serve_probe.cpp): sets the wire,
/// executor and stream per-layer metrics and runs their gates.
void probe_serving(uint64_t seed, Tracer& tracer, Outcome& out);

}  // namespace perfbench
