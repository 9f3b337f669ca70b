// CompiledNetwork: ahead-of-time compilation of a trained (masked)
// SpikingNetwork into an immutable sparse inference plan.
//
// Training keeps weights dense and re-applies binary masks after every
// optimizer step, so a "95% sparse" network still runs dense GEMM over
// mostly-zero matrices — and its spike trains, typically 5-20% ones,
// still multiply through as dense activation tensors. compile() is a
// staged lowering that exploits both sides of every matmul:
//
//   1. Walk the network body and pick a *weight kernel* per layer:
//      dense GEMM below 50% weight sparsity, element-wise CSR at or
//      above it. NDSNN's unstructured masks compile as they are: CSR
//      stores exactly the surviving entries, wherever they sit.
//   2. Pick an *activation path* per weight layer: the classic
//      dense-activation kernels (sparse::Csr::conv2d, a direct sparse
//      convolution over input spans, and Csr::spmm_t for linear), or the
//      event-driven path that iterates only the active (nonzero) entries
//      of the input spike train (sparse::Csr::spmv_gather for linear, an
//      on-the-fly event-driven im2col into Csr::scatter_row for conv).
//      An event-driven layer always holds Wᵀ as CSR, whatever kernel
//      stage 1 picked; a layer below the sparsity bar keeps an fp32
//      plane there. The choice keys on whether the input is
//      spike-valued and on a firing-rate estimate taken from the
//      layers' recorded rates (aggregated with snn::SpikeStats);
//      CompileOptions::activation_mode forces one path everywhere.
//   3. Emit the Plan IR (src/runtime/plan.hpp): per-op kernels under
//      src/runtime/ops/. An event-driven weight op scans its own input
//      into a SpikeBatch active-index view on every run.
//
// Every path — any backend x any activation mode — produces bitwise
// identical logits to the interpreted SpikingNetwork::predict: linear
// kernels accumulate per output in doubles over ascending input index,
// conv kernels in floats over ascending patch-column index, and skipped
// zero terms (silent inputs, pruned weights) are exact no-ops because
// every accumulator starts at +0 (tests/runtime/testing.hpp pins this
// across the full differential matrix).
//
// The resulting plan is immutable and shares no mutable state across
// infer() calls, so one CompiledNetwork can serve many threads concurrently
// (see runtime::BatchExecutor). Neuron membrane state lives on the stack
// of each infer(): activations are time-major [T*N, ...] and the LIF op
// carries v/o across the T timesteps inside one call, exactly like
// snn::LifLayer::forward. Direct encoding repeats the input frame at
// every step, so the stateless ops ahead of the first neuron op (conv1
// -> BN1) compute T identical row blocks; the plan runs them once on the
// N input rows and tiles their output to T*N (Plan::invariant_prefix).
#pragma once

#include <string>
#include <vector>

#include "nn/network.hpp"
#include "runtime/inference.hpp"
#include "runtime/plan.hpp"
#include "runtime/trace.hpp"
#include "sparse/quant.hpp"
#include "tensor/tensor.hpp"

namespace ndsnn::runtime {

/// Which GEMM kernel a weight layer executes with on the
/// dense-activation path. Event-driven layers always hold CSR Wᵀ; one
/// the backend puts on the dense kernel keeps an fp32 plane there.
enum class Backend {
  kAuto,   ///< per-layer cost heuristic (weight sparsity)
  kDense,  ///< force dense GEMM on every layer (baseline plans)
  kCsr,    ///< force element-wise CSR on every weight layer
};

/// How weight layers consume their input activation.
enum class ActivationMode {
  kAuto,   ///< event-driven when the input is spike-valued and its
           ///< estimated firing rate is <= 0.25
  kDense,  ///< always the dense-activation path (conv2d / spmm_t / GEMM)
  kEvent,  ///< force the event-driven gather path on every weight layer
};

/// Stored bit width of the sparse weight value planes (Sec. III-D).
/// Layers picked for the dense kernel always execute fp32 — the
/// quantised planes live on sparse::Csr — so a forced kInt8/kInt4
/// applies to every layer at or above the sparsity bar and leaves the
/// rest fp32, on the event path too.
enum class WeightPrecision {
  kAuto,   ///< per layer: the lowest bit width whose measured weight
           ///< reconstruction error stays <= 0.02; a v3 checkpoint's
           ///< recorded per-layer precisions win when compiling via
           ///< from_checkpoint
  kFp32,   ///< no quantisation (default: keeps the bitwise contract)
  kInt8,
  kInt4,
};

[[nodiscard]] const char* weight_precision_name(WeightPrecision p);
/// Parse "auto" | "fp32" | "int8" | "int4" (CLI surface); throws
/// std::invalid_argument otherwise.
[[nodiscard]] WeightPrecision parse_weight_precision(const std::string& s);

/// Knobs for the network -> plan lowering: kernel backend, stored bit
/// width, and execution (activation path, threads). The heuristics'
/// thresholds are fixed constants of compiled_network.cpp: kAuto lowers
/// a weight layer to CSR at >= 0.5 weight sparsity, goes event-driven at
/// an estimated input firing rate <= 0.25 (0.15 when the network
/// recorded no rates) and quantises a layer when its measured
/// reconstruction error stays <= 0.02.
struct CompileOptions {
  /// Force one kernel backend for every weight layer (kDense for
  /// baseline plans), or kAuto to let the cost heuristic decide per
  /// layer. Sparse kernels keep exactly the nonzero weights.
  Backend backend = Backend::kAuto;
  /// Stored bit width of the sparse value planes (see WeightPrecision).
  /// Anything other than kFp32 trades the bitwise-vs-predict contract
  /// for the documented quantisation error bound (README, runtime
  /// precision section).
  WeightPrecision weight_precision = WeightPrecision::kFp32;
  /// Fake-quant evaluation: quantise each sparse value plane, then
  /// dequantise it back to fp32 storage, so the plan executes the
  /// *exact effective weights* of the quantised deployment on the
  /// bitwise fp32 kernels (QAT-style accuracy evaluation; the
  /// differential harness's per-op reference plans). Reports still
  /// carry the nominal precision; bytes reflect the fp32 storage the
  /// fake plan actually holds.
  bool fake_quant = false;
  /// Activation path selection (see ActivationMode).
  ActivationMode activation_mode = ActivationMode::kAuto;
  /// Shard lanes: 1 (default) compiles a serial plan, 0 resolves to
  /// std::thread::hardware_concurrency(), N > 1 builds a
  /// util::ThreadPool the plan owns. infer() then splits a batch of M
  /// rows into min(M, N) contiguous row shards and runs each through
  /// the serial plan on its own lane; a 1-row batch runs serially. No
  /// kernel splits its own work. fp32 outputs stay bitwise identical to
  /// the serial plan for any value here.
  int64_t num_threads = 1;
};

class CompiledNetwork {
 public:
  /// Lower `net` (its body and current weights) into an executable plan.
  /// Weights are copied: later training steps do not affect the plan.
  /// Throws std::invalid_argument for layers the runtime cannot lower or
  /// when the network uses a non-direct input encoder.
  [[nodiscard]] static CompiledNetwork compile(const nn::SpikingNetwork& net,
                                               const CompileOptions& opts = {});

  /// Compile straight from an architecture-tagged checkpoint file
  /// (nn::save_checkpoint with CheckpointMeta, format v2): rebuilds the
  /// recorded zoo architecture internally, restores every parameter
  /// (BN statistics included) and lowers it — the caller never touches a
  /// training network. Throws std::runtime_error for v1 checkpoints
  /// (no architecture record) or on any parameter mismatch.
  [[nodiscard]] static CompiledNetwork from_checkpoint(const std::string& path,
                                                       const CompileOptions& opts = {});

  /// One-shot inference through the consolidated request/result pair
  /// (runtime/inference.hpp) — the same vocabulary the batched
  /// (BatchExecutor::submit) and streaming (StreamSession::step) paths
  /// speak. Mean logits over `timesteps()` of direct encoding, matching
  /// SpikingNetwork::predict; `latency_ms` is the call's wall time, the
  /// SLO class is ignored (no queue on the direct path). A plan with
  /// several lanes runs one contiguous row shard per lane (see
  /// CompileOptions::num_threads). Thread-safe.
  [[nodiscard]] InferenceResult infer(const InferenceRequest& request) const;

  /// Per-op reports of the compiled plan.
  [[nodiscard]] const std::vector<OpReport>& plan() const { return plan_.reports; }
  /// The full plan IR, ops included — what the differential harness
  /// walks to compare two plans op by op (infer() stays the serving API).
  [[nodiscard]] const Plan& plan_ir() const { return plan_; }
  [[nodiscard]] int64_t timesteps() const { return plan_.timesteps; }
  /// Shard lanes of the plan's thread pool (1 = serial plan).
  [[nodiscard]] int64_t intra_op_threads() const { return plan_.intra_op_threads(); }
  /// Compile-time mean firing-rate estimate over the spiking layers
  /// (recorded rates where available, CompileOptions fallback otherwise).
  [[nodiscard]] double estimated_spike_rate() const { return plan_.estimated_spike_rate; }

  /// Toggle per-op profiling (durations + observed firing rates folded
  /// into the plan's PlanProfile on every run). Off by default; while
  /// off, infer() takes the uninstrumented fast path. Safe to flip while
  /// other threads are serving. Const: profiling observes execution,
  /// it never changes what is computed.
  void enable_profiling(bool on) const {
    if (plan_.profile) plan_.profile->set_enabled(on);
  }
  [[nodiscard]] bool profiling_enabled() const {
    return plan_.profile && plan_.profile->enabled();
  }
  /// Measured per-op stats since compile (or the last profile_reset()):
  /// p50/p95/mean latency, run/row counts, EMA firing rate. All zeros /
  /// -1 rates until profiling ran enabled.
  [[nodiscard]] std::vector<PlanProfile::OpStats> profile() const {
    return plan_.profile ? plan_.profile->snapshot() : std::vector<PlanProfile::OpStats>{};
  }
  /// infer() calls recorded by the profile (one per call, however many
  /// shards it ran).
  [[nodiscard]] int64_t profiled_executes() const {
    return plan_.profile ? plan_.profile->executes() : 0;
  }
  void profile_reset() const {
    if (plan_.profile) plan_.profile->reset();
  }

  /// Weight elements stored by the plan (CSR nnz + dense fallback sizes).
  [[nodiscard]] int64_t stored_weights() const { return plan_.stored_weights(); }
  /// Bytes the plan's weight structures occupy (quantised planes included).
  [[nodiscard]] int64_t stored_bytes() const { return plan_.stored_bytes(); }
  /// Parameter-weighted sparsity over all weight ops.
  [[nodiscard]] double overall_sparsity() const { return plan_.overall_sparsity(); }
  /// Multi-line human-readable description of the plan.
  [[nodiscard]] std::string summary() const { return plan_.summary(); }

  CompiledNetwork(CompiledNetwork&&) = default;
  CompiledNetwork& operator=(CompiledNetwork&&) = default;

 private:
  CompiledNetwork() = default;

  /// compile() plus a v3 checkpoint's per-layer precisions, which win
  /// under kAuto in body order; layers past `recorded` take the error
  /// bound (from_checkpoint).
  [[nodiscard]] static CompiledNetwork lower(const nn::SpikingNetwork& net,
                                             const CompileOptions& opts,
                                             std::vector<sparse::Precision> recorded);

  /// Mean logits [N, classes] of `batch` through the serial plan.
  [[nodiscard]] tensor::Tensor mean_logits(const tensor::Tensor& batch) const;

  Plan plan_;
};

}  // namespace ndsnn::runtime
