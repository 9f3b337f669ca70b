#include "runtime/compiled_network.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <initializer_list>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "nn/batchnorm.hpp"
#include "nn/checkpoint.hpp"
#include "nn/conv2d.hpp"
#include "nn/flatten.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/neuron_activations.hpp"
#include "nn/pool.hpp"
#include "nn/residual.hpp"
#include "nn/sequential.hpp"
#include "runtime/ops/batchnorm_op.hpp"
#include "runtime/ops/conv_op.hpp"
#include "runtime/ops/linear_op.hpp"
#include "runtime/ops/neuron_ops.hpp"
#include "runtime/ops/shape_ops.hpp"
#include "snn/spike_stats.hpp"
#include "sparse/csr.hpp"
#include "tensor/ops.hpp"
#include "util/thread_pool.hpp"

namespace ndsnn::runtime {

using tensor::Tensor;

namespace {

/// kAuto lowers a weight layer to CSR at or above this weight sparsity;
/// below it the dense GEMM wins (CSR pays indexing overhead per value).
constexpr double kMinSparsity = 0.5;
/// kAuto goes event-driven when the estimated firing rate of a weight
/// layer's spike-valued input is <= this. Calibrated with
/// bench/activation_sparsity: the gather kernels beat dense-activation
/// CSR below ~0.25-0.3 firing and win >2x at <=0.1.
constexpr double kEventMaxRate = 0.25;
/// Input-rate estimate for spike-valued activations when the source
/// network has no recorded firing rates (e.g. compiled straight from a
/// checkpoint, before any forward pass ran). Typical LIF/PLIF/ALIF
/// layers fire 5-20% of the time.
constexpr double kFiringRateEstimate = 0.15;
/// kAuto precision bar: quantise a layer only when its symmetric
/// reconstruction error (max |dequant - w| / max |w|,
/// sparse::relative_quant_error) stays at or under this. It admits int8
/// everywhere (~0.4% per-row error) and rejects int4 (~7%), so int4
/// comes only from a forced precision or a v3 checkpoint record.
constexpr float kQuantMaxError = 0.02F;

/// Forward dataflow the compiler tracks while walking the body: whether
/// the activation entering the next layer is spike-valued (mostly-zero),
/// and the best available estimate of its nonzero fraction. Neuron-layer
/// rates come from the network's recorded firing rates when a forward
/// pass ran (Layer::last_spike_rate), else from kFiringRateEstimate; all
/// of them aggregate into a snn::SpikeStats summary the plan reports.
struct Lowering {
  const CompileOptions& opts;
  /// A v3 checkpoint's per-weight-layer precisions in body order; they
  /// win under kAuto (empty when compiling a live network).
  std::vector<sparse::Precision> recorded;
  bool spiking = false;  ///< next layer's input is a spike train
  double rate = 1.0;     ///< estimated nonzero fraction of that input
  snn::SpikeStats stats; ///< per-neuron-layer rate aggregate
  std::size_t weight_index = 0;  ///< weight layers seen, in body order
                                 ///< (indexes `recorded`)

  explicit Lowering(const CompileOptions& o) : opts(o) {}

  void now_dense() {
    spiking = false;
    rate = 1.0;
  }

  void now_spiking(double measured_rate) {
    spiking = true;
    // last_spike_rate() is 0.0 both before any forward pass and for a
    // genuinely silent layer; either way the fallback estimate is the
    // safer planning number (a silent input favours the event path too).
    rate = measured_rate > 0.0 ? measured_rate : kFiringRateEstimate;
    // SpikeStats counts elements; layer shapes are unknown at compile
    // time, so weight every layer equally at a fixed resolution (the
    // summary only needs ~1e-6 precision on the mean).
    stats.record_rate(rate, int64_t{1} << 20);
  }

  /// Pooling a spike train: a window output is nonzero when any of its
  /// k*k inputs is, so the union bound k*k*rate caps the outgoing rate.
  void pooled(int64_t k) {
    if (spiking) rate = std::min(1.0, rate * static_cast<double>(k * k));
  }

  /// Should the weight layer consuming the current activation run
  /// event-driven?
  [[nodiscard]] bool event_for_weight_layer() const {
    switch (opts.activation_mode) {
      case ActivationMode::kDense: return false;
      case ActivationMode::kEvent: return true;
      case ActivationMode::kAuto: return spiking && rate <= kEventMaxRate;
    }
    return false;
  }
};

/// The weight-kernel cost heuristic: dense below the sparsity bar, else
/// CSR. Sparsity counts the entries sparse::Csr::from_weights would keep
/// (|w| > 0). A forced CompileOptions::backend skips the count.
Kernel pick_kernel(const Tensor& weight, const CompileOptions& opts) {
  if (opts.backend == Backend::kDense) return Kernel::kDense;
  if (opts.backend == Backend::kCsr) return Kernel::kCsr;
  const int64_t total = weight.numel();
  const float* w = weight.data();
  int64_t nnz = 0;
  for (int64_t i = 0; i < total; ++i) nnz += std::fabs(w[i]) > 0.0F;
  const double sparsity =
      total == 0 ? 0.0 : 1.0 - static_cast<double>(nnz) / static_cast<double>(total);
  return sparsity < kMinSparsity ? Kernel::kDense : Kernel::kCsr;
}

/// The value-plane precision heuristic. Quantised planes live on CSR,
/// so layers picked for the dense kernel always execute fp32, on the
/// event path too. Under kAuto a v3 checkpoint's recorded precision
/// wins; otherwise the layer takes the lowest bit width whose measured
/// per-row reconstruction error stays under kQuantMaxError — a
/// calibration on the actual weight values, not a fixed bitwidth-based
/// rule, so outlier-heavy layers stay fp32. The error is measured on
/// the orientation the op stores (Wᵀ on the event path, whose rows are
/// input features), so the bound gates the real plane. The
/// weight-layer counter advances for *every* weight layer (dense ones
/// included) to keep the record indexing aligned with the prunable
/// parameter order.
sparse::Precision pick_precision(const Tensor& weight, Kernel kernel, bool event,
                                 Lowering& lw) {
  const CompileOptions& opts = lw.opts;
  const std::size_t index = lw.weight_index++;
  if (kernel == Kernel::kDense) return sparse::Precision::kFp32;
  switch (opts.weight_precision) {
    case WeightPrecision::kFp32: return sparse::Precision::kFp32;
    case WeightPrecision::kInt8: return sparse::Precision::kInt8;
    case WeightPrecision::kInt4: return sparse::Precision::kInt4;
    case WeightPrecision::kAuto: break;
  }
  if (index < lw.recorded.size()) return lw.recorded[index];
  const Tensor transposed =
      event ? sparse::Csr::from_weights(weight).transposed().to_dense() : Tensor();
  const Tensor& stored = event ? transposed : weight;
  for (const sparse::Precision p : {sparse::Precision::kInt4, sparse::Precision::kInt8}) {
    if (sparse::relative_quant_error(stored, p) <= kQuantMaxError) return p;
  }
  return sparse::Precision::kFp32;
}

std::unique_ptr<Op> compile_layer(const nn::Layer& layer, Lowering& lw);

std::vector<std::unique_ptr<Op>> compile_chain(
    std::initializer_list<const nn::Layer*> layers, Lowering& lw) {
  std::vector<std::unique_ptr<Op>> ops;
  for (const nn::Layer* layer : layers) {
    if (layer != nullptr) ops.push_back(compile_layer(*layer, lw));
  }
  return ops;
}

std::unique_ptr<Op> compile_layer(const nn::Layer& layer, Lowering& lw) {
  if (const auto* linear = dynamic_cast<const nn::Linear*>(&layer)) {
    const bool event = lw.event_for_weight_layer();
    lw.now_dense();
    const Kernel kernel = pick_kernel(linear->weight(), lw.opts);
    const sparse::Precision precision = pick_precision(linear->weight(), kernel, event, lw);
    return std::make_unique<LinearOp>(*linear, kernel, precision, event, lw.opts);
  }
  if (const auto* conv = dynamic_cast<const nn::Conv2d*>(&layer)) {
    const bool event = lw.event_for_weight_layer();
    lw.now_dense();
    const Kernel kernel = pick_kernel(conv->weight(), lw.opts);
    const sparse::Precision precision = pick_precision(conv->weight(), kernel, event, lw);
    return std::make_unique<ConvOp>(*conv, kernel, precision, event, lw.opts);
  }
  if (const auto* bn = dynamic_cast<const nn::BatchNorm2d*>(&layer)) {
    lw.now_dense();  // the affine shift makes zeros non-zero
    return std::make_unique<BatchNormOp>(*bn);
  }
  if (const auto* lif = dynamic_cast<const nn::LifActivation*>(&layer)) {
    lw.now_spiking(lif->last_spike_rate());
    return std::make_unique<LifOp>(lif->name(), lif->config(), lif->timesteps());
  }
  if (const auto* plif = dynamic_cast<const nn::PlifActivation*>(&layer)) {
    // PLIF at inference is a LIF with the trained leak alpha = sigmoid(a).
    lw.now_spiking(plif->last_spike_rate());
    return std::make_unique<LifOp>(plif->name(), plif->lif_config(), plif->timesteps());
  }
  if (const auto* alif = dynamic_cast<const nn::AlifActivation*>(&layer)) {
    lw.now_spiking(alif->last_spike_rate());
    return std::make_unique<AlifOp>(alif->name(), alif->config(), alif->timesteps());
  }
  if (const auto* avg = dynamic_cast<const nn::AvgPool2d*>(&layer)) {
    lw.pooled(avg->k());
    return std::make_unique<AvgPoolOp>(avg->name(), avg->k());
  }
  if (const auto* max = dynamic_cast<const nn::MaxPool2d*>(&layer)) {
    lw.pooled(max->k());
    return std::make_unique<MaxPoolOp>(max->name(), max->k());
  }
  if (dynamic_cast<const nn::GlobalAvgPool*>(&layer) != nullptr) {
    lw.now_dense();  // whole-plane averages are rarely exactly zero
    return std::make_unique<GlobalAvgPoolOp>();
  }
  if (dynamic_cast<const nn::Flatten*>(&layer) != nullptr) {
    return std::make_unique<FlattenOp>();  // spiking-ness passes through
  }
  if (const auto* res = dynamic_cast<const nn::ResidualBlock*>(&layer)) {
    // Both chains fork off the same incoming activation state, so a
    // projection shortcut's conv takes conv1's event decision.
    const bool in_spiking = lw.spiking;
    const double in_rate = lw.rate;
    auto main = compile_chain(
        {&res->conv1(), &res->bn1(), &res->lif1(), &res->conv2(), &res->bn2()}, lw);
    lw.spiking = in_spiking;
    lw.rate = in_rate;
    auto shortcut = compile_chain({res->shortcut_conv(), res->shortcut_bn()}, lw);
    // The output LIF consumes main + shortcut (dense sums).
    lw.now_dense();
    auto out_lif = compile_layer(res->lif_out(), lw);
    return std::make_unique<ResidualOp>(res->name(), std::move(main), std::move(shortcut),
                                        std::move(out_lif));
  }
  throw std::invalid_argument("CompiledNetwork: cannot lower layer '" + layer.name() + "'");
}

}  // namespace

const char* weight_precision_name(WeightPrecision p) {
  switch (p) {
    case WeightPrecision::kAuto: return "auto";
    case WeightPrecision::kFp32: return "fp32";
    case WeightPrecision::kInt8: return "int8";
    case WeightPrecision::kInt4: return "int4";
  }
  return "?";
}

WeightPrecision parse_weight_precision(const std::string& s) {
  if (s == "auto") return WeightPrecision::kAuto;
  if (s == "fp32") return WeightPrecision::kFp32;
  if (s == "int8") return WeightPrecision::kInt8;
  if (s == "int4") return WeightPrecision::kInt4;
  throw std::invalid_argument("parse_weight_precision: expected auto|fp32|int8|int4, got '" +
                              s + "'");
}

CompiledNetwork CompiledNetwork::compile(const nn::SpikingNetwork& net,
                                         const CompileOptions& opts) {
  return lower(net, opts, {});
}

CompiledNetwork CompiledNetwork::lower(const nn::SpikingNetwork& net,
                                       const CompileOptions& opts,
                                       std::vector<sparse::Precision> recorded) {
  if (opts.num_threads < 0) {
    throw std::invalid_argument("CompiledNetwork: num_threads must be >= 0 (0 = hardware)");
  }
  if (dynamic_cast<const snn::DirectEncoder*>(&net.encoder()) == nullptr) {
    throw std::invalid_argument(
        "CompiledNetwork: only direct encoding is supported (encoder '" +
        std::string(net.encoder().name()) + "')");
  }
  CompiledNetwork compiled;
  compiled.plan_.timesteps = net.timesteps();
  const nn::Sequential& body = net.body();
  Lowering lw(opts);
  lw.recorded = std::move(recorded);
  for (std::size_t i = 0; i < body.size(); ++i) {
    compiled.plan_.ops.push_back(compile_layer(body.layer(i), lw));
    compiled.plan_.reports.push_back(compiled.plan_.ops.back()->report());
  }
  // The leading stateless ops see T identical timesteps under direct
  // encoding; Plan::execute runs them once per batch.
  auto& ops = compiled.plan_.ops;
  compiled.plan_.invariant_prefix = static_cast<std::size_t>(
      std::find_if(ops.begin(), ops.end(),
                   [](const auto& op) { return op->make_state() != nullptr; }) -
      ops.begin());
  compiled.plan_.estimated_spike_rate = lw.stats.average_rate();
  // One pool per plan: infer runs a row shard of the batch per lane, and
  // the BatchExecutor reads its lane count to split its thread budget
  // instead of oversubscribing.
  const int64_t lanes = util::ThreadPool::resolve_lanes(opts.num_threads);
  if (lanes > 1) compiled.plan_.pool = std::make_shared<util::ThreadPool>(lanes);
  compiled.plan_.profile = std::make_shared<PlanProfile>(compiled.plan_.reports);
  return compiled;
}

CompiledNetwork CompiledNetwork::from_checkpoint(const std::string& path,
                                                 const CompileOptions& opts) {
  // The architecture-tagged checkpoint rebuilds its own zoo network; the
  // caller only ever sees the compiled plan. The freshly-built network
  // has no recorded firing rates, so kAuto activation decisions run on
  // kFiringRateEstimate.
  nn::QuantRecord record;
  const auto net = nn::load_checkpoint_network(path, &record);
  // A v3 quantisation record pins the deployed per-layer precisions; it
  // applies under kAuto (an explicit fp32/int8/int4 always wins).
  std::vector<sparse::Precision> recorded;
  for (const nn::QuantRecordLayer& layer : record.layers) recorded.push_back(layer.precision);
  return lower(*net, opts, std::move(recorded));
}

Tensor CompiledNetwork::mean_logits(const Tensor& batch) const {
  // Direct encoding (compile() rejected every other encoder kind) is
  // folded into execute(): the invariant prefix runs on the N rows. The
  // step logits are averaged straight from the thread's kept buffer.
  const Tensor& x = plan_.execute(batch);
  if (x.rank() != 2) {
    throw std::invalid_argument("CompiledNetwork::infer: body produced non-matrix logits " +
                                x.shape().str());
  }
  return nn::mean_over_time(x, plan_.timesteps);
}

InferenceResult CompiledNetwork::infer(const InferenceRequest& request) const {
  const Tensor& batch = request.batch;
  if (batch.rank() < 2) {
    throw std::invalid_argument("CompiledNetwork::infer: expected [N, ...], got " +
                                batch.shape().str());
  }
  const auto start = std::chrono::steady_clock::now();
  if (plan_.profile && plan_.profile->enabled()) plan_.profile->count_execute();
  // Every op is row-independent at inference (BN reads running
  // statistics, neurons and the time mean work per sample), so
  // contiguous row shards through the serial plan, stacked in order,
  // give the whole batch's logits bitwise. One shard per lane; the ops
  // themselves never touch the pool.
  const int64_t n = batch.dim(0);
  const int64_t shards = plan_.pool ? std::min(n, plan_.pool->lanes()) : 1;
  InferenceResult result;
  if (shards <= 1) {
    result.logits = mean_logits(batch);
  } else {
    std::vector<Tensor> parts(static_cast<std::size_t>(shards));
    plan_.pool->parallel_chunks(shards, [&](int64_t c) {
      parts[static_cast<std::size_t>(c)] =
          mean_logits(tensor::slice_rows(batch, n * c / shards, n * (c + 1) / shards));
    });
    std::vector<const Tensor*> ordered;
    for (const Tensor& p : parts) ordered.push_back(&p);
    result.logits = tensor::concat_rows(ordered);
  }
  result.latency_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

}  // namespace ndsnn::runtime
