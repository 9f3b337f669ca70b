// plan_batch: offline batched inference on a compiled plan.
//
// Setup trains the train_ndsnn recipe for kTrainEpochs epochs and
// compiles an fp32 kAuto plan. One caller then runs
// CompiledNetwork::infer in a closed loop on batches of 32 held-out
// images (a seeded split of a fixed held-out set); every output is
// checked bitwise against SpikingNetwork::predict on the same batch.
//
// The plan is serial. With one intra-op lane per vCPU, every fork-join
// waits for its slowest lane, so on a shared 4-vCPU host one
// descheduled vCPU stalls the call: over ten seeds the pooled plan's
// throughput spread by 24% and its p90 by 48%, and 4 lanes ran only
// 1.07x faster than one. The pooled plan is probed in the traced run
// (util.lanes_speedup).
//
// Traced: half the window runs infer untraced, the other half runs the
// plan op by op (DirectEncoder -> plan_ir().ops[i]->run() -> mean over
// time, which is what infer does) with a span per op; then probes time
// the interpreted predict, a pooled plan and the thread pool's dispatch.
#include <optional>

#include "common.hpp"
#include "core/trainer.hpp"
#include "nn/loss.hpp"
#include "runtime/compiled_network.hpp"
#include "snn/encoder.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

using ndsnn::runtime::CompiledNetwork;
using ndsnn::tensor::Tensor;

constexpr int64_t kBatch = 32;
constexpr int64_t kHeldOut = 256;
/// After 2 epochs only the first two LIF layers fire and the logits are
/// the same for every input; after 4 all four fire (~18/14/4/1.5%).
constexpr int64_t kTrainEpochs = 4;

struct Trained {
  ndsnn::core::Experiment exp;
  std::optional<CompiledNetwork> plan;
  double compile_ms = 0.0;
};

ndsnn::runtime::CompileOptions plan_options(int64_t lanes) {
  ndsnn::runtime::CompileOptions o;
  o.weight_precision = ndsnn::runtime::WeightPrecision::kFp32;
  o.backend = ndsnn::runtime::Backend::kAuto;
  o.num_threads = lanes;
  return o;
}

Trained train_and_compile(const ndsnn::core::ExperimentConfig& cfg) {
  Trained t{ndsnn::core::build_experiment(cfg), std::nullopt, 0.0};
  ndsnn::core::Trainer trainer(*t.exp.network, *t.exp.method, *t.exp.train_set,
                               *t.exp.test_set, t.exp.trainer);
  (void)trainer.run();
  const auto t0 = Clock::now();
  t.plan.emplace(CompiledNetwork::compile(*t.exp.network, plan_options(/*lanes=*/1)));
  t.compile_ms = ms_between(t0, Clock::now());
  return t;
}

/// Op kind -> span name; conv and linear ops run the sparse kernels.
const char* op_span(const std::string& kind) {
  if (kind.find("conv") != std::string::npos) return "sparse.conv";
  if (kind.find("linear") != std::string::npos) return "sparse.linear";
  if (kind.find("lif") != std::string::npos) return "runtime.neuron";
  if (kind == "pool") return "runtime.pool";
  if (kind == "bn") return "runtime.bn";
  return "runtime.other";
}

/// infer() rebuilt from public calls with a span per op.
Tensor traced_infer(const CompiledNetwork& plan, const Tensor& batch, Tracer& tracer,
                    int64_t call) {
  const auto root = tracer.span("runtime.infer", call);
  const auto& ir = plan.plan_ir();
  ndsnn::runtime::Activation x;
  {
    const auto s = tracer.span("runtime.encode", call);
    ndsnn::snn::DirectEncoder encoder;
    x = ndsnn::runtime::Activation(encoder.encode(batch, plan.timesteps()));
  }
  for (std::size_t i = 0; i < ir.ops.size(); ++i) {
    const auto s = tracer.span(op_span(ir.reports[i].kind), call);
    x = ir.ops[i]->run(x);
  }
  const auto s = tracer.span("runtime.readout", call);
  return ndsnn::nn::mean_over_time(x.tensor, plan.timesteps());
}

double nonzero_fraction(const Tensor& t) {
  if (t.numel() == 0) return 0.0;
  return 1.0 - static_cast<double>(t.count_zeros()) / static_cast<double>(t.numel());
}

/// Firing rate of the neuron ops' outputs and the MACs the weight ops
/// do on one batch, computed from nnz x active inputs (not measured).
void count_work(const CompiledNetwork& plan, const Tensor& batch, Outcome& out) {
  const auto& ir = plan.plan_ir();
  ndsnn::snn::DirectEncoder encoder;
  ndsnn::runtime::Activation x(encoder.encode(batch, plan.timesteps()));
  double spikes = 0.0, slots = 0.0, macs = 0.0;
  for (std::size_t i = 0; i < ir.ops.size(); ++i) {
    const auto& r = ir.reports[i];
    const double density = nonzero_fraction(x.tensor);
    const double rows = static_cast<double>(x.tensor.dim(0));
    ndsnn::runtime::Activation y = ir.ops[i]->run(x);
    if (r.kind.find("conv") != std::string::npos) {
      const double positions = static_cast<double>(y.tensor.dim(2) * y.tensor.dim(3));
      macs += static_cast<double>(r.nnz) * rows * positions * density;
    } else if (r.kind.find("linear") != std::string::npos) {
      macs += static_cast<double>(r.nnz) * rows * density;
    } else if (r.kind.find("lif") != std::string::npos) {
      const auto events = ndsnn::runtime::SpikeBatch::scan(y.tensor);
      spikes += static_cast<double>(events.idx.size());
      slots += static_cast<double>(events.rows * events.row_size);
    }
    x = std::move(y);
  }
  out.set("plan.firing_rate", slots > 0.0 ? spikes / slots : 0.0);
  out.set("plan.macs", macs);
  out.set("plan.nnz", static_cast<double>(plan.stored_weights()));
  out.set("plan.stored_bytes", static_cast<double>(plan.stored_bytes()));
}

struct LoopStats {
  std::vector<double> latency_ms;
  int64_t samples = 0;
  double wall_s = 0.0;
};

/// Closed loop of infer calls for `seconds`, each output checked.
LoopStats infer_loop(const CompiledNetwork& plan, const std::vector<Tensor>& batches,
                     const std::vector<Tensor>& expected, double seconds, Outcome& out) {
  LoopStats s;
  const auto start = Clock::now();
  for (std::size_t call = 0; s.latency_ms.empty() || ms_between(start, Clock::now()) <
                                                      seconds * 1000.0;
       ++call) {
    const std::size_t b = call % batches.size();
    const auto t0 = Clock::now();
    const Tensor logits = plan.infer({batches[b], {}}).logits;
    s.latency_ms.push_back(ms_between(t0, Clock::now()));
    s.samples += batches[b].dim(0);
    ++out.attempted;
    if (!bitwise_equal(logits, expected[b])) out.fail("infer differs from predict");
  }
  s.wall_s = ms_between(start, Clock::now()) / 1000.0;
  return s;
}

}  // namespace

Outcome run_plan_batch(const Options& opts, Tracer& tracer) {
  const auto cfg = lenet_recipe(kTrainEpochs, /*serve_model=*/false);
  Outcome out;

  // Each setup trains the same recipe, so every plan is the same. The
  // median of three setups ignores one that a host stall slowed.
  constexpr int kSetups = 3;
  std::vector<double> setup_s, compile_ms;
  std::optional<Trained> t;
  for (int i = 0; i < kSetups; ++i) {
    t.reset();
    const auto t0 = Clock::now();
    t.emplace(train_and_compile(cfg));
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
    compile_ms.push_back(t->compile_ms);
  }
  const CompiledNetwork& plan = *t->plan;
  auto& net = *t->exp.network;

  // Held-out batches and the interpreted reference, outside any window.
  const ndsnn::data::SyntheticVision images = held_out(t->exp, kHeldOut);
  ndsnn::tensor::Rng rng(opts.seed);
  const std::vector<int64_t> order = permutation(kHeldOut, rng);
  std::vector<Tensor> batches, expected;
  std::vector<int64_t> labels;
  for (auto first = order.begin(); first != order.end(); first += kBatch) {
    ndsnn::data::Batch b = ndsnn::data::make_batch(images, {first, first + kBatch});
    labels.insert(labels.end(), b.labels.begin(), b.labels.end());
    batches.push_back(std::move(b.images));
    expected.push_back(net.predict(batches.back()));
  }
  int64_t correct = 0;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    const Tensor logits = plan.infer({batches[b], {}}).logits;
    ++out.attempted;
    if (!bitwise_equal(logits, expected[b])) out.fail("fp32 plan differs from predict");
    correct += count_correct(logits, labels, b * kBatch);
  }

  if (!opts.trace) {
    const LoopStats s = infer_loop(plan, batches, expected, opts.seconds, out);
    out.set("setup_s", median(setup_s));
    out.set("throughput", static_cast<double>(s.samples) / s.wall_s);
    out.set("p50_ms", median(s.latency_ms));
    out.set("p90_ms", percentile(s.latency_ms, 0.9));
    out.set("accuracy", 100.0 * static_cast<double>(correct) / static_cast<double>(labels.size()));
    out.set("peak_rss_mb", peak_rss_mb());
    std::printf("plan_batch: %zu infer calls; setups", s.latency_ms.size());
    for (const double x : setup_s) std::printf(" %.3f", x);
    std::printf(" s\n");
    return out;
  }

  const LoopStats untraced = infer_loop(plan, batches, expected, opts.seconds / 2, out);
  const double infer_ms = mean(untraced.latency_ms);
  int64_t executions = 0, samples = 0;
  const auto start = Clock::now();
  while (executions == 0 || ms_between(start, Clock::now()) < opts.seconds * 500.0) {
    const std::size_t b = static_cast<std::size_t>(executions) % batches.size();
    const Tensor logits = traced_infer(plan, batches[b], tracer, executions);
    ++executions;
    samples += batches[b].dim(0);
    ++out.attempted;
    if (!bitwise_equal(logits, expected[b])) out.fail("op-by-op plan differs from predict");
  }
  const double traced_wall_s = ms_between(start, Clock::now()) / 1000.0;
  const double untraced_rate = static_cast<double>(untraced.samples) / untraced.wall_s;
  out.set("trace.overhead", untraced_rate / (static_cast<double>(samples) / traced_wall_s) - 1.0);

  const auto per_execution = [&](const char* span) {
    return tracer.mean_ms(span) * static_cast<double>(tracer.count(span)) /
           static_cast<double>(executions);
  };
  const double conv = per_execution("sparse.conv");
  const double ops_total = conv + per_execution("sparse.linear") +
                           per_execution("runtime.neuron") + per_execution("runtime.pool") +
                           per_execution("runtime.bn") + per_execution("runtime.other");
  out.set("plan.conv_ms", conv);
  out.set("plan.linear_ms", per_execution("sparse.linear"));
  out.set("plan.neuron_ms", per_execution("runtime.neuron"));
  out.set("plan.pool_ms", per_execution("runtime.pool"));
  out.set("plan.bn_ms", per_execution("runtime.bn"));
  out.set("plan.conv_share", ops_total > 0.0 ? conv / ops_total : 0.0);
  set_self_times(out, tracer, {"runtime.infer"}, executions);
  count_work(plan, batches[0], out);
  probe_serving(opts.seed, tracer, out);

  // Probes: the interpreted network and a plan with one lane per
  // hardware thread on the same batches, and one empty fork-join on a
  // pool as wide as that plan's.
  constexpr int kProbeCalls = 16;
  for (int i = 0; i < kProbeCalls; ++i) {
    const auto s = tracer.span("probe.nn_predict", i);
    (void)net.predict(batches[static_cast<std::size_t>(i) % batches.size()]);
  }
  const CompiledNetwork pooled = CompiledNetwork::compile(net, plan_options(/*lanes=*/0));
  for (int i = 0; i < kProbeCalls; ++i) {
    const std::size_t b = static_cast<std::size_t>(i) % batches.size();
    Tensor logits;
    {
      const auto s = tracer.span("probe.pooled_infer", i);
      logits = pooled.infer({batches[b], {}}).logits;
    }
    ++out.attempted;
    if (!bitwise_equal(logits, expected[b])) out.fail("pooled plan differs from predict");
  }
  ndsnn::util::ThreadPool pool(pooled.intra_op_threads());
  constexpr int kDispatches = 2000;
  const auto d0 = Clock::now();
  for (int i = 0; i < kDispatches; ++i) pool.parallel_chunks(pool.lanes(), [](int64_t) {});
  out.set("util.dispatch_us", ms_between(d0, Clock::now()) * 1000.0 / kDispatches);

  const double predict_ms = tracer.mean_ms("probe.nn_predict");
  const double pooled_ms = tracer.mean_ms("probe.pooled_infer");
  out.set("runtime.compile_ms", median(compile_ms));
  out.set("runtime.infer_ms", infer_ms);
  out.set("nn.predict_ms", predict_ms);
  out.set("runtime.predict_over_infer", predict_ms / infer_ms);
  out.set("runtime.pooled_infer_ms", pooled_ms);
  out.set("util.lanes_speedup", infer_ms / pooled_ms);
  std::printf("plan_batch traced: %lld op-by-op executions; pooled plan probe: %lld lanes\n",
              static_cast<long long>(executions),
              static_cast<long long>(pooled.intra_op_threads()));
  return out;
}

}  // namespace perfbench
