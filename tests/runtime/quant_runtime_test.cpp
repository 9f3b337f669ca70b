// Quantised-value execution through the compiled runtime: precision
// selection (forced / auto error-bound / v3 checkpoint records, whole
// and per layer), report plumbing, byte accounting, a pinned
// end-to-end sanity run, and quantised CSR convs bitwise against their
// fake-quant plans. The tight numeric guarantees live
// in the differential sweep's lockstep precision axis (testing.hpp) and
// the kernel-level tests (tests/sparse/quant_test.cpp).
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "nn/checkpoint.hpp"
#include "nn/models/zoo.hpp"
#include "snn/encoder.hpp"
#include "tensor/random.hpp"
#include "testing.hpp"

namespace ndsnn::runtime {
namespace {

difftest::NetConfig pinned_config() {
  difftest::NetConfig cfg;
  cfg.arch = "lenet5";
  cfg.image = 12;
  cfg.sparsity = 0.9;
  cfg.seed = 314159;
  return cfg;
}

/// Uniform [0, 1) image batch of shape [n, c, s, s].
tensor::Tensor random_batch(int64_t n, int64_t c, int64_t s, uint64_t seed) {
  tensor::Rng rng(seed);
  tensor::Tensor batch(tensor::Shape{n, c, s, s});
  batch.fill_uniform(rng, 0.0F, 1.0F);
  return batch;
}

/// Weight-op reports (weights > 0), in body order.
std::vector<OpReport> weight_reports(const CompiledNetwork& plan) {
  std::vector<OpReport> out;
  for (const auto& r : plan.plan()) {
    if (r.weights > 0) out.push_back(r);
  }
  return out;
}

TEST(QuantRuntimeTest, ForcedPrecisionQuantisesSparseLayersAndShrinksBytes) {
  const auto net = difftest::build_network(pinned_config());
  CompileOptions fp32_opts;
  fp32_opts.backend = Backend::kCsr;
  const CompiledNetwork fp32 = CompiledNetwork::compile(*net, fp32_opts);
  CompileOptions q_opts = fp32_opts;
  q_opts.weight_precision = WeightPrecision::kInt8;
  const CompiledNetwork q8 = CompiledNetwork::compile(*net, q_opts);
  q_opts.weight_precision = WeightPrecision::kInt4;
  const CompiledNetwork q4 = CompiledNetwork::compile(*net, q_opts);

  for (const auto& r : weight_reports(q8)) {
    EXPECT_EQ(r.precision, sparse::Precision::kInt8) << r.layer;
  }
  // Same structure, smaller value planes: int8 cuts value bytes 4x,
  // int4 8x (index overhead unchanged).
  EXPECT_EQ(q8.stored_weights(), fp32.stored_weights());
  EXPECT_LT(q8.stored_bytes(), fp32.stored_bytes());
  EXPECT_LT(q4.stored_bytes(), q8.stored_bytes());
  // The summary surfaces the precision per op.
  EXPECT_NE(q8.summary().find("int8"), std::string::npos);

  // And the quantised plan still serves: finite logits, right shape.
  const tensor::Tensor batch = difftest::random_batch(pinned_config());
  const tensor::Tensor logits = q8.infer({batch, {}}).logits;
  EXPECT_EQ(logits.dim(0), batch.dim(0));
  for (int64_t i = 0; i < logits.numel(); ++i) {
    EXPECT_TRUE(std::isfinite(logits.at(i)));
  }
}

TEST(QuantRuntimeTest, DenseKernelLayersAlwaysExecuteFp32) {
  const auto net = difftest::build_network(pinned_config());
  CompileOptions opts;
  opts.backend = Backend::kDense;
  opts.weight_precision = WeightPrecision::kInt8;
  const CompiledNetwork plan = CompiledNetwork::compile(*net, opts);
  for (const auto& r : weight_reports(plan)) {
    EXPECT_EQ(r.precision, sparse::Precision::kFp32) << r.layer;
  }
}

// The event path holds CSR Wᵀ on every layer, but a layer below the
// sparsity bar keeps the fp32 plane the dense kernel it was picked for
// would run: a forced int8 quantises only the layer above the bar.
TEST(QuantRuntimeTest, EventLayersBelowTheSparsityBarStayFp32) {
  difftest::NetConfig cfg = pinned_config();
  cfg.sparsity = 0.3;  // every layer below the 0.5 bar...
  const auto net = difftest::build_network(cfg);
  nn::ParamRef last;
  for (const auto& p : net->params()) {
    if (p.prunable) last = p;
  }
  tensor::Rng rng(271828);
  const sparse::Mask mask(last.value->shape(), last.value->numel() / 10, rng);
  mask.apply(*last.value);  // ...but the last, now 0.9 sparse

  CompileOptions opts;
  opts.activation_mode = ActivationMode::kEvent;
  opts.weight_precision = WeightPrecision::kInt8;
  const std::vector<OpReport> reports = weight_reports(CompiledNetwork::compile(*net, opts));
  ASSERT_EQ(reports.size(), 5U);
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const OpReport& r = reports[i];
    EXPECT_TRUE(r.event) << r.layer;
    EXPECT_EQ(r.kind.rfind("csr-", 0), 0U) << r.layer << " " << r.kind;
    EXPECT_EQ(r.precision,
              i + 1 == reports.size() ? sparse::Precision::kInt8 : sparse::Precision::kFp32)
        << r.layer;
  }
}

TEST(QuantRuntimeTest, AutoPrecisionFollowsTheMeasuredErrorBound) {
  const auto net = difftest::build_network(pinned_config());
  CompileOptions opts;
  opts.backend = Backend::kCsr;
  opts.weight_precision = WeightPrecision::kAuto;
  // Default bound (0.02): per-row int8 error ~0.4% passes, int4 ~7% is
  // rejected — every sparse layer lands on int8.
  for (const auto& r : weight_reports(CompiledNetwork::compile(*net, opts))) {
    EXPECT_EQ(r.precision, sparse::Precision::kInt8) << r.layer;
  }
}

/// Save `net` (pinned_config's lenet5) as a v3 checkpoint carrying
/// `record`; returns the path.
std::string save_v3(nn::SpikingNetwork& net, const nn::QuantRecord& record,
                    const std::string& name) {
  const difftest::NetConfig cfg = pinned_config();
  nn::ModelSpec spec;
  spec.in_channels = cfg.channels;
  spec.image_size = cfg.image;
  spec.timesteps = cfg.timesteps;
  spec.seed = cfg.seed;
  const std::string path = ::testing::TempDir() + "/" + name;
  nn::save_checkpoint_file(path, net, nn::CheckpointMeta{"lenet5", spec}, record);
  return path;
}

TEST(QuantRuntimeTest, LayerPrecisionOverridesApplyInBodyOrder) {
  const auto net = difftest::build_network(pinned_config());
  // A hand-built record covering only the first three weight layers.
  nn::QuantRecord record = nn::build_quant_record(*net, sparse::Precision::kInt4);
  ASSERT_GE(record.layers.size(), 4U);  // lenet5: conv1 conv2 fc1 fc2 fc3
  record.layers.resize(3);
  record.layers[1] = nn::build_quant_record(*net, sparse::Precision::kFp32).layers[1];
  record.layers[2] = nn::build_quant_record(*net, sparse::Precision::kInt8).layers[2];
  const std::string path = save_v3(*net, record, "quant_v3_mixed.ndck");

  CompileOptions opts;
  opts.backend = Backend::kCsr;
  opts.weight_precision = WeightPrecision::kAuto;
  const auto reports = weight_reports(CompiledNetwork::from_checkpoint(path, opts));
  ASSERT_GE(reports.size(), 4U);
  EXPECT_EQ(reports[0].precision, sparse::Precision::kInt4);
  EXPECT_EQ(reports[1].precision, sparse::Precision::kFp32);
  EXPECT_EQ(reports[2].precision, sparse::Precision::kInt8);
  // Layers past the record fall back to the error-bound heuristic
  // (int8 under the fixed bound).
  for (std::size_t i = 3; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i].precision, sparse::Precision::kInt8) << reports[i].layer;
  }
}

TEST(QuantRuntimeTest, FakeQuantPlanExecutesFp32KernelsWithQuantisedWeights) {
  const auto net = difftest::build_network(pinned_config());
  CompileOptions opts;
  opts.backend = Backend::kCsr;
  opts.weight_precision = WeightPrecision::kInt8;
  opts.fake_quant = true;
  const CompiledNetwork fake = CompiledNetwork::compile(*net, opts);
  // Reports carry the nominal precision, bytes the actual fp32 storage.
  const auto reports = weight_reports(fake);
  CompileOptions fp32_opts;
  fp32_opts.backend = Backend::kCsr;
  const auto fp32_reports = weight_reports(CompiledNetwork::compile(*net, fp32_opts));
  for (std::size_t i = 0; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i].precision, sparse::Precision::kInt8);
    EXPECT_EQ(reports[i].bytes, fp32_reports[i].bytes);
  }
  // Fake-quant differs from true fp32 (the weights really are
  // quantised). Untrained 0.9-sparse nets go silent before the logits,
  // so the assertion targets the first conv — its analog input is
  // always nonzero.
  const CompiledNetwork fp32 = CompiledNetwork::compile(*net, fp32_opts);
  snn::DirectEncoder encoder;
  const tensor::Tensor batch = difftest::random_batch(pinned_config());
  const Activation a =
      fake.plan_ir().ops[0]->run(Activation(encoder.encode(batch, fake.timesteps())));
  const Activation b =
      fp32.plan_ir().ops[0]->run(Activation(encoder.encode(batch, fp32.timesteps())));
  bool any_diff = false;
  for (int64_t i = 0; i < a.tensor.numel(); ++i) {
    any_diff |= a.tensor.at(i) != b.tensor.at(i);
  }
  EXPECT_TRUE(any_diff);
}

/// Pinned (deterministic) sanity against *true* fp32 weights: the int8
/// first-conv output moves by a real but bounded amount. This guards
/// against gross kernel breakage (wrong scale indexing, nibble-order
/// bugs) with genuine quantisation error in the signal path; the
/// precision contract itself is asserted by the lockstep sweep and
/// tests/sparse/quant_test.cpp.
TEST(QuantRuntimeTest, PinnedFirstOpInt8OutputStaysCloseToFp32) {
  const difftest::NetConfig cfg = pinned_config();
  const auto net = difftest::build_network(cfg);
  const tensor::Tensor batch = difftest::random_batch(cfg);
  CompileOptions opts;
  opts.backend = Backend::kCsr;
  const CompiledNetwork fp32 = CompiledNetwork::compile(*net, opts);
  opts.weight_precision = WeightPrecision::kInt8;
  const CompiledNetwork q8 = CompiledNetwork::compile(*net, opts);
  snn::DirectEncoder encoder;
  const Activation want =
      fp32.plan_ir().ops[0]->run(Activation(encoder.encode(batch, fp32.timesteps())));
  const Activation got =
      q8.plan_ir().ops[0]->run(Activation(encoder.encode(batch, q8.timesteps())));
  double worst = 0.0;
  for (int64_t i = 0; i < want.tensor.numel(); ++i) {
    worst = std::max(worst, static_cast<double>(
                                std::fabs(got.tensor.at(i) - want.tensor.at(i))));
  }
  EXPECT_GT(worst, 0.0);    // quantisation really happened
  EXPECT_LE(worst, 0.05);   // ~0.5 * scale * sum|x| for a 25-term conv row
}

TEST(QuantRuntimeTest, FromCheckpointHonorsV3RecordUnderAuto) {
  const auto net = difftest::build_network(pinned_config());
  const std::string path =
      save_v3(*net, nn::build_quant_record(*net, sparse::Precision::kInt4), "quant_v3.ndck");

  // kAuto honors the record: every sparse layer serves int4.
  CompileOptions opts;
  opts.backend = Backend::kCsr;
  opts.weight_precision = WeightPrecision::kAuto;
  for (const auto& r : weight_reports(CompiledNetwork::from_checkpoint(path, opts))) {
    EXPECT_EQ(r.precision, sparse::Precision::kInt4) << r.layer;
  }
  // The default (kFp32) ignores it; an explicit precision overrides it.
  CompileOptions fp32_opts;
  fp32_opts.backend = Backend::kCsr;
  for (const auto& r : weight_reports(CompiledNetwork::from_checkpoint(path, fp32_opts))) {
    EXPECT_EQ(r.precision, sparse::Precision::kFp32) << r.layer;
  }
  CompileOptions int8_opts;
  int8_opts.backend = Backend::kCsr;
  int8_opts.weight_precision = WeightPrecision::kInt8;
  for (const auto& r : weight_reports(CompiledNetwork::from_checkpoint(path, int8_opts))) {
    EXPECT_EQ(r.precision, sparse::Precision::kInt8) << r.layer;
  }
}

TEST(QuantRuntimeTest, ParseWeightPrecisionRoundTrips) {
  EXPECT_EQ(parse_weight_precision("auto"), WeightPrecision::kAuto);
  EXPECT_EQ(parse_weight_precision("fp32"), WeightPrecision::kFp32);
  EXPECT_EQ(parse_weight_precision("int8"), WeightPrecision::kInt8);
  EXPECT_EQ(parse_weight_precision("int4"), WeightPrecision::kInt4);
  EXPECT_THROW((void)parse_weight_precision("bf16"), std::invalid_argument);
  EXPECT_STREQ(weight_precision_name(WeightPrecision::kInt4), "int4");
}

/// Quantised CSR conv reads each dequantised weight once and runs the
/// fp32 kernel's loop, so it computes exactly what the fake-quant plan
/// (same effective weights, fp32 storage) computes: bitwise, for int8
/// and int4 planes. Each conv op gets the
/// reference chain's activation and, so the deeper conv sees nonzero
/// input too, a uniform-random tensor of the same shape.
TEST(QuantRuntimeTest, QuantisedCsrConvMatchesFakeQuantBitwise) {
  nn::ModelSpec spec;
  spec.in_channels = 1;
  spec.image_size = 12;
  spec.timesteps = 2;
  const auto net = nn::make_lenet5(spec);
  difftest::apply_random_masks(*net, 0.9, 71);
  const tensor::Tensor batch = random_batch(2, 1, 12, 73);
  difftest::warm_up(*net, batch);

  for (const WeightPrecision precision : {WeightPrecision::kInt8, WeightPrecision::kInt4}) {
    const std::string ctx = weight_precision_name(precision);
    CompileOptions quant =
        difftest::options_for(Backend::kCsr, ActivationMode::kDense);
    quant.weight_precision = precision;
    CompileOptions ref = quant;
    ref.fake_quant = true;
    const CompiledNetwork q = CompiledNetwork::compile(*net, quant);
    const CompiledNetwork f = CompiledNetwork::compile(*net, ref);
    const Plan& qp = q.plan_ir();
    const Plan& fp = f.plan_ir();
    ASSERT_EQ(qp.ops.size(), fp.ops.size()) << ctx;

    snn::DirectEncoder encoder;
    Activation x(encoder.encode(batch, q.timesteps()));
    int convs = 0;
    for (std::size_t i = 0; i < fp.ops.size(); ++i) {
      Activation want = fp.ops[i]->run(x);
      if (qp.reports[i].kind == "csr-conv") {
        ASSERT_EQ(qp.reports[i].precision, difftest::to_sparse_precision(precision)) << ctx;
        const std::string op = ctx + " op " + std::to_string(i);
        difftest::expect_bitwise(qp.ops[i]->run(x).tensor, want.tensor, op);
        tensor::Tensor noise = random_batch(x.tensor.dim(0), x.tensor.dim(1),
                                            x.tensor.dim(2), 79 + i);
        ASSERT_EQ(noise.shape(), x.tensor.shape()) << op;
        const Activation in(std::move(noise));
        difftest::expect_bitwise(qp.ops[i]->run(in).tensor, fp.ops[i]->run(in).tensor,
                                 op + " (random input)");
        ++convs;
      }
      x = std::move(want);
    }
    EXPECT_EQ(convs, 2) << ctx;
  }
}

}  // namespace
}  // namespace ndsnn::runtime
