// The randomized differential sweep: many generated network scenarios,
// each compiled on every backend (auto / dense / CSR) crossed
// with every activation mode (auto / dense / event-driven) and checked
// bitwise against the interpreted SpikingNetwork::predict.
//
// Scale with NDSNN_DIFF_CONFIGS (default 200 configurations, i.e. 200
// per backend x activation pair); reproduce a failure with the
// NDSNN_TEST_SEED it logs.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "tensor/ops.hpp"
#include "testing.hpp"

namespace ndsnn::runtime {
namespace {

TEST(DifferentialTest, CompiledMatchesInterpretedBitwiseOnAllBackends) {
  const int configs = difftest::env_int("NDSNN_DIFF_CONFIGS", 200);
  tensor::Rng rng(difftest::env_seed());
  // How often each op kind appeared across all auto-compiled plans: the
  // sweep must actually exercise every weight kernel, not pass vacuously.
  std::map<std::string, int> auto_kinds;
  int auto_event_ops = 0;
  int quant_ops = 0;  // sparse weight ops that carried a quantised plane

  // Pinned scenarios guarantee each weight kernel and both firing-rate
  // extremes show up under kAuto regardless of seed and sweep size (at
  // the Debug-CI sweep of 40 random configs, dense-eligible draws alone
  // have a few-percent chance of never occurring).
  std::vector<difftest::NetConfig> cases;
  difftest::NetConfig pinned;
  pinned.image = 8;
  pinned.seed = 97;
  pinned.sparsity = 0.3;  // below the 0.5 sparsity bar -> dense
  cases.push_back(pinned);
  pinned.sparsity = 0.9;  // unstructured -> CSR
  cases.push_back(pinned);
  pinned.input = difftest::InputKind::kSilent;  // all-silent spike trains
  cases.push_back(pinned);
  pinned.input = difftest::InputKind::kSaturated;  // all-firing spike trains
  cases.push_back(pinned);
  pinned.input = difftest::InputKind::kRandom;
  pinned.sparsity = 0.5;  // exactly at the 0.5 sparsity bar -> CSR
  cases.push_back(pinned);
  pinned.sparsity = 0.0;  // 4x4 block mask -> CSR
  pinned.block_keep = 0.25;
  cases.push_back(pinned);
  for (int i = 0; i < configs; ++i) cases.push_back(difftest::random_config(rng));

  for (std::size_t i = 0; i < cases.size(); ++i) {
    const difftest::NetConfig& cfg = cases[i];
    SCOPED_TRACE("config " + std::to_string(i) + ": " + cfg.str());
    const auto net = difftest::build_network(cfg);
    const tensor::Tensor batch = difftest::random_batch(cfg);
    const tensor::Tensor want = net->predict(batch);

    for (const Backend backend : difftest::all_backends()) {
      for (const ActivationMode activation : difftest::all_activation_modes()) {
        const CompiledNetwork compiled = CompiledNetwork::compile(
            *net, difftest::options_for(backend, activation));
        if (backend == Backend::kAuto && activation == ActivationMode::kAuto) {
          for (const auto& r : compiled.plan()) {
            ++auto_kinds[r.kind + (r.event ? "+event" : "")];
            auto_event_ops += r.event;
          }
        }
        difftest::expect_bitwise(
            compiled.infer({batch, {}}).logits, want,
            std::string("backend=") + difftest::backend_name(backend) +
                " activation=" + difftest::activation_name(activation));
        if (::testing::Test::HasFatalFailure()) return;  // one config is enough to debug
      }
    }

    // Kernel-tier axis: the default compiles above dispatch the detected
    // tier; a plan compiled under a forced scalar tier must not move a
    // single bit (see the tier-axis note in testing.hpp).
    for (const util::simd::Tier tier : difftest::forced_tiers()) {
      const CompiledNetwork forced = [&] {
        const difftest::TierGuard guard(tier);
        return CompiledNetwork::compile(*net);
      }();
      difftest::expect_bitwise(forced.infer({batch, {}}).logits, want,
                               std::string("tier=") + util::simd::name(tier));
      if (::testing::Test::HasFatalFailure()) return;
    }

    // Precision axis: quantised plans are compared per op, in lockstep,
    // against a fake-quant reference plan executing the identical
    // effective weights on the fp32 kernels (see the precision-axis
    // note in testing.hpp for why logits are not a sound comparison
    // point). ResidualBlock compiles to one composite op whose internal
    // neuron ops the lockstep walk cannot isolate, so resnet19 configs
    // stay on the fp32 axis (the quantised kernels themselves are
    // architecture-agnostic and fully covered by the lenet/vgg sweeps
    // plus tests/sparse/quant_test.cpp).
    if (cfg.arch != "resnet19") {
      snn::DirectEncoder encoder;
      for (const WeightPrecision p : difftest::quantised_precisions()) {
        for (const Backend backend : difftest::all_backends()) {
          for (const ActivationMode activation : difftest::all_activation_modes()) {
            CompileOptions qopts = difftest::options_for(backend, activation);
            qopts.weight_precision = p;
            const CompiledNetwork qplan = CompiledNetwork::compile(*net, qopts);
            CompileOptions fopts = qopts;
            fopts.fake_quant = true;
            const CompiledNetwork fplan = CompiledNetwork::compile(*net, fopts);
            if (backend == Backend::kAuto && activation == ActivationMode::kAuto) {
              for (const auto& r : qplan.plan()) {
                quant_ops += r.precision != sparse::Precision::kFp32;
              }
            }
            difftest::expect_lockstep_close(
                qplan.plan_ir(), fplan.plan_ir(),
                encoder.encode(batch, qplan.timesteps()), difftest::quant_tolerance(p),
                std::string("precision=") + weight_precision_name(p) +
                    " backend=" + difftest::backend_name(backend) +
                    " activation=" + difftest::activation_name(activation));
            if (::testing::Test::HasFatalFailure()) return;
            if (backend == Backend::kAuto && activation == ActivationMode::kAuto) {
              // Tier axis on the quantised kernels: unlike fp32 they
              // only promise a bounded error, and the bound must hold
              // at every forced tier, not just the dispatched one.
              for (const util::simd::Tier tier : difftest::forced_tiers()) {
                const CompiledNetwork tplan = [&] {
                  const difftest::TierGuard guard(tier);
                  return CompiledNetwork::compile(*net, qopts);
                }();
                difftest::expect_lockstep_close(
                    tplan.plan_ir(), fplan.plan_ir(),
                    encoder.encode(batch, tplan.timesteps()), difftest::quant_tolerance(p),
                    std::string("precision=") + weight_precision_name(p) +
                        " tier=" + util::simd::name(tier));
                if (::testing::Test::HasFatalFailure()) return;
              }
            }
          }
        }
      }
    }
  }

  // The heuristics must have picked each dense-activation weight kernel
  // — dense (0.3-sparsity layers), CSR (unstructured and block masks) —
  // and the event-driven activation path somewhere in the sweep (the
  // silent pinned config guarantees a measured 0 firing rate, which
  // kAuto maps onto the event path for its spiking-input layers). The
  // event path holds CSR Wᵀ on every layer, so no dense op runs it.
  EXPECT_GT(auto_kinds["dense-linear"] + auto_kinds["dense-conv"], 0);
  EXPECT_EQ(auto_kinds["dense-linear+event"] + auto_kinds["dense-conv+event"], 0);
  EXPECT_GT(auto_kinds["csr-linear"] + auto_kinds["csr-conv"], 0);
  EXPECT_GT(auto_event_ops, 0);
  // The precision axis must have put real quantised planes on sparse
  // weight ops (forced int8/int4 applies to every non-dense kernel; the
  // pinned 0.9-sparsity config guarantees at least one).
  EXPECT_GT(quant_ops, 0);
}

TEST(DifferentialTest, ClassifyAgreesWithInterpretedArgmax) {
  tensor::Rng rng(difftest::env_seed() ^ 0xC1A551F1ULL);
  for (int i = 0; i < 5; ++i) {
    difftest::NetConfig cfg = difftest::random_config(rng);
    cfg.arch = "lenet5";  // keep this auxiliary check cheap
    cfg.image = 8;
    SCOPED_TRACE(cfg.str());
    const auto net = difftest::build_network(cfg);
    const tensor::Tensor batch = difftest::random_batch(cfg);
    const CompiledNetwork compiled = CompiledNetwork::compile(*net);
    const auto classes = tensor::argmax_rows(compiled.infer({batch, {}}).logits);
    const tensor::Tensor logits = net->predict(batch);
    ASSERT_EQ(static_cast<int64_t>(classes.size()), cfg.batch);
    for (int64_t b = 0; b < cfg.batch; ++b) {
      int64_t best = 0;
      for (int64_t c = 1; c < logits.dim(1); ++c) {
        if (logits.at(b, c) > logits.at(b, best)) best = c;
      }
      EXPECT_EQ(classes[static_cast<std::size_t>(b)], best) << "sample " << b;
    }
  }
}

}  // namespace
}  // namespace ndsnn::runtime
