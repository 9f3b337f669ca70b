// End-to-end pin of the bitwise training contract: a small NDSNN recipe
// trained through Trainer::run must land on the exact parameters a
// serial build of the trainer produced. Training kernels split their
// outputs over util::ThreadPool::shared() (as many lanes as the host
// has), but never a chain, so the FNV-1a hash of every trained
// parameter's bits, the final sparsity and the final accuracy are the
// serial ones on any host, kernel tier and lane count.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "core/experiment.hpp"
#include "core/trainer.hpp"

namespace ndsnn::core {
namespace {

/// FNV-1a over the bytes of every parameter, in params() order.
uint64_t parameter_hash(nn::SpikingNetwork& network) {
  uint64_t h = 1469598103934665603ULL;
  for (const nn::ParamRef& p : network.params()) {
    for (int64_t i = 0; i < p.value->numel(); ++i) {
      uint32_t bits = 0;
      std::memcpy(&bits, p.value->data() + i, sizeof(bits));
      for (int b = 0; b < 4; ++b) {
        h ^= (bits >> (8 * b)) & 0xFFU;
        h *= 1099511628211ULL;
      }
    }
  }
  return h;
}

TEST(TrainedHashTest, SmallNdsnnRecipeTrainsToTheSerialParameters) {
  // LeNet-5 (6 and 16 filters over 3 channels) on 16x16 images, batches
  // of 24, 24 and 12 (ragged), two epochs with a mask update every two
  // iterations: big enough that the convs, BN1, LIF1 and make_batch all
  // split over the lanes.
  ExperimentConfig cfg;
  cfg.arch = "lenet5";
  cfg.dataset = "cifar10";
  cfg.method = "ndsnn";
  cfg.sparsity = 0.9;
  cfg.timesteps = 2;
  cfg.epochs = 2;
  cfg.batch_size = 24;
  cfg.train_samples = 60;
  cfg.test_samples = 24;
  cfg.model_scale = 1.0;
  cfg.data_scale = 0.5;
  cfg.delta_t = 2;
  cfg.seed = 7;
  Experiment exp = build_experiment(cfg);
  Trainer trainer(*exp.network, *exp.method, *exp.train_set, *exp.test_set, exp.trainer);
  const TrainResult result = trainer.run();

  // Recorded from the serial trainer (every kernel inline), AVX2 and
  // scalar tiers alike.
  EXPECT_EQ(parameter_hash(*exp.network), 0x09322e519469ede9ULL);
  EXPECT_EQ(result.final_sparsity, 0.84376264329062711);
  EXPECT_EQ(result.final_test_acc, 100.0 * 2.0 / 24.0);
}

}  // namespace
}  // namespace ndsnn::core
