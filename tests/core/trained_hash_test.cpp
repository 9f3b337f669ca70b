// End-to-end pin of the bitwise training contract: a small NDSNN recipe
// trained through Trainer::run must land on the exact parameters a
// serial build of the trainer produced. Training kernels split their
// outputs over util::ThreadPool::shared() (as many lanes as the host
// has), but never a chain, so the FNV-1a hash of every trained
// parameter's bits, the final sparsity and the final accuracy are the
// serial ones on any host, kernel tier and lane count. The PLIF and ALIF
// bodies pin their neurons the same way, the trained leak included.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "core/experiment.hpp"
#include "core/trainer.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/flatten.hpp"
#include "nn/linear.hpp"
#include "nn/neuron_activations.hpp"
#include "nn/pool.hpp"
#include "opt/sgd.hpp"

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

/// The examples/temporal_events body (two conv -> BN -> neuron -> pool
/// stages, a linear readout) on [4, 12, 12] inputs, with `Neuron` as
/// both spiking nonlinearities.
template <class Neuron, class Config>
nn::SpikingNetwork event_network(const Config& neuron) {
  constexpr int64_t kTimesteps = 2;
  tensor::Rng rng(5);
  auto body = std::make_unique<nn::Sequential>();
  body->emplace<nn::Conv2d>(4, 16, 3, 1, 1, rng);
  body->emplace<nn::BatchNorm2d>(16);
  body->emplace<Neuron>(neuron, kTimesteps);
  body->emplace<nn::AvgPool2d>(2);
  body->emplace<nn::Conv2d>(16, 32, 3, 1, 1, rng);
  body->emplace<nn::BatchNorm2d>(32);
  body->emplace<Neuron>(neuron, kTimesteps);
  body->emplace<nn::AvgPool2d>(2);
  body->emplace<nn::Flatten>();
  body->emplace<nn::Linear>(32 * 3 * 3, 4, rng);
  return nn::SpikingNetwork(std::move(body), kTimesteps);
}

/// Three momentum-SGD steps on random batches of 32 (73 728 neurons per
/// frame in the first neuron layer, 36 864 in the second, so both split
/// over the lanes); returns the parameter hash.
uint64_t hash_after_sgd(nn::SpikingNetwork& network) {
  opt::SgdConfig config;
  config.learning_rate = 0.1;
  opt::Sgd sgd(network.params(), config);
  tensor::Rng rng(11);
  tensor::Tensor images(tensor::Shape{32, 4, 12, 12});
  std::vector<int64_t> labels(32);
  for (int64_t step = 0; step < 3; ++step) {
    images.fill_uniform(rng, 0.0F, 1.0F);
    for (std::size_t i = 0; i < labels.size(); ++i) {
      labels[i] = static_cast<int64_t>(i + static_cast<std::size_t>(step)) % 4;
    }
    sgd.zero_grad();
    const nn::StepResult r = network.train_step(images, labels);
    EXPECT_GT(r.spike_rate, 0.0) << "step " << step;
    sgd.step();
  }
  return parameter_hash(network);
}

TEST(TrainedHashTest, PlifAndAlifBodiesTrainToTheSerialParameters) {
  // Recorded from the serial PLIF and ALIF kernels, AVX2 and scalar
  // tiers alike. The PLIF hash covers both trained leaks.
  nn::SpikingNetwork plif = event_network<nn::PlifActivation>(snn::PlifConfig{});
  EXPECT_EQ(hash_after_sgd(plif), 0x6d70aa9273cb42eaULL);
  nn::SpikingNetwork alif = event_network<nn::AlifActivation>(snn::AlifConfig{});
  EXPECT_EQ(hash_after_sgd(alif), 0x3c160b7ee7a2f454ULL);
}

}  // namespace
}  // namespace ndsnn::core
