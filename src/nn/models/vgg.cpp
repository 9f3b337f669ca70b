// Spiking VGG-16 builder.
#include <stdexcept>

#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/flatten.hpp"
#include "nn/linear.hpp"
#include "nn/models/zoo.hpp"
#include "nn/neuron_activations.hpp"
#include "nn/pool.hpp"

namespace ndsnn::nn {

std::unique_ptr<SpikingNetwork> make_vgg16(const ModelSpec& spec) {
  spec.validate();
  // 'M' = 2x2 average pool; numbers are base channel counts.
  static constexpr int64_t kPool = -1;
  static constexpr int64_t kConfig[] = {64, 64, kPool, 128, 128, kPool, 256, 256, 256,
                                        kPool, 512, 512, 512, kPool, 512, 512, 512, kPool};
  if (spec.image_size % 32 != 0) {
    throw std::invalid_argument("make_vgg16: image_size must be divisible by 32 (5 pools)");
  }

  tensor::Rng rng(spec.seed);
  auto body = std::make_unique<Sequential>();
  int64_t channels = spec.in_channels;
  int64_t res = spec.image_size;
  for (const int64_t entry : kConfig) {
    if (entry == kPool) {
      body->emplace<AvgPool2d>(2);
      res /= 2;
      continue;
    }
    const int64_t out = spec.scaled(entry);
    body->emplace<Conv2d>(channels, out, 3, 1, 1, rng);
    body->emplace<BatchNorm2d>(out);
    body->emplace<LifActivation>(spec.lif, spec.timesteps);
    channels = out;
  }
  body->emplace<Flatten>();
  body->emplace<Linear>(channels * res * res, spec.num_classes, rng);
  return std::make_unique<SpikingNetwork>(std::move(body), spec.timesteps);
}

}  // namespace ndsnn::nn
