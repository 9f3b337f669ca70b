// Spiking ResNet-19 builder (tdBN-style SNN ResNet).
//
// Layer count: 1 stem conv + 8 basic blocks x 2 convs = 17 convs, plus the
// 256-unit FC and the classifier FC = 19 weight layers.
#include <stdexcept>

#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/flatten.hpp"
#include "nn/linear.hpp"
#include "nn/models/zoo.hpp"
#include "nn/neuron_activations.hpp"
#include "nn/pool.hpp"
#include "nn/residual.hpp"

namespace ndsnn::nn {

std::unique_ptr<SpikingNetwork> make_resnet19(const ModelSpec& spec) {
  spec.validate();
  if (spec.image_size % 4 != 0) {
    throw std::invalid_argument("make_resnet19: image_size must be divisible by 4");
  }

  tensor::Rng rng(spec.seed);
  auto body = std::make_unique<Sequential>();

  const int64_t c1 = spec.scaled(128);
  const int64_t c2 = spec.scaled(256);
  const int64_t c3 = spec.scaled(512);
  const int64_t fc_hidden = spec.scaled(256);

  // Stem.
  body->emplace<Conv2d>(spec.in_channels, c1, 3, 1, 1, rng);
  body->emplace<BatchNorm2d>(c1);
  body->emplace<LifActivation>(spec.lif, spec.timesteps);

  // Stage 1: 3 blocks @ c1, stride 1.
  body->emplace<ResidualBlock>(c1, c1, 1, spec.lif, spec.timesteps, rng);
  body->emplace<ResidualBlock>(c1, c1, 1, spec.lif, spec.timesteps, rng);
  body->emplace<ResidualBlock>(c1, c1, 1, spec.lif, spec.timesteps, rng);

  // Stage 2: 3 blocks @ c2, first downsamples.
  body->emplace<ResidualBlock>(c1, c2, 2, spec.lif, spec.timesteps, rng);
  body->emplace<ResidualBlock>(c2, c2, 1, spec.lif, spec.timesteps, rng);
  body->emplace<ResidualBlock>(c2, c2, 1, spec.lif, spec.timesteps, rng);

  // Stage 3: 2 blocks @ c3, first downsamples.
  body->emplace<ResidualBlock>(c2, c3, 2, spec.lif, spec.timesteps, rng);
  body->emplace<ResidualBlock>(c3, c3, 1, spec.lif, spec.timesteps, rng);

  body->emplace<GlobalAvgPool>();
  body->emplace<Linear>(c3, fc_hidden, rng);
  body->emplace<LifActivation>(spec.lif, spec.timesteps);
  body->emplace<Linear>(fc_hidden, spec.num_classes, rng);

  return std::make_unique<SpikingNetwork>(std::move(body), spec.timesteps);
}

}  // namespace ndsnn::nn
