// Spiking LeNet-5 builder (Table II: ADMM comparison).
#include <stdexcept>

#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/flatten.hpp"
#include "nn/linear.hpp"
#include "nn/models/zoo.hpp"
#include "nn/neuron_activations.hpp"
#include "nn/pool.hpp"

namespace ndsnn::nn {

std::unique_ptr<SpikingNetwork> make_lenet5(const ModelSpec& spec) {
  spec.validate();
  if (spec.image_size % 4 != 0) {
    throw std::invalid_argument("make_lenet5: image_size must be divisible by 4");
  }

  tensor::Rng rng(spec.seed);
  auto body = std::make_unique<Sequential>();

  const int64_t c1 = spec.scaled(6);
  const int64_t c2 = spec.scaled(16);
  const int64_t f1 = spec.scaled(120);
  const int64_t f2 = spec.scaled(84);

  body->emplace<Conv2d>(spec.in_channels, c1, 5, 1, 2, rng);
  body->emplace<BatchNorm2d>(c1);
  body->emplace<LifActivation>(spec.lif, spec.timesteps);
  body->emplace<AvgPool2d>(2);

  body->emplace<Conv2d>(c1, c2, 5, 1, 2, rng);
  body->emplace<BatchNorm2d>(c2);
  body->emplace<LifActivation>(spec.lif, spec.timesteps);
  body->emplace<AvgPool2d>(2);

  const int64_t res = spec.image_size / 4;
  body->emplace<Flatten>();
  body->emplace<Linear>(c2 * res * res, f1, rng);
  body->emplace<LifActivation>(spec.lif, spec.timesteps);
  body->emplace<Linear>(f1, f2, rng);
  body->emplace<LifActivation>(spec.lif, spec.timesteps);
  body->emplace<Linear>(f2, spec.num_classes, rng);

  return std::make_unique<SpikingNetwork>(std::move(body), spec.timesteps);
}

}  // namespace ndsnn::nn
