#include "tensor/tensor.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "tensor/random.hpp"

namespace ndsnn::tensor {

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)), data_(static_cast<std::size_t>(shape_.numel()), 0.0F) {}

void Tensor::assign_zeros(const Shape& shape) {
  data_.assign(static_cast<std::size_t>(shape.numel()), 0.0F);
  shape_ = shape;
}

void Tensor::assign_shape(const Shape& shape) {
  data_.resize(static_cast<std::size_t>(shape.numel()));
  shape_ = shape;
}

void Tensor::assign_shape(std::initializer_list<int64_t> dims) {
  shape_.assign(dims);
  data_.resize(static_cast<std::size_t>(shape_.numel()));
}

void Tensor::assign_zeros(std::initializer_list<int64_t> dims) {
  shape_.assign(dims);
  data_.assign(static_cast<std::size_t>(shape_.numel()), 0.0F);
}

Tensor::Tensor(Shape shape, float value)
    : shape_(std::move(shape)), data_(static_cast<std::size_t>(shape_.numel()), value) {}

Tensor::Tensor(Shape shape, std::vector<float> values)
    : shape_(std::move(shape)), data_(std::move(values)) {
  if (static_cast<int64_t>(data_.size()) != shape_.numel()) {
    throw std::invalid_argument("Tensor: value count " + std::to_string(data_.size()) +
                                " != shape numel " + std::to_string(shape_.numel()));
  }
}

float& Tensor::at(int64_t r, int64_t c) {
  return data_[static_cast<std::size_t>(r * shape_.dim(1) + c)];
}

float Tensor::at(int64_t r, int64_t c) const {
  return data_[static_cast<std::size_t>(r * shape_.dim(1) + c)];
}

float& Tensor::at4(int64_t n, int64_t c, int64_t h, int64_t w) {
  const int64_t C = shape_.dim(1), H = shape_.dim(2), W = shape_.dim(3);
  return data_[static_cast<std::size_t>(((n * C + c) * H + h) * W + w)];
}

float Tensor::at4(int64_t n, int64_t c, int64_t h, int64_t w) const {
  const int64_t C = shape_.dim(1), H = shape_.dim(2), W = shape_.dim(3);
  return data_[static_cast<std::size_t>(((n * C + c) * H + h) * W + w)];
}

Tensor Tensor::reshaped(Shape new_shape) const& {
  Tensor copy = *this;
  return std::move(copy).reshaped(std::move(new_shape));
}

Tensor Tensor::reshaped(Shape new_shape) && {
  if (new_shape.numel() != numel()) {
    throw std::invalid_argument("Tensor::reshaped: numel mismatch " + shape_.str() + " -> " +
                                new_shape.str());
  }
  return Tensor(std::move(new_shape), std::move(data_));
}

void Tensor::fill(float value) {
  for (auto& x : data_) x = value;
}

void Tensor::fill_uniform(Rng& rng, float lo, float hi) {
  for (auto& x : data_) x = rng.uniform(lo, hi);
}

void Tensor::fill_normal(Rng& rng, float mean, float stddev) {
  // Weight init of a wide layer (LeNet-5's fc1: 123 K normals, most of a
  // model build) transforms its pairs on the training pool.
  util::ThreadPool* pool = numel() >= kParallelNormals ? &util::ThreadPool::shared() : nullptr;
  rng.fill_normal(data_.data(), numel(), mean, stddev, pool);
}

void Tensor::fill_kaiming(Rng& rng, int64_t fan_in) {
  if (fan_in < 1) throw std::invalid_argument("fill_kaiming: fan_in must be >= 1");
  const float stddev = std::sqrt(2.0F / static_cast<float>(fan_in));
  fill_normal(rng, 0.0F, stddev);
}

double Tensor::sum() const {
  double acc = 0.0;
  for (const float x : data_) acc += x;
  return acc;
}

int64_t Tensor::count_zeros() const {
  int64_t n = 0;
  for (const float x : data_) n += (x == 0.0F) ? 1 : 0;
  return n;
}

float Tensor::abs_max() const {
  float m = 0.0F;
  for (const float x : data_) m = std::max(m, std::fabs(x));
  return m;
}

}  // namespace ndsnn::tensor
