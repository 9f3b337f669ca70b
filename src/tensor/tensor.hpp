// Tensor: dense, contiguous, row-major FP32 storage.
//
// This is the numeric substrate of the whole repository: SNN layers,
// sparse masks and optimizers all operate on `Tensor`. Value semantics:
// copies are deep, moves are cheap. All stochastic fills take an explicit
// RNG so every experiment is reproducible.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "tensor/shape.hpp"

namespace ndsnn::tensor {

class Rng;  // random.hpp

class Tensor {
 public:
  /// Scalar zero.
  Tensor() : shape_(), data_(1, 0.0F) {}

  /// Zero-filled tensor of the given shape.
  explicit Tensor(Shape shape);

  /// Tensor filled with `value`.
  Tensor(Shape shape, float value);

  /// Tensor initialized from `values` (size must equal shape.numel()).
  Tensor(Shape shape, std::vector<float> values);

  [[nodiscard]] const Shape& shape() const { return shape_; }
  [[nodiscard]] int64_t numel() const { return static_cast<int64_t>(data_.size()); }
  [[nodiscard]] int64_t rank() const { return shape_.rank(); }
  [[nodiscard]] int64_t dim(int64_t i) const { return shape_.dim(i); }

  [[nodiscard]] float* data() { return data_.data(); }
  [[nodiscard]] const float* data() const { return data_.data(); }
  [[nodiscard]] std::span<float> span() { return {data_.data(), data_.size()}; }
  [[nodiscard]] std::span<const float> span() const { return {data_.data(), data_.size()}; }

  /// Flat element access with bounds checking in debug builds.
  [[nodiscard]] float& at(int64_t i) { return data_[static_cast<std::size_t>(i)]; }
  [[nodiscard]] float at(int64_t i) const { return data_[static_cast<std::size_t>(i)]; }

  /// 2-D access for matrices shaped [rows, cols].
  [[nodiscard]] float& at(int64_t r, int64_t c);
  [[nodiscard]] float at(int64_t r, int64_t c) const;

  /// 4-D access for activations/weights shaped [n, c, h, w].
  [[nodiscard]] float& at4(int64_t n, int64_t c, int64_t h, int64_t w);
  [[nodiscard]] float at4(int64_t n, int64_t c, int64_t h, int64_t w) const;

  /// Copy of this tensor with a new shape of the same numel (the data is
  /// deep-copied).
  [[nodiscard]] Tensor reshaped(Shape new_shape) const&;
  /// Same, but moves the storage out of this tensor instead of copying
  /// it: after `std::move(t).reshaped(s)`, `t` may only be assigned to.
  [[nodiscard]] Tensor reshaped(Shape new_shape) &&;

  /// Reshapes to `shape` (or `dims`), zero-filled, in the storage this
  /// tensor already holds whenever it is large enough, the shape's own
  /// included: how a buffer kept across calls takes each call's output
  /// without allocating.
  void assign_zeros(const Shape& shape);
  void assign_zeros(std::initializer_list<int64_t> dims);

  /// Reshapes to `shape` in the storage this tensor already holds
  /// whenever it is large enough, like assign_zeros, but writes no
  /// element: the values are left as they were (zero where the storage
  /// grew), for a caller that overwrites every element.
  void assign_shape(const Shape& shape);
  void assign_shape(std::initializer_list<int64_t> dims);

  /// In-place fills.
  void fill(float value);
  void zero() { fill(0.0F); }

  /// Uniform in [lo, hi).
  void fill_uniform(Rng& rng, float lo, float hi);
  /// Gaussian N(mean, stddev): the values of numel() rng.normal() calls
  /// in order. Tensors of at least kParallelNormals elements run their
  /// Box-Muller transforms on util::ThreadPool::shared().
  void fill_normal(Rng& rng, float mean, float stddev);
  static constexpr int64_t kParallelNormals = 16 * 1024;
  /// Kaiming-He normal for a layer with the given fan-in.
  void fill_kaiming(Rng& rng, int64_t fan_in);

  /// Sum of all elements (double accumulator for stability).
  [[nodiscard]] double sum() const;
  /// Count of exactly-zero entries.
  [[nodiscard]] int64_t count_zeros() const;
  /// max |x|.
  [[nodiscard]] float abs_max() const;

 private:
  Shape shape_;
  std::vector<float> data_;
};

}  // namespace ndsnn::tensor
