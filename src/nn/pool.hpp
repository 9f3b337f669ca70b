// Spatial pooling layers (non-overlapping windows).
//
// avg_pool2d below is the one AvgPool forward body: AvgPool2d::forward
// and the compiled plan's AvgPoolOp both call it, so training, predict
// and the plan pool bitwise alike.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/layer.hpp"

namespace ndsnn::nn {

/// Average each non-overlapping k x k window of `planes` row-major
/// [h, w] planes into [h / k, w / k] planes (h and w divisible by k).
/// A window sums its elements row by row from a 0.0F start, then scales
/// by 1 / (k * k): at k == 2 that is (((0.0F + a) + b) + c) + d. The
/// 0.0F start is part of the result, not a no-op: 0.0F + -0.0F is
/// +0.0F, so a window of -0.0F averages to +0.0F. k == 2, the only
/// pooling the zoo networks use, has its own body over output rows whose
/// inner loop vectorises; it keeps the same per-element order.
inline void avg_pool2d(const float* src, float* dst, int64_t planes, int64_t h, int64_t w,
                       int64_t k) {
  const int64_t oh = h / k, ow = w / k;
  const float inv = 1.0F / static_cast<float>(k * k);
  if (k == 2) {
    // Output row r of every plane reads input rows 2r and 2r + 1 of the
    // [planes * h, w] stack, since h == 2 * oh.
    for (int64_t r = 0; r < planes * oh; ++r) {
      const float* top = src + 2 * r * w;
      const float* bottom = top + w;
      float* out = dst + r * ow;
      for (int64_t x = 0; x < ow; ++x) {
        out[x] = ((((0.0F + top[2 * x]) + top[2 * x + 1]) + bottom[2 * x]) +
                  bottom[2 * x + 1]) *
                 inv;
      }
    }
    return;
  }
  for (int64_t p = 0; p < planes; ++p) {
    const float* plane = src + p * h * w;
    float* oplane = dst + p * oh * ow;
    for (int64_t oy = 0; oy < oh; ++oy) {
      for (int64_t ox = 0; ox < ow; ++ox) {
        float acc = 0.0F;
        for (int64_t dy = 0; dy < k; ++dy) {
          for (int64_t dx = 0; dx < k; ++dx) acc += plane[(oy * k + dy) * w + (ox * k + dx)];
        }
        oplane[oy * ow + ox] = acc * inv;
      }
    }
  }
}

/// Average pooling with kernel == stride == k. Input [M, C, H, W] with H
/// and W divisible by k. Planes are independent, so both passes split
/// whole planes over a pool.
class AvgPool2d final : public Layer {
 public:
  explicit AvgPool2d(int64_t k);

  void forward_into(const tensor::Tensor& input, tensor::Tensor& out, bool training,
                    util::ThreadPool* pool) override;
  void backward_into(const tensor::Tensor& grad_output, tensor::Tensor& grad_input,
                     util::ThreadPool* pool) override;
  [[nodiscard]] std::string name() const override;
  void reset_state() override;

  [[nodiscard]] int64_t k() const { return k_; }

 private:
  int64_t k_;
  tensor::Shape saved_in_shape_;
  bool has_saved_ = false;
};

/// Max pooling with kernel == stride == k; remembers argmax for backward.
class MaxPool2d final : public Layer {
 public:
  explicit MaxPool2d(int64_t k);

  void forward_into(const tensor::Tensor& input, tensor::Tensor& out, bool training,
                    util::ThreadPool* pool) override;
  void backward_into(const tensor::Tensor& grad_output, tensor::Tensor& grad_input,
                     util::ThreadPool* pool) override;
  [[nodiscard]] std::string name() const override;
  void reset_state() override;

  [[nodiscard]] int64_t k() const { return k_; }

 private:
  int64_t k_;
  tensor::Shape saved_in_shape_;
  std::vector<int64_t> argmax_;  // flat input index per output element
  bool has_saved_ = false;
};

/// Global average pooling: [M, C, H, W] -> [M, C].
class GlobalAvgPool final : public Layer {
 public:
  void forward_into(const tensor::Tensor& input, tensor::Tensor& out, bool training,
                    util::ThreadPool* pool) override;
  void backward_into(const tensor::Tensor& grad_output, tensor::Tensor& grad_input,
                     util::ThreadPool* pool) override;
  [[nodiscard]] std::string name() const override { return "GlobalAvgPool"; }
  void reset_state() override;

 private:
  tensor::Shape saved_in_shape_;
  bool has_saved_ = false;
};

}  // namespace ndsnn::nn
