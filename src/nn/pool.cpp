#include "nn/pool.hpp"

#include <limits>
#include <stdexcept>

namespace ndsnn::nn {

namespace {
void check_poolable(const tensor::Tensor& input, int64_t k, const char* who) {
  if (input.rank() != 4) {
    throw std::invalid_argument(std::string(who) + ": expected rank-4 input, got " +
                                input.shape().str());
  }
  if (input.dim(2) % k != 0 || input.dim(3) % k != 0) {
    throw std::invalid_argument(std::string(who) + ": H/W " + input.shape().str() +
                                " not divisible by k=" + std::to_string(k));
  }
}
}  // namespace

AvgPool2d::AvgPool2d(int64_t k) : k_(k) {
  if (k < 1) throw std::invalid_argument("AvgPool2d: k must be >= 1");
}

tensor::Tensor AvgPool2d::forward(const tensor::Tensor& input, bool /*training*/) {
  check_poolable(input, k_, "AvgPool2d");
  const int64_t m = input.dim(0), c = input.dim(1), h = input.dim(2), w = input.dim(3);
  const int64_t oh = h / k_, ow = w / k_;
  saved_in_shape_ = input.shape();
  has_saved_ = true;
  tensor::Tensor out(tensor::Shape{m, c, oh, ow});
  avg_pool2d(input.data(), out.data(), m * c, h, w, k_);
  return out;
}

tensor::Tensor AvgPool2d::backward(const tensor::Tensor& grad_output) {
  if (!has_saved_) throw std::logic_error("AvgPool2d::backward before forward");
  const int64_t m = saved_in_shape_.dim(0), c = saved_in_shape_.dim(1);
  const int64_t h = saved_in_shape_.dim(2), w = saved_in_shape_.dim(3);
  const int64_t oh = h / k_, ow = w / k_;
  tensor::Tensor gin(saved_in_shape_);
  const float inv = 1.0F / static_cast<float>(k_ * k_);
  const float* src = grad_output.data();
  float* dst = gin.data();
  for (int64_t mc = 0; mc < m * c; ++mc) {
    const float* oplane = src + mc * oh * ow;
    float* plane = dst + mc * h * w;
    for (int64_t oy = 0; oy < oh; ++oy) {
      for (int64_t ox = 0; ox < ow; ++ox) {
        const float g = oplane[oy * ow + ox] * inv;
        for (int64_t dy = 0; dy < k_; ++dy) {
          for (int64_t dx = 0; dx < k_; ++dx) {
            plane[(oy * k_ + dy) * w + (ox * k_ + dx)] = g;
          }
        }
      }
    }
  }
  return gin;
}

std::string AvgPool2d::name() const { return "AvgPool2d(k=" + std::to_string(k_) + ")"; }

void AvgPool2d::reset_state() { has_saved_ = false; }

MaxPool2d::MaxPool2d(int64_t k) : k_(k) {
  if (k < 1) throw std::invalid_argument("MaxPool2d: k must be >= 1");
}

tensor::Tensor MaxPool2d::forward(const tensor::Tensor& input, bool /*training*/) {
  check_poolable(input, k_, "MaxPool2d");
  const int64_t m = input.dim(0), c = input.dim(1), h = input.dim(2), w = input.dim(3);
  const int64_t oh = h / k_, ow = w / k_;
  saved_in_shape_ = input.shape();
  has_saved_ = true;
  tensor::Tensor out(tensor::Shape{m, c, oh, ow});
  argmax_.assign(static_cast<std::size_t>(out.numel()), 0);
  const float* src = input.data();
  float* dst = out.data();
  for (int64_t mc = 0; mc < m * c; ++mc) {
    const float* plane = src + mc * h * w;
    float* oplane = dst + mc * oh * ow;
    int64_t* aplane = argmax_.data() + mc * oh * ow;
    for (int64_t oy = 0; oy < oh; ++oy) {
      for (int64_t ox = 0; ox < ow; ++ox) {
        float best = -std::numeric_limits<float>::infinity();
        int64_t besti = 0;
        for (int64_t dy = 0; dy < k_; ++dy) {
          for (int64_t dx = 0; dx < k_; ++dx) {
            const int64_t idx = (oy * k_ + dy) * w + (ox * k_ + dx);
            if (plane[idx] > best) {
              best = plane[idx];
              besti = idx;
            }
          }
        }
        oplane[oy * ow + ox] = best;
        aplane[oy * ow + ox] = mc * h * w + besti;
      }
    }
  }
  return out;
}

tensor::Tensor MaxPool2d::backward(const tensor::Tensor& grad_output) {
  if (!has_saved_) throw std::logic_error("MaxPool2d::backward before forward");
  tensor::Tensor gin(saved_in_shape_);
  const float* src = grad_output.data();
  float* dst = gin.data();
  const int64_t n = grad_output.numel();
  for (int64_t i = 0; i < n; ++i) {
    dst[argmax_[static_cast<std::size_t>(i)]] += src[i];
  }
  return gin;
}

std::string MaxPool2d::name() const { return "MaxPool2d(k=" + std::to_string(k_) + ")"; }

void MaxPool2d::reset_state() {
  argmax_.clear();
  has_saved_ = false;
}

tensor::Tensor GlobalAvgPool::forward(const tensor::Tensor& input, bool /*training*/) {
  if (input.rank() != 4) {
    throw std::invalid_argument("GlobalAvgPool: expected rank-4, got " + input.shape().str());
  }
  const int64_t m = input.dim(0), c = input.dim(1), plane = input.dim(2) * input.dim(3);
  saved_in_shape_ = input.shape();
  has_saved_ = true;
  tensor::Tensor out(tensor::Shape{m, c});
  const float inv = 1.0F / static_cast<float>(plane);
  const float* src = input.data();
  for (int64_t mc = 0; mc < m * c; ++mc) {
    double acc = 0.0;
    const float* p = src + mc * plane;
    for (int64_t i = 0; i < plane; ++i) acc += p[i];
    out.at(mc) = static_cast<float>(acc) * inv;
  }
  return out;
}

tensor::Tensor GlobalAvgPool::backward(const tensor::Tensor& grad_output) {
  if (!has_saved_) throw std::logic_error("GlobalAvgPool::backward before forward");
  const int64_t plane = saved_in_shape_.dim(2) * saved_in_shape_.dim(3);
  tensor::Tensor gin(saved_in_shape_);
  const float inv = 1.0F / static_cast<float>(plane);
  const float* src = grad_output.data();
  float* dst = gin.data();
  const int64_t mc_total = saved_in_shape_.dim(0) * saved_in_shape_.dim(1);
  for (int64_t mc = 0; mc < mc_total; ++mc) {
    const float g = src[mc] * inv;
    float* p = dst + mc * plane;
    for (int64_t i = 0; i < plane; ++i) p[i] = g;
  }
  return gin;
}

void GlobalAvgPool::reset_state() { has_saved_ = false; }

}  // namespace ndsnn::nn
