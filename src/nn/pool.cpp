#include "nn/pool.hpp"

#include <algorithm>
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

namespace {
/// Input elements per lane below which pooling runs inline. On one core
/// of a 4-vCPU Xeon LeNet-5's pool1 (393 K elements) took 0.11 ms forward
/// and 1.6 ms backward, so 32 K take ~10 and ~130 us, against ~20 us to
/// wake a pool's lanes.
constexpr int64_t kPoolGrain = 32 * 1024;
}  // namespace

void AvgPool2d::forward_into(const tensor::Tensor& input, tensor::Tensor& out,
                             bool /*training*/, util::ThreadPool* pool) {
  check_poolable(input, k_, "AvgPool2d");
  const int64_t m = input.dim(0), c = input.dim(1), h = input.dim(2), w = input.dim(3);
  const int64_t oh = h / k_, ow = w / k_;
  saved_in_shape_ = input.shape();
  has_saved_ = true;
  out.assign_shape({m, c, oh, ow});
  const float* src = input.data();
  float* dst = out.data();
  const int64_t k = k_;
  util::ThreadPool::for_ranges(pool, m * c, std::max<int64_t>(1, kPoolGrain / (h * w)),
                               [&](int64_t p0, int64_t p1) {
                                 avg_pool2d(src + p0 * h * w, dst + p0 * oh * ow, p1 - p0, h, w,
                                            k);
                               });
}

void AvgPool2d::backward_into(const tensor::Tensor& grad_output, tensor::Tensor& grad_input,
                              util::ThreadPool* pool) {
  if (!has_saved_) throw std::logic_error("AvgPool2d::backward before forward");
  const int64_t m = saved_in_shape_.dim(0), c = saved_in_shape_.dim(1);
  const int64_t h = saved_in_shape_.dim(2), w = saved_in_shape_.dim(3);
  const int64_t k = k_, oh = h / k, ow = w / k;
  if (grad_output.numel() != m * c * oh * ow) {
    throw std::invalid_argument("AvgPool2d::backward: bad grad shape " +
                                grad_output.shape().str());
  }
  grad_input.assign_shape(saved_in_shape_);
  const float inv = 1.0F / static_cast<float>(k * k);
  const float* src = grad_output.data();
  float* dst = grad_input.data();
  // Every input pixel gets its window's output gradient / (k * k).
  util::ThreadPool::for_ranges(
      pool, m * c, std::max<int64_t>(1, kPoolGrain / (h * w)), [&](int64_t p0, int64_t p1) {
        for (int64_t r = p0 * oh; r < p1 * oh; ++r) {
          const float* grow = src + r * ow;
          for (int64_t dy = 0; dy < k; ++dy) {
            float* row = dst + (r * k + dy) * w;
            for (int64_t x = 0; x < w; ++x) row[x] = grow[x / k] * inv;
          }
        }
      });
}

std::string AvgPool2d::name() const { return "AvgPool2d(k=" + std::to_string(k_) + ")"; }

void AvgPool2d::reset_state() { has_saved_ = false; }

MaxPool2d::MaxPool2d(int64_t k) : k_(k) {
  if (k < 1) throw std::invalid_argument("MaxPool2d: k must be >= 1");
}

void MaxPool2d::forward_into(const tensor::Tensor& input, tensor::Tensor& out, bool /*training*/,
                             util::ThreadPool* /*pool*/) {
  check_poolable(input, k_, "MaxPool2d");
  const int64_t m = input.dim(0), c = input.dim(1), h = input.dim(2), w = input.dim(3);
  const int64_t oh = h / k_, ow = w / k_;
  saved_in_shape_ = input.shape();
  has_saved_ = true;
  out.assign_shape({m, c, oh, ow});
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
}

void MaxPool2d::backward_into(const tensor::Tensor& grad_output, tensor::Tensor& grad_input,
                              util::ThreadPool* /*pool*/) {
  if (!has_saved_) throw std::logic_error("MaxPool2d::backward before forward");
  grad_input.assign_zeros(saved_in_shape_);
  const float* src = grad_output.data();
  float* dst = grad_input.data();
  const int64_t n = grad_output.numel();
  for (int64_t i = 0; i < n; ++i) {
    dst[argmax_[static_cast<std::size_t>(i)]] += src[i];
  }
}

std::string MaxPool2d::name() const { return "MaxPool2d(k=" + std::to_string(k_) + ")"; }

void MaxPool2d::reset_state() {
  argmax_.clear();
  has_saved_ = false;
}

void GlobalAvgPool::forward_into(const tensor::Tensor& input, tensor::Tensor& out,
                                 bool /*training*/, util::ThreadPool* /*pool*/) {
  if (input.rank() != 4) {
    throw std::invalid_argument("GlobalAvgPool: expected rank-4, got " + input.shape().str());
  }
  const int64_t m = input.dim(0), c = input.dim(1), plane = input.dim(2) * input.dim(3);
  saved_in_shape_ = input.shape();
  has_saved_ = true;
  out.assign_shape({m, c});
  const float inv = 1.0F / static_cast<float>(plane);
  const float* src = input.data();
  for (int64_t mc = 0; mc < m * c; ++mc) {
    double acc = 0.0;
    const float* p = src + mc * plane;
    for (int64_t i = 0; i < plane; ++i) acc += p[i];
    out.at(mc) = static_cast<float>(acc) * inv;
  }
}

void GlobalAvgPool::backward_into(const tensor::Tensor& grad_output, tensor::Tensor& grad_input,
                                  util::ThreadPool* /*pool*/) {
  if (!has_saved_) throw std::logic_error("GlobalAvgPool::backward before forward");
  const int64_t plane = saved_in_shape_.dim(2) * saved_in_shape_.dim(3);
  grad_input.assign_shape(saved_in_shape_);
  const float inv = 1.0F / static_cast<float>(plane);
  const float* src = grad_output.data();
  float* dst = grad_input.data();
  const int64_t mc_total = saved_in_shape_.dim(0) * saved_in_shape_.dim(1);
  for (int64_t mc = 0; mc < mc_total; ++mc) {
    const float g = src[mc] * inv;
    float* p = dst + mc * plane;
    for (int64_t i = 0; i < plane; ++i) p[i] = g;
  }
}

void GlobalAvgPool::reset_state() { has_saved_ = false; }

}  // namespace ndsnn::nn
