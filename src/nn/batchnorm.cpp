#include "nn/batchnorm.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ndsnn::nn {

BatchNorm2d::BatchNorm2d(int64_t channels, float eps, float momentum)
    : channels_(channels),
      eps_(eps),
      momentum_(momentum),
      gamma_(tensor::Shape{channels}, 1.0F),
      gamma_grad_(tensor::Shape{channels}),
      beta_(tensor::Shape{channels}),
      beta_grad_(tensor::Shape{channels}),
      running_mean_(tensor::Shape{channels}),
      running_var_(tensor::Shape{channels}, 1.0F) {
  if (channels < 1) throw std::invalid_argument("BatchNorm2d: channels must be >= 1");
  if (eps <= 0.0F) throw std::invalid_argument("BatchNorm2d: eps must be > 0");
}

namespace {
/// Elements per lane below which BN runs inline: at ~3 ns an element
/// (forward), 16 K take ~50 us, against ~20 us to wake a pool's lanes on
/// a 4-vCPU Xeon. One channel of LeNet-5's BN2 at batch 32, T = 2 holds
/// 16 K.
constexpr int64_t kBatchNormGrain = 16 * 1024;

/// Channels per call of fn(c0, c1) so each range holds at least
/// kBatchNormGrain elements.
int64_t channel_grain(int64_t per_channel) {
  return std::max<int64_t>(1, kBatchNormGrain / std::max<int64_t>(per_channel, 1));
}
}  // namespace

void BatchNorm2d::forward_into(const tensor::Tensor& input, tensor::Tensor& out, bool training,
                               util::ThreadPool* pool) {
  if (input.rank() != 4 || input.dim(1) != channels_) {
    throw std::invalid_argument("BatchNorm2d::forward: expected [M, " +
                                std::to_string(channels_) + ", H, W], got " +
                                input.shape().str());
  }
  const int64_t m = input.dim(0), h = input.dim(2), w = input.dim(3);
  const int64_t plane = h * w;
  const int64_t per_channel = m * plane;

  saved_in_shape_ = input.shape();
  saved_xhat_.assign_shape(input.shape());
  saved_inv_std_.resize(static_cast<std::size_t>(channels_));
  has_saved_ = true;

  out.assign_shape(input.shape());
  const float* src = input.data();
  float* xhat = saved_xhat_.data();
  float* dst = out.data();

  util::ThreadPool::for_ranges(pool, channels_, channel_grain(per_channel), [&](int64_t c0,
                                                                              int64_t c1) {
    for (int64_t c = c0; c < c1; ++c) {
      float mean = 0.0F, var = 0.0F;
      if (training) {
        double acc = 0.0;
        for (int64_t mm = 0; mm < m; ++mm) {
          const float* p = src + (mm * channels_ + c) * plane;
          for (int64_t i = 0; i < plane; ++i) acc += p[i];
        }
        mean = static_cast<float>(acc / static_cast<double>(per_channel));
        double vacc = 0.0;
        for (int64_t mm = 0; mm < m; ++mm) {
          const float* p = src + (mm * channels_ + c) * plane;
          for (int64_t i = 0; i < plane; ++i) {
            const double d = p[i] - mean;
            vacc += d * d;
          }
        }
        var = static_cast<float>(vacc / static_cast<double>(per_channel));
        running_mean_.at(c) = (1.0F - momentum_) * running_mean_.at(c) + momentum_ * mean;
        running_var_.at(c) = (1.0F - momentum_) * running_var_.at(c) + momentum_ * var;
      } else {
        mean = running_mean_.at(c);
        var = running_var_.at(c);
      }
      const float inv_std = 1.0F / std::sqrt(var + eps_);
      saved_inv_std_[static_cast<std::size_t>(c)] = inv_std;
      const float g = gamma_.at(c), b = beta_.at(c);
      for (int64_t mm = 0; mm < m; ++mm) {
        const int64_t base = (mm * channels_ + c) * plane;
        for (int64_t i = 0; i < plane; ++i) {
          const float xh = (src[base + i] - mean) * inv_std;
          xhat[base + i] = xh;
          dst[base + i] = g * xh + b;
        }
      }
    }
  });
}

void BatchNorm2d::backward_into(const tensor::Tensor& grad_output, tensor::Tensor& grad_input,
                                util::ThreadPool* pool) {
  if (!has_saved_) throw std::logic_error("BatchNorm2d::backward before forward");
  if (grad_output.shape() != saved_in_shape_) {
    throw std::invalid_argument("BatchNorm2d::backward: bad grad shape " +
                                grad_output.shape().str());
  }
  const int64_t m = saved_in_shape_.dim(0);
  const int64_t plane = saved_in_shape_.dim(2) * saved_in_shape_.dim(3);
  const int64_t per_channel = m * plane;

  grad_input.assign_shape(saved_in_shape_);
  const float* gy = grad_output.data();
  const float* xhat = saved_xhat_.data();
  float* gx = grad_input.data();

  util::ThreadPool::for_ranges(pool, channels_, channel_grain(per_channel), [&](int64_t c0,
                                                                              int64_t c1) {
    for (int64_t c = c0; c < c1; ++c) {
      // Reductions: sum(gy) and sum(gy * xhat) over the channel slice.
      double sum_gy = 0.0, sum_gy_xhat = 0.0;
      for (int64_t mm = 0; mm < m; ++mm) {
        const int64_t base = (mm * channels_ + c) * plane;
        for (int64_t i = 0; i < plane; ++i) {
          sum_gy += gy[base + i];
          sum_gy_xhat += static_cast<double>(gy[base + i]) * xhat[base + i];
        }
      }
      gamma_grad_.at(c) += static_cast<float>(sum_gy_xhat);
      beta_grad_.at(c) += static_cast<float>(sum_gy);

      // dx = (gamma * inv_std / Npc) * (Npc*gy - sum(gy) - xhat * sum(gy*xhat))
      const float scale = gamma_.at(c) * saved_inv_std_[static_cast<std::size_t>(c)] /
                          static_cast<float>(per_channel);
      const auto npc = static_cast<float>(per_channel);
      const auto sgy = static_cast<float>(sum_gy);
      const auto sgx = static_cast<float>(sum_gy_xhat);
      for (int64_t mm = 0; mm < m; ++mm) {
        const int64_t base = (mm * channels_ + c) * plane;
        for (int64_t i = 0; i < plane; ++i) {
          gx[base + i] = scale * (npc * gy[base + i] - sgy - xhat[base + i] * sgx);
        }
      }
    }
  });
}

std::vector<ParamRef> BatchNorm2d::params() {
  return {
      {"gamma", &gamma_, &gamma_grad_, /*prunable=*/false},
      {"beta", &beta_, &beta_grad_, /*prunable=*/false},
  };
}

std::string BatchNorm2d::name() const {
  return "BatchNorm2d(" + std::to_string(channels_) + ")";
}

void BatchNorm2d::reset_state() { has_saved_ = false; }

}  // namespace ndsnn::nn
