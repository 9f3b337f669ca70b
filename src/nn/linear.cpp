#include "nn/linear.hpp"

#include <algorithm>
#include <stdexcept>

#include "tensor/matmul.hpp"
#include "tensor/ops.hpp"

namespace ndsnn::nn {

Linear::Linear(int64_t in_features, int64_t out_features, tensor::Rng& rng, bool bias)
    : in_features_(in_features),
      out_features_(out_features),
      has_bias_(bias),
      weight_(tensor::Shape{out_features, in_features}),
      weight_grad_(tensor::Shape{out_features, in_features}),
      bias_(tensor::Shape{out_features}),
      bias_grad_(tensor::Shape{out_features}) {
  if (in_features < 1 || out_features < 1) {
    throw std::invalid_argument("Linear: features must be >= 1");
  }
  weight_.fill_kaiming(rng, in_features);
}

void Linear::forward_into(const tensor::Tensor& input, tensor::Tensor& out, bool /*training*/,
                          util::ThreadPool* pool) {
  if (input.rank() != 2 || input.dim(1) != in_features_) {
    throw std::invalid_argument("Linear::forward: expected [M, " +
                                std::to_string(in_features_) + "], got " + input.shape().str());
  }
  saved_input_ = input;
  has_saved_ = true;
  // y[M, out] = x[M, in] * Wᵀ
  out.assign_zeros({input.dim(0), out_features_});
  tensor::matmul_nt_acc(input, weight_, out, util::simd::Tier::kAuto, pool);
  if (has_bias_) tensor::add_row_bias_(out, bias_);
}

void Linear::backward_into(const tensor::Tensor& grad_output, tensor::Tensor& grad_input,
                           util::ThreadPool* pool) {
  accumulate_grads(grad_output, pool);
  // dx[M, in] = gy[M, out] * W[out, in], built transposed: for each
  // nonzero W[o, j] in ascending o, dxᵀ[j, :] += W[o, j] * gyᵀ[o, :].
  // Every dx entry gets the dense GEMM's float chain over ascending o.
  // The GEMM skips zero gy terms and this walk skips zero W terms; either
  // skipped term is an exact zero product (for finite gradients) and
  // every chain starts at +0, so no skip changes a bit.
  const int64_t m = grad_output.dim(0);
  const auto nonzero = weight_.numel() - weight_.count_zeros();
  if (static_cast<double>(nonzero) > kSparseDxMaxDensity * static_cast<double>(weight_.numel())) {
    grad_input.assign_zeros({m, in_features_});
    tensor::matmul_acc(grad_output, weight_, grad_input, util::simd::Tier::kAuto, pool);
    return;
  }
  const auto mn = static_cast<std::size_t>(m);
  grad_t_.resize(static_cast<std::size_t>(out_features_) * mn);
  dx_t_.resize(static_cast<std::size_t>(in_features_) * mn);
  const float* gy = grad_output.data();
  for (int64_t r = 0; r < m; ++r) {
    for (int64_t o = 0; o < out_features_; ++o) {
      grad_t_[static_cast<std::size_t>(o * m + r)] = gy[r * out_features_ + o];
    }
  }
  // Input features are independent: a lane takes a range of them.
  util::ThreadPool::for_ranges(
      pool, in_features_, std::max<int64_t>(1, tensor::kGemmGrainMacs / (out_features_ * m)),
      [&](int64_t j0, int64_t j1) {
        std::fill(dx_t_.begin() + j0 * m, dx_t_.begin() + j1 * m, 0.0F);
        for (int64_t o = 0; o < out_features_; ++o) {
          const float* wrow = weight_.data() + o * in_features_;
          const float* g = grad_t_.data() + o * m;
          for (int64_t j = j0; j < j1; ++j) {
            const float w = wrow[j];
            if (w == 0.0F) continue;
            float* d = dx_t_.data() + j * m;
            for (int64_t r = 0; r < m; ++r) d[r] += w * g[r];
          }
        }
      });
  grad_input.assign_shape({m, in_features_});
  float* pdx = grad_input.data();
  for (int64_t r = 0; r < m; ++r) {
    for (int64_t j = 0; j < in_features_; ++j) {
      pdx[r * in_features_ + j] = dx_t_[static_cast<std::size_t>(j * m + r)];
    }
  }
}

void Linear::accumulate_grads(const tensor::Tensor& grad_output, util::ThreadPool* pool) {
  if (!has_saved_) throw std::logic_error("Linear: backward before forward");
  if (grad_output.rank() != 2 || grad_output.dim(1) != out_features_ ||
      grad_output.dim(0) != saved_input_.dim(0)) {
    throw std::invalid_argument("Linear: bad grad shape " + grad_output.shape().str());
  }
  // dW[out, in] += gyᵀ[out, M] * x[M, in]
  tensor::matmul_tn_acc(grad_output, saved_input_, weight_grad_, pool);
  if (has_bias_) {
    const int64_t m = grad_output.dim(0);
    for (int64_t r = 0; r < m; ++r) {
      for (int64_t c = 0; c < out_features_; ++c) bias_grad_.at(c) += grad_output.at(r, c);
    }
  }
}

std::vector<ParamRef> Linear::params() {
  std::vector<ParamRef> refs;
  refs.push_back({"weight", &weight_, &weight_grad_, /*prunable=*/true});
  if (has_bias_) refs.push_back({"bias", &bias_, &bias_grad_, /*prunable=*/false});
  return refs;
}

std::optional<MaskedLayerView> Linear::masked_view() const {
  MaskedLayerView view;
  view.weight = &weight_;
  view.bias = has_bias_ ? &bias_ : nullptr;
  return view;
}

std::string Linear::name() const {
  return "Linear(" + std::to_string(in_features_) + "->" + std::to_string(out_features_) + ")";
}

void Linear::reset_state() { has_saved_ = false; }

}  // namespace ndsnn::nn
