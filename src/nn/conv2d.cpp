#include "nn/conv2d.hpp"

#include <stdexcept>
#include <utility>

#include "tensor/matmul.hpp"
#include "tensor/ops.hpp"

namespace ndsnn::nn {

Conv2d::Conv2d(int64_t in_channels, int64_t out_channels, int64_t kernel, int64_t stride,
               int64_t padding, tensor::Rng& rng, bool bias)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      has_bias_(bias),
      weight_(tensor::Shape{out_channels, in_channels, kernel, kernel}),
      weight_grad_(tensor::Shape{out_channels, in_channels, kernel, kernel}),
      bias_(tensor::Shape{out_channels}),
      bias_grad_(tensor::Shape{out_channels}) {
  if (in_channels < 1 || out_channels < 1 || kernel < 1 || stride < 1 || padding < 0) {
    throw std::invalid_argument("Conv2d: bad constructor arguments");
  }
  weight_.fill_kaiming(rng, in_channels * kernel * kernel);
}

tensor::Tensor Conv2d::forward(const tensor::Tensor& input, bool /*training*/) {
  if (input.rank() != 4 || input.dim(1) != in_channels_) {
    throw std::invalid_argument("Conv2d::forward: expected [M, " +
                                std::to_string(in_channels_) + ", H, W], got " +
                                input.shape().str());
  }
  tensor::ConvGeometry g;
  g.batch = input.dim(0);
  g.in_channels = in_channels_;
  g.in_h = input.dim(2);
  g.in_w = input.dim(3);
  g.kernel_h = kernel_;
  g.kernel_w = kernel_;
  g.stride = stride_;
  g.padding = padding_;
  g.validate();

  saved_cols_ = tensor::im2col(input, g);
  saved_geom_ = g;
  has_saved_ = true;

  // yflat[F, L] = W[F, CKK] * cols[CKK, L],  L = M*OH*OW
  const tensor::Tensor wmat = weight_.reshaped(
      tensor::Shape{out_channels_, in_channels_ * kernel_ * kernel_});
  tensor::Tensor yflat = tensor::matmul(wmat, saved_cols_);

  // Transpose [F, (m, oy, ox)] -> [m, F, oy, ox].
  const int64_t m = g.batch, oh = g.out_h(), ow = g.out_w();
  const int64_t plane = oh * ow;
  tensor::Tensor out(tensor::Shape{m, out_channels_, oh, ow});
  const float* src = yflat.data();
  float* dst = out.data();
  for (int64_t f = 0; f < out_channels_; ++f) {
    const float* srow = src + f * (m * plane);
    for (int64_t mm = 0; mm < m; ++mm) {
      float* drow = dst + (mm * out_channels_ + f) * plane;
      const float* s = srow + mm * plane;
      for (int64_t p = 0; p < plane; ++p) drow[p] = s[p];
    }
  }
  if (has_bias_) tensor::add_channel_bias_(out, bias_);
  return out;
}

tensor::Tensor Conv2d::backward(const tensor::Tensor& grad_output) {
  const tensor::Tensor gyflat = accumulate_param_grads(grad_output);
  // gcols[CKK, L] = Wᵀ[CKK, F] * gy[F, L]
  const tensor::Tensor wmat = weight_.reshaped(
      tensor::Shape{out_channels_, in_channels_ * kernel_ * kernel_});
  return tensor::col2im(tensor::matmul_tn(wmat, gyflat), saved_geom_);
}

void Conv2d::accumulate_grads(const tensor::Tensor& grad_output) {
  (void)accumulate_param_grads(grad_output);
}

tensor::Tensor Conv2d::accumulate_param_grads(const tensor::Tensor& grad_output) {
  if (!has_saved_) throw std::logic_error("Conv2d: backward before forward");
  const auto& g = saved_geom_;
  const int64_t m = g.batch, oh = g.out_h(), ow = g.out_w();
  if (grad_output.rank() != 4 || grad_output.dim(0) != m ||
      grad_output.dim(1) != out_channels_ || grad_output.dim(2) != oh ||
      grad_output.dim(3) != ow) {
    throw std::invalid_argument("Conv2d: bad grad shape " + grad_output.shape().str());
  }
  const int64_t plane = oh * ow;
  const int64_t l = m * plane;

  // gyflat[F, L] is the transpose of grad_output's [m, F] leading dims.
  tensor::Tensor gyflat(tensor::Shape{out_channels_, l});
  {
    const float* src = grad_output.data();
    float* dst = gyflat.data();
    for (int64_t mm = 0; mm < m; ++mm) {
      for (int64_t f = 0; f < out_channels_; ++f) {
        const float* s = src + (mm * out_channels_ + f) * plane;
        float* d = dst + f * l + mm * plane;
        for (int64_t p = 0; p < plane; ++p) d[p] = s[p];
      }
    }
  }

  // dW[F, CKK] += gy[F, L] * colsᵀ[L, CKK], accumulated in weight_grad_'s
  // own storage (moved out as a 2-D view and back, no copy).
  {
    tensor::Tensor wgrad_mat = std::move(weight_grad_).reshaped(
        tensor::Shape{out_channels_, in_channels_ * kernel_ * kernel_});
    tensor::matmul_nt_acc(gyflat, saved_cols_, wgrad_mat);
    weight_grad_ = std::move(wgrad_mat).reshaped(weight_.shape());
  }

  if (has_bias_) {
    const float* src = gyflat.data();
    for (int64_t f = 0; f < out_channels_; ++f) {
      double acc = 0.0;
      const float* row = src + f * l;
      for (int64_t p = 0; p < l; ++p) acc += row[p];
      bias_grad_.at(f) += static_cast<float>(acc);
    }
  }
  return gyflat;
}

std::vector<ParamRef> Conv2d::params() {
  std::vector<ParamRef> refs;
  refs.push_back({"weight", &weight_, &weight_grad_, /*prunable=*/true});
  if (has_bias_) refs.push_back({"bias", &bias_, &bias_grad_, /*prunable=*/false});
  return refs;
}

std::optional<MaskedLayerView> Conv2d::masked_view() const {
  MaskedLayerView view;
  view.weight = &weight_;
  view.bias = has_bias_ ? &bias_ : nullptr;
  return view;
}

std::string Conv2d::name() const {
  return "Conv2d(" + std::to_string(in_channels_) + "->" + std::to_string(out_channels_) +
         ", k=" + std::to_string(kernel_) + ", s=" + std::to_string(stride_) +
         ", p=" + std::to_string(padding_) + ")";
}

void Conv2d::reset_state() {
  saved_cols_ = tensor::Tensor();
  has_saved_ = false;
}

}  // namespace ndsnn::nn
