#include "nn/conv2d.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sparse/csr.hpp"
#include "tensor/conv_gemm.hpp"
#include "tensor/im2col.hpp"
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

void Conv2d::forward_into(const tensor::Tensor& input, tensor::Tensor& out, bool /*training*/,
                          util::ThreadPool* pool) {
  if (input.rank() != 4 || input.dim(1) != in_channels_) {
    throw std::invalid_argument("Conv2d::forward: expected [M, " +
                                std::to_string(in_channels_) + ", H, W], got " +
                                input.shape().str());
  }
  const auto g = tensor::ConvGeometry::of(input, kernel_, stride_, padding_);
  g.validate();
  saved_input_ = input;  // reuses the storage while the shape repeats
  has_saved_ = true;
  tensor::conv2d_gemm(
      input, weight_.reshaped(tensor::Shape{out_channels_, in_channels_ * kernel_ * kernel_}), g,
      out, pool);
  if (has_bias_) tensor::add_channel_bias_(out, bias_);
}

void Conv2d::backward_into(const tensor::Tensor& grad_output, tensor::Tensor& grad_input,
                           util::ThreadPool* pool) {
  accumulate_grads(grad_output, pool);
  // dx one patch row of one sample at a time: row r of the whole-matrix
  // Wᵀ * gy is, for sample n, gcols[r, n, :] = sum over ascending f of
  // W[f, r] * gy[n, f, :], the GEMM's float chain (it skips zero weights
  // too), then scattered into dx[n]. Row r of the CSR Wᵀ lists exactly
  // those nonzero W[f, r], filters ascending. Rows ascend per sample, so
  // every dx pixel gets its adds in col2im(Wᵀ * gy)'s order. A row with
  // no nonzero weight adds only zeros, so it is skipped. The result is
  // bitwise that product's; samples are independent, so lanes take
  // ranges of them.
  const auto g = tensor::ConvGeometry::of(saved_input_, kernel_, stride_, padding_);
  const int64_t ckk = in_channels_ * kernel_ * kernel_;
  const int64_t plane = g.out_h() * g.out_w();
  const int64_t fplane = out_channels_ * plane;
  const int64_t sample = in_channels_ * g.in_h * g.in_w;
  const sparse::Csr wt = sparse::Csr::from_weights(weight_).transposed();
  const std::vector<int64_t>& start = wt.row_ptr();
  const std::vector<int32_t>& filter = wt.col_idx();
  const std::vector<float>& value = wt.values();
  grad_input.assign_shape({g.batch, in_channels_, g.in_h, g.in_w});
  const int64_t sample_macs = std::max<int64_t>(1, wt.nnz() * plane);
  util::ThreadPool::for_ranges(
      pool, g.batch, std::max<int64_t>(1, tensor::kConvGrainMacs / sample_macs),
      [&](int64_t n0, int64_t n1) {
        // One patch row of one sample, in the lane's own buffer.
        thread_local std::vector<float> row_buffer;
        row_buffer.resize(static_cast<std::size_t>(plane));
        float* row = row_buffer.data();
        for (int64_t n = n0; n < n1; ++n) {
          float* dx = grad_input.data() + n * sample;
          std::fill(dx, dx + sample, 0.0F);
          const float* gy = grad_output.data() + n * fplane;
          for (int64_t r = 0; r < ckk; ++r) {
            const int64_t t0 = start[static_cast<std::size_t>(r)];
            const int64_t t1 = start[static_cast<std::size_t>(r + 1)];
            if (t0 == t1) continue;
            std::fill(row, row + plane, 0.0F);
            for (int64_t t = t0; t < t1; ++t) {
              const float w = value[static_cast<std::size_t>(t)];
              const float* src = gy + filter[static_cast<std::size_t>(t)] * plane;
              for (int64_t p = 0; p < plane; ++p) row[p] += w * src[p];
            }
            tensor::col2im_row_add(row, g, r, dx);
          }
        }
      });
}

void Conv2d::accumulate_grads(const tensor::Tensor& grad_output, util::ThreadPool* pool) {
  if (!has_saved_) throw std::logic_error("Conv2d: backward before forward");
  const auto g = tensor::ConvGeometry::of(saved_input_, kernel_, stride_, padding_);
  const int64_t m = g.batch, plane = g.out_h() * g.out_w();
  if (grad_output.rank() != 4 || grad_output.dim(0) != m ||
      grad_output.dim(1) != out_channels_ || grad_output.dim(2) != g.out_h() ||
      grad_output.dim(3) != g.out_w()) {
    throw std::invalid_argument("Conv2d: bad grad shape " + grad_output.shape().str());
  }

  // dW[F, CKK] += gy[F, L] * colsᵀ[L, CKK], accumulated in weight_grad_'s
  // own storage (moved out as a 2-D view and back, no copy). Under a
  // sparse enough gradient mask, only the kept entries.
  const uint8_t* keep = grad_mask_.bits();
  if (keep != nullptr && grad_mask_.size() != weight_.numel()) {
    throw std::logic_error("Conv2d: gradient mask size does not match the weight");
  }
  if (keep != nullptr && !masked_grad_pays(grad_mask_.density(), out_channels_)) keep = nullptr;
  tensor::Tensor wgrad_mat = std::move(weight_grad_).reshaped(
      tensor::Shape{out_channels_, in_channels_ * kernel_ * kernel_});
  tensor::conv2d_weight_grad(grad_output, saved_input_, g, keep, wgrad_mat, pool);
  weight_grad_ = std::move(wgrad_mat).reshaped(weight_.shape());

  if (has_bias_) {
    // db[f] sums gy[:, f, :] in ascending (sample, pixel) order.
    for (int64_t f = 0; f < out_channels_; ++f) {
      double acc = 0.0;
      for (int64_t mm = 0; mm < m; ++mm) {
        const float* row = grad_output.data() + (mm * out_channels_ + f) * plane;
        for (int64_t p = 0; p < plane; ++p) acc += row[p];
      }
      bias_grad_.at(f) += static_cast<float>(acc);
    }
  }
}

std::vector<ParamRef> Conv2d::params() {
  std::vector<ParamRef> refs;
  refs.push_back({"weight", &weight_, &weight_grad_, /*prunable=*/true, &grad_mask_});
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

void Conv2d::reset_state() { has_saved_ = false; }

}  // namespace ndsnn::nn
