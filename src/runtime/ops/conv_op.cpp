#include "runtime/ops/conv_op.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "runtime/trace.hpp"
#include "tensor/im2col.hpp"
#include "tensor/matmul.hpp"
#include "tensor/ops.hpp"

namespace ndsnn::runtime {

using tensor::Shape;
using tensor::Tensor;

ConvOp::ConvOp(const nn::Conv2d& src, Kernel kernel, sparse::Precision precision,
               bool event, const CompileOptions& opts)
    : layer_name_(src.name()),
      gemm_(kernel),
      tier_(util::simd::active()),
      precision_(kernel == Kernel::kDense ? sparse::Precision::kFp32 : precision),
      event_(event),
      has_bias_(src.has_bias()),
      in_channels_(src.in_channels()),
      out_channels_(src.out_channels()),
      kernel_(src.kernel()),
      stride_(src.stride()),
      padding_(src.padding()),
      weights_(src.weight().numel()),
      source_sparsity_(src.masked_view()->sparsity()) {
  switch (gemm_) {
    case Kernel::kCsr:
      if (event_) {
        csr_t_ = sparse::Csr::from_weights(src.weight()).transposed();
        (void)csr_t_.quantize(precision_);
        if (opts.fake_quant) csr_t_.dequantize();
        stored_ = csr_t_.nnz();
        bytes_ = csr_t_.memory_bytes();
      } else {
        csr_ = sparse::Csr::from_weights(src.weight());
        (void)csr_.quantize(precision_);
        if (opts.fake_quant) csr_.dequantize();
        stored_ = csr_.nnz();
        bytes_ = csr_.memory_bytes();
      }
      break;
    case Kernel::kDense: {
      const int64_t ckk = in_channels_ * kernel_ * kernel_;
      if (event_) {
        dense_t_ = Tensor(Shape{ckk, out_channels_});
        const float* w = src.weight().data();
        float* wt = dense_t_.data();
        for (int64_t f = 0; f < out_channels_; ++f) {
          for (int64_t c = 0; c < ckk; ++c) wt[c * out_channels_ + f] = w[f * ckk + c];
        }
      } else {
        dense_ = src.weight().reshaped(Shape{out_channels_, ckk});
      }
      stored_ = weights_;
      bytes_ = weights_ * 4;
      break;
    }
  }
  if (has_bias_) bias_ = src.bias();
}

Tensor ConvOp::run_dense(const Tensor& input) const {
  if (gemm_ == Kernel::kCsr) {
    trace::ScopedSpan span("conv-direct", "phase");
    span.rows(input.dim(0));
    span.bytes(bytes_);
    return csr_.conv2d(input, kernel_, stride_, padding_);
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

  Tensor cols;
  {
    trace::ScopedSpan span("im2col", "phase");
    span.rows(g.batch);
    cols = tensor::im2col(input, g);
    span.bytes(cols.numel() * static_cast<int64_t>(sizeof(float)));
  }
  const int64_t m = g.batch, oh = g.out_h(), ow = g.out_w();
  trace::ScopedSpan gemm_span("conv-gemm", "phase");
  gemm_span.rows(m);
  gemm_span.bytes(bytes_);
  const int64_t plane = oh * ow;
  // out[mm] [F, OH*OW] = W[F, CKK] * cols[CKK, columns of sample mm].
  Tensor out(Shape{m, out_channels_, oh, ow});
  for (int64_t mm = 0; mm < m; ++mm) {
    tensor::matmul_acc_block(dense_, cols.data() + mm * plane, g.patch_cols(),
                             out.data() + mm * out_channels_ * plane, plane, plane, tier_);
  }
  return out;
}

Tensor ConvOp::run_event(const Activation& input) const {
  const Tensor& in = input.tensor;
  const int64_t m = in.dim(0), h = in.dim(2), w = in.dim(3);
  const int64_t oh = (h + 2 * padding_ - kernel_) / stride_ + 1;
  const int64_t ow = (w + 2 * padding_ - kernel_) / stride_ + 1;
  if (oh < 1 || ow < 1) {
    throw std::invalid_argument("ConvOp: kernel larger than padded input " +
                                in.shape().str());
  }
  const int64_t in_plane = h * w;
  const int64_t row_size = in_channels_ * in_plane;
  const int64_t plane = oh * ow;
  Tensor out(Shape{m, out_channels_, oh, ow});

  const bool use_events =
      input.has_events && input.events.rows == m && input.events.row_size == row_size;
  SpikeBatch scanned;
  if (!use_events) scanned = SpikeBatch::scan(in);
  const SpikeBatch& events = use_events ? input.events : scanned;

  trace::ScopedSpan span("event-scatter", "phase");
  span.rows(m);
  span.rate(events.rate());
  span.bytes(bytes_);

  const float* inp = in.data();
  float* dst = out.data();
  for (int64_t mm = 0; mm < m; ++mm) {
    const float* xrow = inp + mm * row_size;
    const int32_t* active = events.active_begin(mm);
    const int64_t n_active = events.active_count(mm);
    float* obase = dst + mm * out_channels_ * plane;
    for (int64_t a = 0; a < n_active; ++a) {
      const int64_t j = active[a];
      const float v = xrow[j];
      const int64_t c = j / in_plane;
      const int64_t y = (j % in_plane) / w;
      const int64_t x = j % w;
      // Every kernel offset (ky, kx) that maps pixel (y, x) onto a valid
      // output position; for a fixed output element exactly one offset
      // matches, so ascending (c, y, x) scatters in ascending
      // patch-column order per output — the dense GEMM's order.
      for (int64_t ky = 0; ky < kernel_; ++ky) {
        const int64_t oy_num = y + padding_ - ky;
        if (oy_num < 0 || oy_num % stride_ != 0) continue;
        const int64_t oy = oy_num / stride_;
        if (oy >= oh) continue;
        for (int64_t kx = 0; kx < kernel_; ++kx) {
          const int64_t ox_num = x + padding_ - kx;
          if (ox_num < 0 || ox_num % stride_ != 0) continue;
          const int64_t ox = ox_num / stride_;
          if (ox >= ow) continue;
          const int64_t col = (c * kernel_ + ky) * kernel_ + kx;
          float* obegin = obase + oy * ow + ox;
          switch (gemm_) {
            case Kernel::kCsr:
              csr_t_.scatter_row(col, v, obegin, plane);
              break;
            case Kernel::kDense: {
              const float* wrow = dense_t_.data() + col * out_channels_;
              for (int64_t f = 0; f < out_channels_; ++f) {
                obegin[f * plane] += wrow[f] * v;
              }
              break;
            }
          }
        }
      }
    }
  }
  return out;
}

Activation ConvOp::run(const Activation& input) const {
  if (input.tensor.rank() != 4 || input.tensor.dim(1) != in_channels_) {
    throw std::invalid_argument("ConvOp: expected [M, " + std::to_string(in_channels_) +
                                ", H, W], got " + input.tensor.shape().str());
  }
  Tensor out = event_ ? run_event(input) : run_dense(input.tensor);
  if (has_bias_) tensor::add_channel_bias_(out, bias_);
  return Activation(std::move(out));
}

OpReport ConvOp::report() const {
  OpReport r{layer_name_, std::string(kernel_tag(gemm_)) + "-conv", weights_, stored_,
             source_sparsity_, event_, precision_, bytes_};
  r.tier = tier_;
  return r;
}

}  // namespace ndsnn::runtime
