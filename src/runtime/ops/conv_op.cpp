#include "runtime/ops/conv_op.hpp"

#include <stdexcept>

#include "runtime/trace.hpp"
#include "tensor/conv_gemm.hpp"
#include "tensor/ops.hpp"

namespace ndsnn::runtime {

using tensor::Shape;
using tensor::Tensor;

ConvOp::ConvOp(const nn::Conv2d& src, Kernel kernel, sparse::Precision precision,
               bool event, const CompileOptions& opts)
    : layer_name_(src.name()),
      tier_(util::simd::active()),
      event_(event),
      has_bias_(src.has_bias()),
      in_channels_(src.in_channels()),
      out_channels_(src.out_channels()),
      kernel_(src.kernel()),
      stride_(src.stride()),
      padding_(src.padding()),
      weights_(src.weight().numel()),
      source_sparsity_(src.masked_view()->sparsity()),
      store_(src.weight(), kernel, precision, event, opts.fake_quant) {
  if (has_bias_) bias_ = src.bias();
}

void ConvOp::run_dense(const Tensor& input, Tensor& out) const {
  if (store_.kernel == Kernel::kCsr) {
    trace::ScopedSpan span("conv-direct", "phase");
    span.rows(input.dim(0));
    span.bytes(store_.bytes);
    store_.csr.conv2d(input, kernel_, stride_, padding_, out);
    return;
  }
  trace::ScopedSpan span("conv-gemm", "phase");
  span.rows(input.dim(0));
  span.bytes(store_.bytes);
  tensor::conv2d_gemm(input, store_.dense,
                      tensor::ConvGeometry::of(input, kernel_, stride_, padding_), out, tier_);
}

void ConvOp::run_event(const Tensor& in, Tensor& out) const {
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
  out.assign_zeros(Shape{m, out_channels_, oh, ow});

  // The active inputs, scanned into the calling thread's view, kept from
  // call to call.
  thread_local SpikeBatch events;
  events.rescan(in);

  trace::ScopedSpan span("event-scatter", "phase");
  span.rows(m);
  span.rate(events.rate());
  span.bytes(store_.bytes);

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
          store_.csr.scatter_row(col, v, obase + oy * ow + ox, plane);
        }
      }
    }
  }
}

void ConvOp::run_into(const Activation& input, Activation& out) const {
  if (input.tensor.rank() != 4 || input.tensor.dim(1) != in_channels_) {
    throw std::invalid_argument("ConvOp: expected [M, " + std::to_string(in_channels_) +
                                ", H, W], got " + input.tensor.shape().str());
  }
  if (event_) {
    run_event(input.tensor, out.tensor);
  } else {
    run_dense(input.tensor, out.tensor);
  }
  if (has_bias_) tensor::add_channel_bias_(out.tensor, bias_);
}

OpReport ConvOp::report() const {
  OpReport r{layer_name_, std::string(kernel_tag(store_.kernel)) + "-conv", weights_,
             store_.stored, source_sparsity_, event_, store_.precision, store_.bytes};
  r.tier = tier_;
  return r;
}

}  // namespace ndsnn::runtime
