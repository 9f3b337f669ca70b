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
               bool event, const CompileOptions& opts,
               std::shared_ptr<util::ThreadPool> pool)
    : layer_name_(src.name()),
      gemm_(kernel),
      pool_(std::move(pool)),
      tier_(util::simd::resolve(opts.kernel_tier)),
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
        csr_t_ = sparse::Csr::from_weights(src.weight(), opts.prune_threshold).transposed();
        (void)csr_t_.quantize(precision_);
        if (opts.fake_quant) csr_t_.dequantize();
        stored_ = csr_t_.nnz();
        bytes_ = csr_t_.memory_bytes();
      } else {
        csr_ = sparse::Csr::from_weights(src.weight(), opts.prune_threshold);
        // The dense-activation plane takes the grouped-scale knob; the
        // event plane keeps per-row scales (scatter dequantises per
        // stored entry either way, but grouping the transposed storage
        // would regroup across filters — not the calibrated scheme).
        (void)csr_.quantize(precision_, /*symmetric=*/true, /*uniform_scale=*/false,
                            opts.quant_group_size);
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
  if (event_) {
    // Per-output-channel weight histogram of the transposed structure:
    // the prefix sums that let the parallel event path hand each chunk a
    // channel strip with balanced scatter work.
    channel_weight_prefix_.assign(static_cast<std::size_t>(out_channels_) + 1, 0);
    auto& prefix = channel_weight_prefix_;
    switch (gemm_) {
      case Kernel::kCsr:
        for (const int32_t f : csr_t_.col_idx()) ++prefix[static_cast<std::size_t>(f) + 1];
        break;
      case Kernel::kDense:
        for (int64_t f = 0; f < out_channels_; ++f) {
          prefix[static_cast<std::size_t>(f) + 1] = in_channels_ * kernel_ * kernel_;
        }
        break;
    }
    for (int64_t f = 0; f < out_channels_; ++f) {
      prefix[static_cast<std::size_t>(f) + 1] += prefix[static_cast<std::size_t>(f)];
    }
  }
}

Tensor ConvOp::run_dense(const Tensor& input) const {
  util::ThreadPool* pool = pool_.get();
  if (gemm_ == Kernel::kCsr) {
    trace::ScopedSpan span("conv-direct", "phase");
    span.rows(input.dim(0));
    span.bytes(bytes_);
    return csr_.conv2d(input, kernel_, stride_, padding_, pool);
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
  Tensor out(Shape{m, out_channels_, oh, ow});
  const Tensor yflat = tensor::matmul(dense_, cols, pool, tier_);
  // Transpose [F, (m, oy, ox)] -> [m, F, oy, ox].
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
  return out;
}

void ConvOp::event_scatter(const Tensor& in, const SpikeBatch& events, Tensor& out,
                           int64_t oh, int64_t ow, int64_t f0, int64_t f1) const {
  const int64_t m = in.dim(0), h = in.dim(2), w = in.dim(3);
  const int64_t in_plane = h * w;
  const int64_t row_size = in_channels_ * in_plane;
  const int64_t plane = oh * ow;
  const bool full = f0 == 0 && f1 == out_channels_;
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
      // patch-column order per output — the dense GEMM's order. A
      // channel strip [f0, f1) only restricts *which* outputs a chunk
      // owns, never the order of their contributions.
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
              if (full) {
                csr_t_.scatter_row(col, v, obegin, plane);
              } else {
                csr_t_.scatter_row_range(col, v, obegin, plane, f0, f1);
              }
              break;
            case Kernel::kDense: {
              const float* wrow = dense_t_.data() + col * out_channels_;
              for (int64_t f = f0; f < f1; ++f) {
                obegin[f * plane] += wrow[f] * v;
              }
              break;
            }
          }
        }
      }
    }
  }
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
  const int64_t row_size = in_channels_ * h * w;
  Tensor out(Shape{m, out_channels_, oh, ow});

  const bool use_events =
      input.has_events && input.events.rows == m && input.events.row_size == row_size;
  // Without a usable view the event stream is rebuilt once up front (the
  // scan is shared by every channel chunk).
  SpikeBatch scanned;
  if (!use_events) scanned = SpikeBatch::scan(in);
  const SpikeBatch& events = use_events ? input.events : scanned;

  trace::ScopedSpan span("event-scatter", "phase");
  span.rows(m);
  span.rate(events.rate());
  span.bytes(bytes_);

  // Output channels partition the scatter: each chunk replays the whole
  // event stream but writes only its own channel strip, nnz-balanced by
  // the per-channel weight histogram. Work per event ~ k*k offsets times
  // the average weights per patch column.
  const int64_t ckk = in_channels_ * kernel_ * kernel_;
  const int64_t cost_per_active =
      kernel_ * kernel_ * std::max<int64_t>(1, stored_ / std::max<int64_t>(1, ckk));
  const int64_t total_active = static_cast<int64_t>(events.idx.size());
  util::parallel_balanced(pool_.get(), channel_weight_prefix_.data(), out_channels_,
                          total_active * cost_per_active, [&](int64_t f0, int64_t f1) {
                            event_scatter(in, events, out, oh, ow, f0, f1);
                          });
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
