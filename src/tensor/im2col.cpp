#include "tensor/im2col.hpp"

#include <algorithm>
#include <stdexcept>

namespace ndsnn::tensor {

void ConvGeometry::validate() const {
  if (batch < 1 || in_channels < 1 || in_h < 1 || in_w < 1) {
    throw std::invalid_argument("ConvGeometry: input dims must be >= 1");
  }
  if (kernel_h < 1 || kernel_w < 1 || stride < 1 || padding < 0) {
    throw std::invalid_argument("ConvGeometry: bad kernel/stride/padding");
  }
  if (in_h + 2 * padding < kernel_h || in_w + 2 * padding < kernel_w) {
    throw std::invalid_argument("ConvGeometry: kernel larger than padded input");
  }
  // Floor-division output size (standard conv semantics): trailing rows or
  // columns that do not fit a full stride are simply not visited.
}

namespace {

/// The output columns [lo, hi) whose input column ox*stride + kw - padding
/// lies inside [0, in_w) for kernel column kw; every other ox reads padding.
struct ValidSpan {
  int64_t lo, hi;
};

ValidSpan valid_span(const ConvGeometry& g, int64_t kw) {
  const int64_t ow = g.out_w();
  const int64_t shift = g.padding - kw;     // ix = ox * stride - shift
  const int64_t last = g.in_w - 1 + shift;  // ix < in_w  <=>  ox * stride <= last
  const int64_t lo = std::min(shift > 0 ? (shift + g.stride - 1) / g.stride : 0, ow);
  const int64_t hi = last < 0 ? 0 : std::min(last / g.stride + 1, ow);
  return {lo, std::max(lo, hi)};
}

}  // namespace

void im2col_into(const Tensor& input, const ConvGeometry& g, Tensor& cols) {
  g.validate();
  if (input.rank() != 4 || input.dim(0) != g.batch || input.dim(1) != g.in_channels ||
      input.dim(2) != g.in_h || input.dim(3) != g.in_w) {
    throw std::invalid_argument("im2col: input shape " + input.shape().str() +
                                " does not match geometry");
  }
  if (cols.rank() != 2 || cols.dim(0) != g.patch_rows() || cols.dim(1) != g.patch_cols()) {
    throw std::invalid_argument("im2col: cols shape " + cols.shape().str() +
                                " does not match geometry");
  }
  const int64_t oh = g.out_h(), ow = g.out_w();
  const float* src = input.data();
  float* dst = cols.data();
  const int64_t cols_n = g.patch_cols();
  const int64_t hw = g.in_h * g.in_w;
  const int64_t chw = g.in_channels * hw;

  // Each (row, n, oy) segment of ow columns is: zeros, one in-bounds span
  // (a plain copy at stride 1), zeros. The zeros are already there, so
  // only the in-bounds span is written.
  for (int64_t c = 0; c < g.in_channels; ++c) {
    for (int64_t kh = 0; kh < g.kernel_h; ++kh) {
      for (int64_t kw = 0; kw < g.kernel_w; ++kw) {
        const int64_t row = (c * g.kernel_h + kh) * g.kernel_w + kw;
        const ValidSpan span = valid_span(g, kw);
        if (span.hi == span.lo) continue;  // this kernel column only sees padding
        const int64_t ix0 = span.lo * g.stride + kw - g.padding;
        const int64_t len = span.hi - span.lo;
        float* drow = dst + row * cols_n;
        for (int64_t n = 0; n < g.batch; ++n) {
          const float* plane = src + n * chw + c * hw;
          for (int64_t oy = 0; oy < oh; ++oy, drow += ow) {
            const int64_t iy = oy * g.stride + kh - g.padding;
            if (iy < 0 || iy >= g.in_h) continue;
            const float* irow = plane + iy * g.in_w + ix0;
            float* d = drow + span.lo;
            if (g.stride == 1) {
              std::copy(irow, irow + len, d);
            } else {
              for (int64_t t = 0; t < len; ++t) d[t] = irow[t * g.stride];
            }
          }
        }
      }
    }
  }
}

Tensor im2col(const Tensor& input, const ConvGeometry& g) {
  g.validate();
  Tensor cols(Shape{g.patch_rows(), g.patch_cols()});
  im2col_into(input, g, cols);
  return cols;
}

namespace {

/// Scatter-adds the patch columns of samples [n0, n1), held contiguously
/// in `src` ([C*KH*KW, (n1 - n0)*OH*OW]), into their planes of `dst`
/// ([N, C, H, W]). Same traversal as im2col with the padding columns
/// skipped, so every input pixel receives its adds in ascending
/// (row, oy, ox) order.
void col2im_add(const float* src, const ConvGeometry& g, int64_t n0, int64_t n1, float* dst) {
  const int64_t oh = g.out_h(), ow = g.out_w();
  const int64_t cols_n = (n1 - n0) * oh * ow;
  const int64_t hw = g.in_h * g.in_w;
  const int64_t chw = g.in_channels * hw;
  for (int64_t c = 0; c < g.in_channels; ++c) {
    for (int64_t kh = 0; kh < g.kernel_h; ++kh) {
      for (int64_t kw = 0; kw < g.kernel_w; ++kw) {
        const int64_t row = (c * g.kernel_h + kh) * g.kernel_w + kw;
        const ValidSpan span = valid_span(g, kw);
        if (span.hi == span.lo) continue;  // this kernel column only sees padding
        const int64_t ix0 = span.lo * g.stride + kw - g.padding;
        const int64_t len = span.hi - span.lo;
        const float* srow = src + row * cols_n;
        for (int64_t n = n0; n < n1; ++n) {
          float* plane = dst + n * chw + c * hw;
          for (int64_t oy = 0; oy < oh; ++oy, srow += ow) {
            const int64_t iy = oy * g.stride + kh - g.padding;
            if (iy < 0 || iy >= g.in_h) continue;
            float* orow = plane + iy * g.in_w + ix0;
            const float* s = srow + span.lo;
            for (int64_t t = 0; t < len; ++t) orow[t * g.stride] += s[t];
          }
        }
      }
    }
  }
}

}  // namespace

Tensor col2im(const Tensor& cols, const ConvGeometry& g) {
  g.validate();
  if (cols.rank() != 2 || cols.dim(0) != g.patch_rows() || cols.dim(1) != g.patch_cols()) {
    throw std::invalid_argument("col2im: cols shape " + cols.shape().str() +
                                " does not match geometry");
  }
  Tensor out(Shape{g.batch, g.in_channels, g.in_h, g.in_w});
  col2im_add(cols.data(), g, 0, g.batch, out.data());
  return out;
}

void col2im_sample_add(const Tensor& cols, const ConvGeometry& g, int64_t n, Tensor& out) {
  g.validate();
  if (cols.rank() != 2 || cols.dim(0) != g.patch_rows() ||
      cols.dim(1) != g.out_h() * g.out_w()) {
    throw std::invalid_argument("col2im_sample_add: cols shape " + cols.shape().str() +
                                " does not match geometry");
  }
  if (n < 0 || n >= g.batch || out.rank() != 4 || out.dim(0) != g.batch ||
      out.dim(1) != g.in_channels || out.dim(2) != g.in_h || out.dim(3) != g.in_w) {
    throw std::invalid_argument("col2im_sample_add: bad sample or output shape " +
                                out.shape().str());
  }
  col2im_add(cols.data(), g, n, n + 1, out.data());
}

}  // namespace ndsnn::tensor
