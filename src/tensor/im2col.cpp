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

ConvGeometry ConvGeometry::of(const Tensor& input, int64_t kernel, int64_t stride,
                              int64_t padding) {
  ConvGeometry g;
  g.batch = input.dim(0);
  g.in_channels = input.dim(1);
  g.in_h = input.dim(2);
  g.in_w = input.dim(3);
  g.kernel_h = g.kernel_w = kernel;
  g.stride = stride;
  g.padding = padding;
  return g;
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

Tensor im2col(const Tensor& input, const ConvGeometry& g) {
  g.validate();
  if (input.rank() != 4 || input.dim(0) != g.batch || input.dim(1) != g.in_channels ||
      input.dim(2) != g.in_h || input.dim(3) != g.in_w) {
    throw std::invalid_argument("im2col: input shape " + input.shape().str() +
                                " does not match geometry");
  }
  Tensor cols(Shape{g.patch_rows(), g.patch_cols()});
  const int64_t oh = g.out_h(), ow = g.out_w();
  const float* src = input.data();
  float* dst = cols.data();
  const int64_t cols_n = g.patch_cols();
  const int64_t hw = g.in_h * g.in_w;
  const int64_t chw = g.in_channels * hw;

  // Each (row, n, oy) segment of ow columns is: zeros, one in-bounds span
  // (a plain copy at stride 1), zeros. The zeros are there from the
  // allocation, so only the in-bounds span is written.
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
  return cols;
}

namespace {

/// Scatter-adds patch row `row` of samples [0, g.batch) (`src`, OH*OW
/// values per sample, `ld` apart) into their input planes of `dst`
/// ([N, C, H, W]), padding positions skipped. Every input pixel receives
/// at most one add.
void col2im_row(const float* src, int64_t ld, const ConvGeometry& g, int64_t row, float* dst) {
  const int64_t kw = row % g.kernel_w;
  const int64_t kh = (row / g.kernel_w) % g.kernel_h;
  const int64_t c = row / (g.kernel_w * g.kernel_h);
  const ValidSpan span = valid_span(g, kw);
  if (span.hi == span.lo) return;  // this kernel column only sees padding
  const int64_t ow = g.out_w();
  const int64_t ix0 = span.lo * g.stride + kw - g.padding;
  const int64_t len = span.hi - span.lo;
  const int64_t hw = g.in_h * g.in_w;
  for (int64_t n = 0; n < g.batch; ++n) {
    float* plane = dst + (n * g.in_channels + c) * hw;
    const float* srow = src + n * ld;
    for (int64_t oy = 0; oy < g.out_h(); ++oy) {
      const int64_t iy = oy * g.stride + kh - g.padding;
      if (iy < 0 || iy >= g.in_h) continue;
      float* orow = plane + iy * g.in_w + ix0;
      const float* s = srow + oy * ow + span.lo;
      if (g.stride == 1) {
        for (int64_t t = 0; t < len; ++t) orow[t] += s[t];
      } else {
        for (int64_t t = 0; t < len; ++t) orow[t * g.stride] += s[t];
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
  // Rows ascend in the outer loop, so every input pixel receives its
  // adds in ascending (row, oy, ox) order.
  Tensor out(Shape{g.batch, g.in_channels, g.in_h, g.in_w});
  const int64_t plane = g.out_h() * g.out_w();
  for (int64_t row = 0; row < g.patch_rows(); ++row) {
    col2im_row(cols.data() + row * g.patch_cols(), plane, g, row, out.data());
  }
  return out;
}

void col2im_row_add(const float* row_values, const ConvGeometry& g, int64_t row, float* sample) {
  if (row < 0 || row >= g.patch_rows()) {
    throw std::invalid_argument("col2im_row_add: bad row " + std::to_string(row));
  }
  ConvGeometry one = g;
  one.batch = 1;
  col2im_row(row_values, g.out_h() * g.out_w(), one, row, sample);
}

}  // namespace ndsnn::tensor
