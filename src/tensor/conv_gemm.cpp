#include "tensor/conv_gemm.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "tensor/matmul.hpp"

namespace ndsnn::tensor {

namespace {

void check_input(const Tensor& input, const ConvGeometry& g) {
  g.validate();
  if (input.rank() != 4 || input.dim(0) != g.batch || input.dim(1) != g.in_channels ||
      input.dim(2) != g.in_h || input.dim(3) != g.in_w) {
    throw std::invalid_argument("conv gemm: input shape " + input.shape().str() +
                                " does not match geometry");
  }
}

/// d[t] = s[t * stride] for t < n. At stride 1 the copy is a few
/// fixed-size moves, the last one overlapping the one before when n is
/// ragged, so a short row costs no loop and no library call.
inline void copy_row(float* d, const float* s, int64_t n, int64_t stride) {
  if (stride != 1) {
    for (int64_t t = 0; t < n; ++t) d[t] = s[t * stride];
  } else if (n >= 8) {
    int64_t t = 0;
    for (; t + 8 <= n; t += 8) std::memcpy(d + t, s + t, 8 * sizeof(float));
    if (t < n) std::memcpy(d + n - 8, s + n - 8, 8 * sizeof(float));
  } else if (n >= 4) {
    std::memcpy(d, s, 4 * sizeof(float));
    std::memcpy(d + n - 4, s + n - 4, 4 * sizeof(float));
  } else if (n >= 2) {
    std::memcpy(d, s, 2 * sizeof(float));
    std::memcpy(d + n - 2, s + n - 2, 2 * sizeof(float));
  } else {
    d[0] = s[0];
  }
}

/// Staging storage of the calling thread. Pool lanes are threads, so no
/// two lanes ever share it.
struct StageBuffers {
  std::vector<float> padded, shifted, cols, out;
  std::vector<const float*> rows;
};

StageBuffers& stage_buffers() {
  thread_local StageBuffers buffers;
  return buffers;
}

template <class T>
T* sized(std::vector<T>& v, int64_t n) {
  if (static_cast<int64_t>(v.size()) < n) v.resize(static_cast<std::size_t>(n));
  return v.data();
}

/// Stages the patch columns of one conv's input a block of whole samples
/// at a time and hands out the block's patch rows. Each sample is first
/// copied into a zero-bordered [C, HP, WP] stack of padded planes. At
/// stride 1, patch row (c, kh, kw) of a sample is rows [kh, kh + OH) of
/// the shifted plane padded[c][:, kw : kw + OW], so a one-sample block
/// (a wide plane) points its patch rows into a [C, KW, HP, OW] stack of
/// those planes: KW copies of the input, not KH*KW. A block of several
/// samples (small planes), or any stride but 1, is copied out from the
/// padded stack to a [C*KH*KW, nb*OH*OW] matrix.
class PatchBlocks {
 public:
  PatchBlocks(const Tensor& input, const ConvGeometry& g)
      : input_(input),
        g_(g),
        buf_(stage_buffers()),
        hp_(g.in_h + 2 * g.padding),
        wp_(g.in_w + 2 * g.padding),
        ow_(g.out_w()),
        plane_(g.out_h() * g.out_w()),
        per_block_(conv_block_samples(g)) {
    // The border of the padded stack stays zero for the whole call.
    buf_.padded.assign(static_cast<std::size_t>(g.in_channels * hp_ * wp_), 0.0F);
    if (direct()) {
      sized(buf_.shifted, g.in_channels * g.kernel_w * hp_ * ow_);
    } else {
      sized(buf_.cols, g.patch_rows() * per_block_ * plane_);
    }
    sized(buf_.rows, g.patch_rows());
  }

  [[nodiscard]] int64_t per_block() const { return per_block_; }

  /// The patch rows of samples [n0, n0 + nb), nb <= per_block(): row r's
  /// nb*OH*OW columns are rows[r][0, nb*OH*OW), in im2col's order. They
  /// stay valid until the next call.
  const float* const* stage(int64_t n0, int64_t nb) {
    const int64_t cols_n = nb * plane_;
    const float** rows = buf_.rows.data();
    if (direct()) {
      load_sample(n0, /*shift=*/true);
      for_each_patch_row([&](int64_t r, int64_t c, int64_t kh, int64_t kw) {
        rows[r] = buf_.shifted.data() + ((c * g_.kernel_w + kw) * hp_ + kh) * ow_;
      });
      return rows;
    }
    // Locals: the copies below may alias any member as far as the
    // compiler knows.
    const int64_t oh = g_.out_h(), ow = ow_, stride = g_.stride, hp = hp_, wp = wp_;
    const float* padded = buf_.padded.data();
    float* cols = buf_.cols.data();
    for (int64_t s = 0; s < nb; ++s) {
      load_sample(n0 + s, /*shift=*/false);
      for_each_patch_row([&](int64_t r, int64_t c, int64_t kh, int64_t kw) {
        // Output row oy reads padded row stride*oy + kh from column kw on.
        const float* src = padded + (c * hp + kh) * wp + kw;
        float* d = cols + r * cols_n + s * oh * ow;
        for (int64_t oy = 0; oy < oh; ++oy) {
          copy_row(d + oy * ow, src + oy * stride * wp, ow, stride);
        }
      });
    }
    for (int64_t r = 0; r < g_.patch_rows(); ++r) rows[r] = cols + r * cols_n;
    return rows;
  }

 private:
  /// Whether every block is one sample at stride 1, whose patch rows are
  /// read in place from the shifted stack.
  [[nodiscard]] bool direct() const { return g_.stride == 1 && per_block_ == 1; }

  /// Copies sample n into the padded stack and, with `shift`, on into
  /// the shifted stack.
  void load_sample(int64_t n, bool shift) {
    const int64_t channels = g_.in_channels, h = g_.in_h, w = g_.in_w, pad = g_.padding;
    const int64_t hp = hp_, wp = wp_, ow = ow_, kernel_w = g_.kernel_w;
    const float* sample = input_.data() + n * channels * h * w;
    float* padded = buf_.padded.data();
    for (int64_t c = 0; c < channels; ++c) {
      for (int64_t y = 0; y < h; ++y) {
        copy_row(padded + (c * hp + y + pad) * wp + pad, sample + (c * h + y) * w, w, 1);
      }
    }
    if (!shift) return;
    float* shifted = buf_.shifted.data();
    for (int64_t c = 0; c < channels; ++c) {
      for (int64_t kw = 0; kw < kernel_w; ++kw) {
        float* plane_kw = shifted + (c * kernel_w + kw) * hp * ow;
        for (int64_t y = 0; y < hp; ++y) {
          copy_row(plane_kw + y * ow, padded + (c * hp + y) * wp + kw, ow, 1);
        }
      }
    }
  }

  /// Calls fn(r, c, kh, kw) for every patch row r = (c, kh, kw), r
  /// ascending.
  template <class Fn>
  void for_each_patch_row(Fn&& fn) const {
    int64_t r = 0;
    for (int64_t c = 0; c < g_.in_channels; ++c) {
      for (int64_t kh = 0; kh < g_.kernel_h; ++kh) {
        for (int64_t kw = 0; kw < g_.kernel_w; ++kw) fn(r++, c, kh, kw);
      }
    }
  }

  const Tensor& input_;
  const ConvGeometry& g_;
  StageBuffers& buf_;
  int64_t hp_, wp_, ow_, plane_, per_block_;
};

}  // namespace

int64_t conv_block_samples(const ConvGeometry& g) {
  const int64_t sample_bytes =
      g.patch_rows() * g.out_h() * g.out_w() * static_cast<int64_t>(sizeof(float));
  return std::clamp<int64_t>(kConvStageBytes / sample_bytes, 1, std::max<int64_t>(g.batch, 1));
}

void conv2d_gemm(const Tensor& input, const Tensor& wmat, const ConvGeometry& g, Tensor& out,
                 util::simd::Tier tier) {
  check_input(input, g);
  if (wmat.rank() != 2 || wmat.dim(1) != g.patch_rows()) {
    throw std::invalid_argument("conv2d_gemm: weight shape " + wmat.shape().str() +
                                " does not match geometry");
  }
  const int64_t f = wmat.dim(0);
  const int64_t plane = g.out_h() * g.out_w();
  out.assign_zeros({g.batch, f, g.out_h(), g.out_w()});
  PatchBlocks blocks(input, g);
  const int64_t per_block = blocks.per_block();
  // A block of several samples runs as one GEMM into [F, nb*plane],
  // then is copied out to [nb, F, plane].
  float* y = per_block > 1 ? sized(stage_buffers().out, f * per_block * plane) : nullptr;
  for (int64_t n0 = 0; n0 < g.batch; n0 += per_block) {
    const int64_t nb = std::min(per_block, g.batch - n0);
    const int64_t cols_n = nb * plane;
    const float* const* rows = blocks.stage(n0, nb);
    float* dst = out.data() + n0 * f * plane;
    if (nb == 1) {
      matmul_acc_rows(wmat, rows, dst, plane, plane, tier);
      continue;
    }
    std::fill(y, y + f * cols_n, 0.0F);
    matmul_acc_rows(wmat, rows, y, cols_n, cols_n, tier);
    for (int64_t s = 0; s < nb; ++s) {
      for (int64_t ff = 0; ff < f; ++ff) {
        const float* src = y + ff * cols_n + s * plane;
        std::copy(src, src + plane, dst + (s * f + ff) * plane);
      }
    }
  }
}

void conv2d_weight_grad(const Tensor& grad_output, const Tensor& input, const ConvGeometry& g,
                        const uint8_t* keep, Tensor& dw, util::simd::Tier tier) {
  check_input(input, g);
  const int64_t rows = g.patch_rows(), plane = g.out_h() * g.out_w();
  if (grad_output.rank() != 4 || grad_output.dim(0) != g.batch ||
      grad_output.dim(2) != g.out_h() || grad_output.dim(3) != g.out_w() || dw.rank() != 2 ||
      dw.dim(0) != grad_output.dim(1) || dw.dim(1) != rows) {
    throw std::invalid_argument("conv2d_weight_grad: grad " + grad_output.shape().str() +
                                " or dW " + dw.shape().str() + " does not match geometry");
  }
  const int64_t f = dw.dim(0);
  PatchBlocks blocks(input, g);
  const int64_t per_block = blocks.per_block();
  NtChains chains(f, rows, keep, tier);
  for (int64_t n0 = 0; n0 < g.batch; n0 += per_block) {
    const int64_t nb = std::min(per_block, g.batch - n0);
    // The block's columns of gy: sample n's [F, plane] planes, in order.
    chains.add(SegmentedRows{grad_output.data() + n0 * f * plane, plane, plane, f * plane},
               blocks.stage(n0, nb), nb * plane);
  }
  chains.finish(dw.data());
}

}  // namespace ndsnn::tensor
