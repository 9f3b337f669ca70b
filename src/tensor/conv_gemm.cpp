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
/// padded stack to a [C*KH*KW, nb*OH*OW] matrix. Only the input channels
/// [c0, c1) are staged, for a caller that reads only their patch rows.
class PatchBlocks {
 public:
  PatchBlocks(const Tensor& input, const ConvGeometry& g, int64_t c0, int64_t c1)
      : input_(input),
        g_(g),
        buf_(stage_buffers()),
        c0_(c0),
        c1_(c1),
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
  /// nb*OH*OW columns are rows[r][0, nb*OH*OW), in im2col's order, for the
  /// rows of the staged channels. They stay valid until the next call.
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
    const int64_t hp = hp_, wp = wp_, ow = ow_, kernel_w = g_.kernel_w, c0 = c0_, c1 = c1_;
    const float* sample = input_.data() + n * channels * h * w;
    float* padded = buf_.padded.data();
    for (int64_t c = c0; c < c1; ++c) {
      for (int64_t y = 0; y < h; ++y) {
        copy_row(padded + (c * hp + y + pad) * wp + pad, sample + (c * h + y) * w, w, 1);
      }
    }
    if (!shift) return;
    float* shifted = buf_.shifted.data();
    for (int64_t c = c0; c < c1; ++c) {
      for (int64_t kw = 0; kw < kernel_w; ++kw) {
        float* plane_kw = shifted + (c * kernel_w + kw) * hp * ow;
        for (int64_t y = 0; y < hp; ++y) {
          copy_row(plane_kw + y * ow, padded + (c * hp + y) * wp + kw, ow, 1);
        }
      }
    }
  }

  /// Calls fn(r, c, kh, kw) for every patch row r = (c, kh, kw) of the
  /// staged channels, r ascending.
  template <class Fn>
  void for_each_patch_row(Fn&& fn) const {
    int64_t r = c0_ * g_.kernel_h * g_.kernel_w;
    for (int64_t c = c0_; c < c1_; ++c) {
      for (int64_t kh = 0; kh < g_.kernel_h; ++kh) {
        for (int64_t kw = 0; kw < g_.kernel_w; ++kw) fn(r++, c, kh, kw);
      }
    }
  }

  const Tensor& input_;
  const ConvGeometry& g_;
  StageBuffers& buf_;
  int64_t c0_, c1_, hp_, wp_, ow_, plane_, per_block_;
};

/// Filters per chunk of the weight gradient kept even: the AVX2 dW body
/// holds two filters' chains per register tile.
constexpr int64_t kFilterPair = 2;
/// Patch rows per chunk of the weight gradient come in whole 16-row
/// tiles, the AVX2 dW body's column tile.
constexpr int64_t kRowTile = 16;

}  // namespace

int64_t conv_block_samples(const ConvGeometry& g) {
  const int64_t sample_bytes =
      g.patch_rows() * g.out_h() * g.out_w() * static_cast<int64_t>(sizeof(float));
  return std::clamp<int64_t>(kConvStageBytes / sample_bytes, 1, std::max<int64_t>(g.batch, 1));
}

void conv2d_gemm(const Tensor& input, const Tensor& wmat, const ConvGeometry& g, Tensor& out,
                 util::ThreadPool* pool, util::simd::Tier tier) {
  check_input(input, g);
  if (wmat.rank() != 2 || wmat.dim(1) != g.patch_rows()) {
    throw std::invalid_argument("conv2d_gemm: weight shape " + wmat.shape().str() +
                                " does not match geometry");
  }
  const int64_t f = wmat.dim(0);
  const int64_t plane = g.out_h() * g.out_w();
  out.assign_shape({g.batch, f, g.out_h(), g.out_w()});
  const int64_t per_block = conv_block_samples(g);
  const int64_t blocks = (g.batch + per_block - 1) / per_block;
  // Blocks are independent: a lane stages and multiplies a range of
  // them in its own buffers, each exactly as the serial loop would.
  const int64_t block_macs = f * g.patch_rows() * per_block * plane;
  util::ThreadPool::for_ranges(
      pool, blocks, std::max<int64_t>(1, kConvGrainMacs / block_macs), [&](int64_t b0, int64_t b1) {
        PatchBlocks stager(input, g, 0, g.in_channels);
        // A block of several samples runs as one GEMM into [F, nb*plane],
        // then is copied out to [nb, F, plane].
        float* y = per_block > 1 ? sized(stage_buffers().out, f * per_block * plane) : nullptr;
        for (int64_t b = b0; b < b1; ++b) {
          const int64_t n0 = b * per_block;
          const int64_t nb = std::min(per_block, g.batch - n0);
          const int64_t cols_n = nb * plane;
          const float* const* rows = stager.stage(n0, nb);
          float* dst = out.data() + n0 * f * plane;
          if (nb == 1) {
            std::fill(dst, dst + f * plane, 0.0F);
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
      });
}

void conv2d_weight_grad(const Tensor& grad_output, const Tensor& input, const ConvGeometry& g,
                        const uint8_t* keep, Tensor& dw, util::ThreadPool* pool,
                        util::simd::Tier tier) {
  check_input(input, g);
  const int64_t rows = g.patch_rows(), plane = g.out_h() * g.out_w();
  if (grad_output.rank() != 4 || grad_output.dim(0) != g.batch ||
      grad_output.dim(2) != g.out_h() || grad_output.dim(3) != g.out_w() || dw.rank() != 2 ||
      dw.dim(0) != grad_output.dim(1) || dw.dim(1) != rows) {
    throw std::invalid_argument("conv2d_weight_grad: grad " + grad_output.shape().str() +
                                " or dW " + dw.shape().str() + " does not match geometry");
  }
  const int64_t f = dw.dim(0);
  const int64_t per_block = conv_block_samples(g);
  // Every dW entry is one double chain over all columns, so lanes split
  // the entries, never the columns: chunk (row range, filter group)
  // carries the chains of its entries over every block, staging only the
  // input channels its patch rows read. Row ranges are whole 16-row
  // tiles; when there are too few tiles for two chunks per lane, the
  // filters are split into groups of whole pairs too.
  const int64_t tiles = (rows + kRowTile - 1) / kRowTile;
  const int64_t pairs = (f + kFilterPair - 1) / kFilterPair;
  int64_t row_chunks = 1, filter_chunks = 1;
  if (util::ThreadPool::range_count(pool, f * rows * g.patch_cols(), kConvGrainMacs) > 1) {
    const int64_t target = 2 * pool->lanes();
    row_chunks = std::min(tiles, target);
    filter_chunks = std::min(pairs, (target + row_chunks - 1) / row_chunks);
  }
  const int64_t kk = g.kernel_h * g.kernel_w;
  const auto chunk = [&](int64_t c) {
    const int64_t rc = c / filter_chunks, fc = c % filter_chunks;
    const int64_t r0 = std::min(rows, rc * tiles / row_chunks * kRowTile);
    const int64_t r1 = std::min(rows, (rc + 1) * tiles / row_chunks * kRowTile);
    const int64_t f0 = std::min(f, fc * pairs / filter_chunks * kFilterPair);
    const int64_t f1 = std::min(f, (fc + 1) * pairs / filter_chunks * kFilterPair);
    if (r0 == r1 || f0 == f1) return;
    PatchBlocks stager(input, g, r0 / kk, (r1 - 1) / kk + 1);
    NtChains chains(f1 - f0, r1 - r0, keep == nullptr ? nullptr : keep + f0 * rows + r0, tier,
                    rows);
    for (int64_t n0 = 0; n0 < g.batch; n0 += per_block) {
      const int64_t nb = std::min(per_block, g.batch - n0);
      // The block's columns of gy: sample n's [F, plane] planes, in order.
      chains.add(SegmentedRows{grad_output.data() + (n0 * f + f0) * plane, plane, plane,
                               f * plane},
                 stager.stage(n0, nb) + r0, nb * plane);
    }
    chains.finish(dw.data() + f0 * rows + r0);
  };
  const int64_t chunks = row_chunks * filter_chunks;
  if (chunks == 1) {
    chunk(0);
  } else {
    pool->parallel_chunks(chunks, chunk);
  }
}

}  // namespace ndsnn::tensor
