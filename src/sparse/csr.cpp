#include "sparse/csr.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sparse/simd_kernels.hpp"

namespace ndsnn::sparse {

float Csr::quantize(Precision precision) {
  if (precision == Precision::kFp32) return 0.0F;
  if (quant_.present()) throw std::logic_error("Csr::quantize: already quantised");
  float err = 0.0F;
  quant_ = quantize_grouped(values_.data(), row_ptr_.data(), rows_, precision, &err);
  values_.clear();
  values_.shrink_to_fit();
  return err;
}

void Csr::dequantize() {
  if (!quant_.present()) return;
  values_.resize(col_idx_.size());
  for (int64_t r = 0; r < rows_; ++r) {
    for (int64_t k = row_ptr_[static_cast<std::size_t>(r)];
         k < row_ptr_[static_cast<std::size_t>(r) + 1]; ++k) {
      values_[static_cast<std::size_t>(k)] = quant_.dequant(r, k);
    }
  }
  quant_ = QuantPlane{};
}

int64_t Csr::memory_bytes() const {
  const int64_t indices = static_cast<int64_t>(row_ptr_.size()) * 8 +
                          static_cast<int64_t>(col_idx_.size()) * 4;
  return indices + (quant_.present() ? quant_.memory_bytes()
                                     : static_cast<int64_t>(values_.size()) * 4);
}

Csr Csr::from_dense(const tensor::Tensor& dense) {
  if (dense.rank() != 2) {
    throw std::invalid_argument("Csr::from_dense: expected rank-2, got " +
                                dense.shape().str());
  }
  Csr csr;
  csr.rows_ = dense.dim(0);
  csr.cols_ = dense.dim(1);
  csr.row_ptr_.reserve(static_cast<std::size_t>(csr.rows_) + 1);
  csr.row_ptr_.push_back(0);
  for (int64_t r = 0; r < csr.rows_; ++r) {
    for (int64_t c = 0; c < csr.cols_; ++c) {
      const float v = dense.at(r, c);
      if (std::fabs(v) > 0.0F) {
        csr.col_idx_.push_back(static_cast<int32_t>(c));
        csr.values_.push_back(v);
      }
    }
    csr.row_ptr_.push_back(static_cast<int64_t>(csr.values_.size()));
  }
  return csr;
}

Csr Csr::from_weights(const tensor::Tensor& weights) {
  if (weights.rank() < 2) {
    throw std::invalid_argument("Csr::from_weights: expected rank >= 2, got " +
                                weights.shape().str());
  }
  const int64_t rows = weights.dim(0);
  return from_dense(weights.reshaped(tensor::Shape{rows, weights.numel() / rows}));
}

tensor::Tensor Csr::to_dense() const {
  tensor::Tensor out(tensor::Shape{rows_, cols_});
  for (int64_t r = 0; r < rows_; ++r) {
    for (int64_t k = row_ptr_[static_cast<std::size_t>(r)];
         k < row_ptr_[static_cast<std::size_t>(r) + 1]; ++k) {
      out.at(r, col_idx_[static_cast<std::size_t>(k)]) =
          quant_.present() ? quant_.dequant(r, k) : values_[static_cast<std::size_t>(k)];
    }
  }
  return out;
}

Csr Csr::transposed() const {
  if (quant_.present()) {
    // The per-row groups would have to be regrouped per column; the
    // runtime always transposes first and quantises the result.
    throw std::logic_error("Csr::transposed: transpose before quantize");
  }
  Csr t;
  t.rows_ = cols_;
  t.cols_ = rows_;
  const auto nnz_count = values_.size();
  t.col_idx_.resize(nnz_count);
  t.values_.resize(nnz_count);
  // Counting transpose: histogram per source column, prefix-sum into row
  // starts, then place entries in source (row-major, ascending column)
  // order so every transposed row ends up sorted by its columns.
  t.row_ptr_.assign(static_cast<std::size_t>(cols_) + 1, 0);
  for (const int32_t c : col_idx_) ++t.row_ptr_[static_cast<std::size_t>(c) + 1];
  for (int64_t r = 0; r < cols_; ++r) {
    t.row_ptr_[static_cast<std::size_t>(r) + 1] += t.row_ptr_[static_cast<std::size_t>(r)];
  }
  std::vector<int64_t> cursor(t.row_ptr_.begin(), t.row_ptr_.end() - 1);
  for (int64_t r = 0; r < rows_; ++r) {
    for (int64_t k = row_ptr_[static_cast<std::size_t>(r)];
         k < row_ptr_[static_cast<std::size_t>(r) + 1]; ++k) {
      const auto c = static_cast<std::size_t>(col_idx_[static_cast<std::size_t>(k)]);
      const int64_t slot = cursor[c]++;
      t.col_idx_[static_cast<std::size_t>(slot)] = static_cast<int32_t>(r);
      t.values_[static_cast<std::size_t>(slot)] = values_[static_cast<std::size_t>(k)];
    }
  }
  return t;
}

void Csr::spmv_gather(const float* x, const int32_t* active, int64_t n_active,
                      double* acc) const {
  if (quant_.present()) {
    // `this` is Wᵀ, so a group (row) is one input feature: fold its
    // scale into the activation once per active input, then each term
    // is a small-int multiply-add.
    for (int64_t a = 0; a < n_active; ++a) {
      const auto j = static_cast<std::size_t>(active[a]);
      const double u = static_cast<double>(quant_.scale[j] * x[j]);
      for (int64_t k = row_ptr_[j]; k < row_ptr_[j + 1]; ++k) {
        acc[col_idx_[static_cast<std::size_t>(k)]] += static_cast<double>(quant_.code(k)) * u;
      }
    }
    return;
  }
  for (int64_t a = 0; a < n_active; ++a) {
    const auto j = static_cast<std::size_t>(active[a]);
    const double xj = static_cast<double>(x[j]);
    for (int64_t k = row_ptr_[j]; k < row_ptr_[j + 1]; ++k) {
      acc[col_idx_[static_cast<std::size_t>(k)]] +=
          static_cast<double>(values_[static_cast<std::size_t>(k)]) * xj;
    }
  }
}

void Csr::scatter_row(int64_t row, float x, float* out, int64_t out_stride) const {
  const int64_t k0 = row_ptr_[static_cast<std::size_t>(row)];
  const int64_t k1 = row_ptr_[static_cast<std::size_t>(row) + 1];
  if (quant_.present()) {
    const float xs = quant_.scale[static_cast<std::size_t>(row)] * x;
    for (int64_t k = k0; k < k1; ++k) {
      out[static_cast<int64_t>(col_idx_[static_cast<std::size_t>(k)]) * out_stride] +=
          static_cast<float>(quant_.code(k)) * xs;
    }
    return;
  }
  for (int64_t k = k0; k < k1; ++k) {
    out[static_cast<int64_t>(col_idx_[static_cast<std::size_t>(k)]) * out_stride] +=
        values_[static_cast<std::size_t>(k)] * x;
  }
}

namespace {

/// One stored tap of a conv filter, resolved against the input geometry:
/// it adds value * input over `rows` output rows of `len` elements,
/// starting at output offset `out` and input offset `in` (in elements
/// of one sample; conv_block scales both by its block's sample count),
/// with the input stepping `stride` per output element.
/// Taps whose rectangle lies wholly in the padding are never built.
struct ConvTap {
  float value;
  int64_t in, out, rows, len;
};

/// First and one-past-last output index o in [0, n_out) whose input
/// index o * stride + offset lies in [0, n_in).
std::pair<int64_t, int64_t> valid_outputs(int64_t offset, int64_t stride, int64_t n_in,
                                          int64_t n_out) {
  const int64_t lo = offset >= 0 ? 0 : (-offset + stride - 1) / stride;
  const int64_t last = n_in - 1 - offset;  // o * stride <= last
  const int64_t hi = last < 0 ? 0 : std::min(n_out, last / stride + 1);
  return {lo, std::max(lo, hi)};
}

/// Output elements a block of conv2d's samples spans per filter: about
/// one 32x32 plane, so the accumulator stays in L1.
constexpr int64_t kConvBlockFloats = 1024;

/// Adds every tap of one filter into `o`, the output planes of `nb`
/// samples interleaved element by element ([OH, OW, nb]), reading `x`,
/// the same samples' input interleaved alike ([C, H, W, nb]). A tap's
/// output row is then len * nb floats, contiguous at unit stride, so
/// short rows still vectorise; nb == 1 is the plain per-sample plane.
template <bool kUnitStride>
void conv_block(const std::vector<ConvTap>& taps, const float* x, float* o, int64_t stride,
                int64_t w, int64_t ow, int64_t nb) {
  for (const ConvTap& t : taps) {
    const float v = t.value;
    const float* src = x + t.in * nb;
    float* dst = o + t.out * nb;
    const int64_t len = t.len, span = t.len * nb;
    for (int64_t r = 0; r < t.rows; ++r, src += stride * w * nb, dst += ow * nb) {
      const float* __restrict__ s = src;
      float* __restrict__ d = dst;
      if constexpr (kUnitStride) {
        for (int64_t i = 0; i < span; ++i) d[i] += v * s[i];
      } else {
        for (int64_t i = 0; i < len; ++i) {
          for (int64_t j = 0; j < nb; ++j) d[i * nb + j] += v * s[i * stride * nb + j];
        }
      }
    }
  }
}

}  // namespace

tensor::Tensor Csr::conv2d(const tensor::Tensor& input, int64_t kernel, int64_t stride,
                           int64_t padding) const {
  tensor::Tensor out;
  conv2d(input, kernel, stride, padding, out);
  return out;
}

void Csr::conv2d(const tensor::Tensor& input, int64_t kernel, int64_t stride, int64_t padding,
                 tensor::Tensor& out) const {
  if (input.rank() != 4 || kernel < 1 || stride < 1 || padding < 0 ||
      input.dim(1) * kernel * kernel != cols_) {
    throw std::invalid_argument("Csr::conv2d: expected input [M, C, H, W] with C * " +
                                std::to_string(kernel) + "^2 = " + std::to_string(cols_) +
                                ", stride >= 1, padding >= 0; got " + input.shape().str() +
                                ", stride " + std::to_string(stride) + ", padding " +
                                std::to_string(padding));
  }
  const int64_t m = input.dim(0), h = input.dim(2), w = input.dim(3);
  if (h + 2 * padding < kernel || w + 2 * padding < kernel) {
    throw std::invalid_argument("Csr::conv2d: kernel " + std::to_string(kernel) +
                                " larger than padded input " + input.shape().str());
  }
  const int64_t oh = (h + 2 * padding - kernel) / stride + 1;
  const int64_t ow = (w + 2 * padding - kernel) / stride + 1;
  const int64_t plane = oh * ow, sample = input.dim(1) * h * w;
  out.assign_zeros({m, rows_, oh, ow});
  const float* xp = input.data();
  float* op = out.data();

  // Row f's taps, resolved once per run of its planes; the value (fp32
  // array or dequantised code) is read here and nowhere else.
  const auto decode = [&](int64_t f, std::vector<ConvTap>& taps) {
    taps.clear();
    const int64_t kk = kernel * kernel;
    for (int64_t k = row_ptr_[static_cast<std::size_t>(f)];
         k < row_ptr_[static_cast<std::size_t>(f) + 1]; ++k) {
      const int64_t col = col_idx_[static_cast<std::size_t>(k)];
      const int64_t c = col / kk, ky = (col / kernel) % kernel, kx = col % kernel;
      const auto [oy0, oy1] = valid_outputs(ky - padding, stride, h, oh);
      const auto [ox0, ox1] = valid_outputs(kx - padding, stride, w, ow);
      if (oy0 == oy1 || ox0 == ox1) continue;  // only padding under this tap
      const float value =
          quant_.present() ? quant_.dequant(f, k) : values_[static_cast<std::size_t>(k)];
      taps.push_back({value,
                      c * h * w + (oy0 * stride + ky - padding) * w + ox0 * stride + kx - padding,
                      oy0 * ow + ox0, oy1 - oy0, ox1 - ox0});
    }
  };
  // Samples go in blocks of nb whose planes together span about
  // kConvBlockFloats elements; a block's input is interleaved
  // ([C, H, W, n] for its n samples) so conv_block's spans cover all of
  // them. Blocks of one sample read the input and write the output in
  // place.
  const int64_t nb = std::clamp<int64_t>(kConvBlockFloats / plane, 1, std::max<int64_t>(m, 1));
  // Scratch of the calling thread, kept from call to call; every element
  // read below is written first.
  thread_local std::vector<float> interleaved, acc;
  thread_local std::vector<ConvTap> taps;
  if (nb > 1) {
    interleaved.resize(static_cast<std::size_t>(m * sample));
    for (int64_t m0 = 0; m0 < m; m0 += nb) {
      const int64_t n = std::min(nb, m - m0);
      float* dst = interleaved.data() + m0 * sample;
      for (int64_t j = 0; j < n; ++j) {
        const float* src = xp + (m0 + j) * sample;
        for (int64_t e = 0; e < sample; ++e) dst[e * n + j] = src[e];
      }
    }
  }
  acc.resize(static_cast<std::size_t>(nb > 1 ? nb * plane : 0));
  for (int64_t f = 0; f < rows_; ++f) {
    decode(f, taps);
    for (int64_t m0 = 0; m0 < m; m0 += nb) {
      const int64_t n = std::min(nb, m - m0);
      const bool in_place = n == 1;
      const float* x = in_place ? xp + m0 * sample : interleaved.data() + m0 * sample;
      float* o = in_place ? op + (m0 * rows_ + f) * plane : acc.data();
      if (!in_place) std::fill(acc.begin(), acc.begin() + n * plane, 0.0F);
      if (stride == 1) {
        conv_block<true>(taps, x, o, stride, w, ow, n);
      } else {
        conv_block<false>(taps, x, o, stride, w, ow, n);
      }
      if (in_place) continue;
      for (int64_t j = 0; j < n; ++j) {
        float* dst = op + ((m0 + j) * rows_ + f) * plane;
        for (int64_t e = 0; e < plane; ++e) dst[e] = acc[static_cast<std::size_t>(e * n + j)];
      }
    }
  }
}

namespace {

/// Quantised spmm_t row kernel, int8: the bitwise contract does not
/// apply to quantised execution, so the sum runs in four independent
/// float partials (the serial double chain the fp32 kernel is pinned
/// to is latency-bound) and dequantises once at the end.
inline float spmm_t_row_i8(const int8_t* q, const int32_t* col, int64_t count,
                           const float* brow, float scale) {
  float a0 = 0.0F, a1 = 0.0F, a2 = 0.0F, a3 = 0.0F;
  int64_t k = 0;
  for (; k + 4 <= count; k += 4) {
    a0 += static_cast<float>(q[k]) * brow[col[k]];
    a1 += static_cast<float>(q[k + 1]) * brow[col[k + 1]];
    a2 += static_cast<float>(q[k + 2]) * brow[col[k + 2]];
    a3 += static_cast<float>(q[k + 3]) * brow[col[k + 3]];
  }
  for (; k < count; ++k) a0 += static_cast<float>(q[k]) * brow[col[k]];
  return scale * ((a0 + a1) + (a2 + a3));
}

/// int4: the packed codes sit two per byte in exactly the order the
/// row walks them, so each loaded byte feeds two independent
/// accumulator chains (plus a third pair on the unrolled second byte).
/// Leading/trailing odd positions fall back to single nibble decodes.
inline float spmm_t_row_i4(const uint8_t* q4, int64_t k0, int64_t k1, const int32_t* col,
                           const float* brow, float scale) {
  const auto decode = [q4](int64_t k) {
    const uint8_t byte = q4[k >> 1];
    return (k & 1) != 0 ? static_cast<float>(static_cast<int8_t>(byte) >> 4)
                        : static_cast<float>(static_cast<int8_t>(byte << 4) >> 4);
  };
  float a0 = 0.0F, a1 = 0.0F, a2 = 0.0F, a3 = 0.0F;
  int64_t k = k0;
  if ((k & 1) != 0 && k < k1) {
    a0 += decode(k) * brow[col[k]];
    ++k;
  }
  for (; k + 4 <= k1; k += 4) {
    const uint8_t b0 = q4[k >> 1];
    const uint8_t b1 = q4[(k >> 1) + 1];
    a0 += static_cast<float>(static_cast<int8_t>(b0 << 4) >> 4) * brow[col[k]];
    a1 += static_cast<float>(static_cast<int8_t>(b0) >> 4) * brow[col[k + 1]];
    a2 += static_cast<float>(static_cast<int8_t>(b1 << 4) >> 4) * brow[col[k + 2]];
    a3 += static_cast<float>(static_cast<int8_t>(b1) >> 4) * brow[col[k + 3]];
  }
  for (; k < k1; ++k) a0 += decode(k) * brow[col[k]];
  return scale * ((a0 + a1) + (a2 + a3));
}

}  // namespace

void Csr::spmm_t_scalar(const float* bp, int64_t m, float* cp) const {
  if (quant_.present()) {
    for (int64_t i = 0; i < m; ++i) {
      const float* brow = bp + i * cols_;
      float* crow = cp + i * rows_;
      for (int64_t r = 0; r < rows_; ++r) {
        const int64_t k0 = row_ptr_[static_cast<std::size_t>(r)];
        const int64_t k1 = row_ptr_[static_cast<std::size_t>(r) + 1];
        const float scale = quant_.scale[static_cast<std::size_t>(r)];
        crow[r] = quant_.precision == Precision::kInt8
                      ? spmm_t_row_i8(quant_.q8.data() + k0, col_idx_.data() + k0, k1 - k0,
                                      brow, scale)
                      : spmm_t_row_i4(quant_.q4.data(), k0, k1, col_idx_.data(), brow,
                                      scale);
      }
    }
    return;
  }
  // One dense row of B is reused across every CSR row, so keep the batch
  // loop outermost and gather within the row.
  for (int64_t i = 0; i < m; ++i) {
    const float* brow = bp + i * cols_;
    float* crow = cp + i * rows_;
    for (int64_t r = 0; r < rows_; ++r) {
      // Double accumulator to mirror matmul_nt, which the dense linear
      // path uses; keeps sparse and dense logits numerically close.
      double acc = 0.0;
      for (int64_t k = row_ptr_[static_cast<std::size_t>(r)];
           k < row_ptr_[static_cast<std::size_t>(r) + 1]; ++k) {
        acc += static_cast<double>(values_[static_cast<std::size_t>(k)]) *
               brow[col_idx_[static_cast<std::size_t>(k)]];
      }
      crow[r] = static_cast<float>(acc);
    }
  }
}

tensor::Tensor Csr::spmm_t(const tensor::Tensor& b, util::simd::Tier tier) const {
  if (b.rank() != 2 || b.dim(1) != cols_) {
    throw std::invalid_argument("Csr::spmm_t: expected B [m, " + std::to_string(cols_) +
                                "], got " + b.shape().str());
  }
  const int64_t m = b.dim(0);
  tensor::Tensor c(tensor::Shape{m, rows_});
  const float* bp = b.data();
  float* cp = c.data();
  // AVX2 batch-panel routes. Building bt = Bᵀ costs one pass over B, so
  // demand a batch wide enough for the 8-lane body (m >= 8) and at
  // least as many nonzeros as B columns (each nonzero is revisited m
  // times — below that the transpose dominates).
  enum class Route { kScalar, kF32, kI8, kI4 };
  Route route = Route::kScalar;
  if (util::simd::resolve(tier) == util::simd::Tier::kAvx2 && simd::built_with_avx2() &&
      m >= 8 && nnz() >= cols_) {
    route = !quant_.present()                      ? Route::kF32
            : quant_.precision == Precision::kInt8 ? Route::kI8
                                                   : Route::kI4;
  }
  if (route == Route::kScalar) {
    spmm_t_scalar(bp, m, cp);
    return c;
  }
  std::vector<float> bt(static_cast<std::size_t>(cols_ * m));
  simd::transpose_f32(bp, m, cols_, bt.data());
  switch (route) {
    case Route::kF32:
      simd::csr_spmm_t_f32_avx2(row_ptr_.data(), col_idx_.data(), values_.data(), rows_,
                                bt.data(), m, cp);
      break;
    case Route::kI8:
      simd::csr_spmm_t_i8_avx2(row_ptr_.data(), col_idx_.data(), quant_.q8.data(),
                               quant_.scale.data(), rows_, bt.data(), m, cp);
      break;
    case Route::kI4:
      simd::csr_spmm_t_i4_avx2(row_ptr_.data(), col_idx_.data(), quant_.q4.data(),
                               quant_.scale.data(), rows_, bt.data(), m, cp);
      break;
    case Route::kScalar: break;  // handled above
  }
  return c;
}

double Csr::sparsity() const {
  const int64_t total = rows_ * cols_;
  if (total == 0) return 0.0;
  return 1.0 - static_cast<double>(nnz()) / static_cast<double>(total);
}

int64_t Csr::storage_bits(int64_t value_bits, int64_t index_bits) const {
  // nnz values + nnz column indices + (rows + 1) row pointers.
  return nnz() * (value_bits + index_bits) + (rows_ + 1) * index_bits;
}

}  // namespace ndsnn::sparse
