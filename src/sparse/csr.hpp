// Compressed Sparse Row storage for 2-D weight matrices (Sec. III-D).
//
// Used by the memory-footprint analysis, by the edge-deployment example
// to export trained sparse models, and by the inference runtime
// (src/runtime/) as the execution format for pruned weight layers: the
// kernels below are what make the trained sparsity pay off at forward
// time instead of only in the analytical cost models. One kernel per
// runtime route: conv2d (dense-activation conv), spmm_t
// (dense-activation linear), spmv_gather (event linear) and
// scatter_row (event conv). Each runs serially on the calling thread: a
// plan with several lanes runs one row shard of its batch per lane
// (runtime::CompiledNetwork::infer), never a split inside a kernel.
// This is the only module that reads the CSR index arrays and the
// quantised value planes in a hot loop; only spmm_t has an AVX2 body.
#pragma once

#include <cstdint>
#include <vector>

#include "sparse/quant.hpp"
#include "tensor/tensor.hpp"
#include "util/cpuinfo.hpp"

namespace ndsnn::sparse {

/// CSR matrix: row_ptr has rows+1 entries; col_idx/values have nnz each.
class Csr {
 public:
  /// Compress a rank-2 tensor, keeping every entry with |x| > 0.
  [[nodiscard]] static Csr from_dense(const tensor::Tensor& dense);

  /// Masked-weight extractor: reshape a weight tensor of any rank to
  /// [dim(0), numel/dim(0)] (conv [F, C, KH, KW] -> [F, C*KH*KW], linear
  /// [out, in] unchanged) and compress it. This is the uniform path from
  /// a trained, mask-zeroed parameter tensor to an executable kernel.
  [[nodiscard]] static Csr from_weights(const tensor::Tensor& weights);

  /// Expand back to dense [rows, cols].
  [[nodiscard]] tensor::Tensor to_dense() const;

  /// Transposed copy (Aᵀ as CSR, rows/cols swapped). Within each
  /// transposed row the entries stay in ascending column order. The
  /// runtime's event-driven ops build this once at compile time so a
  /// sparse *input* index selects one contiguous weight row.
  [[nodiscard]] Csr transposed() const;

  /// Event-driven gather over `this` = Wᵀ [in, out]: for each active
  /// input index j (ascending, a subset of rows with x[j] != 0), do
  /// acc[col] += x[j] * value for every nonzero of row j, with double
  /// products/adds. Per output element the contributions accumulate in
  /// ascending j order — the same sequence Csr::spmm_t runs on W
  /// restricted to the nonzero x[j], and skipped zero terms are exact
  /// no-ops on the accumulator — so float(acc) is bitwise identical to
  /// the dense-activation result. `acc` must hold cols() zeros on entry.
  ///
  /// `iacc` (cols() int32 slots, any contents — the kernel zeroes them)
  /// enables the binary-spike fast path on uniform-scale quantised
  /// planes: when every active x[j] == 1.0 the raw codes are summed in
  /// int32 and the shared scale applied once per output, removing the
  /// per-active-input dequantise multiply. Null, non-binary input, or a
  /// per-row-scaled plane all fall back to the general path.
  void spmv_gather(const float* x, const int32_t* active, int64_t n_active,
                   double* acc, int32_t* iacc = nullptr) const;

  /// Scatter one row scaled by x: out[col * out_stride] += value * x for
  /// every nonzero of `row`. Float adds, ascending column order. The
  /// event-driven conv path uses this with `this` = Wᵀ [C*K*K, F],
  /// row = patch column, out_stride = OH*OW.
  void scatter_row(int64_t row, float x, float* out, int64_t out_stride) const;

  /// Direct sparse convolution: `this` is a conv weight W [F, C*K*K]
  /// (Csr::from_weights of [F, C, K, K]) applied to input [M, C, H, W]
  /// with square `kernel` K, `stride` and zero `padding`; returns
  /// [M, F, OH, OW]. There is no patch matrix: for each output plane
  /// (m, f) the kernel walks row f's stored taps (c, ky, kx) in
  /// ascending CSR order and adds v * input over the tap's valid output
  /// rectangle (a contiguous span per output row when stride == 1, a
  /// strided one otherwise). Padding is clipped, never read. Samples
  /// run in blocks whose planes together span about 1024 elements
  /// (one sample per block from 32x32 planes up); a block's planes are
  /// interleaved element by element, so a tap's output row is one span
  /// over all its samples and short rows still vectorise. Each output
  /// element therefore runs the dense im2col GEMM's float mul-then-add
  /// sequence minus pruned and padding terms, which are exact no-ops on
  /// the accumulator, so fp32 results are bitwise identical to
  /// nn::Conv2d::forward. A filter's taps are decoded once per run of
  /// its planes, each with the fp32 value or the dequantised code of a
  /// quantised plane, so a quantised matrix computes exactly what its
  /// dequantize()d copy does. Each sample's planes depend on that
  /// sample's input only, so a batch split into row shards gives the
  /// same bits. Throws std::invalid_argument on a bad shape or geometry.
  [[nodiscard]] tensor::Tensor conv2d(const tensor::Tensor& input, int64_t kernel,
                                      int64_t stride, int64_t padding) const;

  /// C[m, rows] = B * Aᵀ for dense B [m, cols] (the "T" variant; linear
  /// layers: x[M, in] * Wᵀ with W stored CSR [out, in]). On fp32
  /// planes each C row depends on its B row only; on quantised planes
  /// its rounding also depends on the route below (m >= 8 or not) and
  /// on its place in an 8-row panel.
  ///
  /// At kAvx2 (batch m >= 8 and enough nonzeros to amortize it) the
  /// driver first materializes bt = Bᵀ so one broadcast weight serves 8
  /// contiguous batch lanes; fp32 runs two 4-wide double chains whose
  /// per-lane sequence equals the scalar double chain exactly (a
  /// float*float product is exact in double), so fp32 stays bitwise
  /// across tiers. int8/int4 planes take FMA bodies that apply the
  /// per-row scale once per output (quantised execution carries only
  /// the QuantPlane error contract, not bitwise equality).
  [[nodiscard]] tensor::Tensor spmm_t(const tensor::Tensor& b,
                                      util::simd::Tier tier = util::simd::Tier::kAuto) const;

  /// Quantise the value plane in place: int8 or packed-int4 codes with
  /// one symmetric scale per row (zero-point 0). The fp32 value array
  /// is released — the memory win is real, not just accounted — and
  /// every kernel above
  /// transparently dispatches to its quantised variant: conv2d
  /// dequantises once per stored value, spmm_t once per output, the
  /// gather once per active input, instead of once per term. Apart
  /// from conv2d (bitwise equal to the dequantize()d matrix), quantised
  /// kernels carry no bitwise contract: they are free to reassociate
  /// (multi-accumulator float sums) and promise only the QuantPlane
  /// error bound (sum_k (scale_k / 2) * |x_k| per output; see
  /// sparse/quant.hpp).
  /// Returns the max-abs reconstruction error over all values. Throws
  /// std::logic_error when already quantised; no-op returning 0 for
  /// kFp32. transposed() must be called *before* quantize (the runtime
  /// quantises the final execution-orientation structure).
  /// `uniform_scale` shares one plane-wide scale across all rows (see
  /// sparse::quantize_grouped) — what the runtime requests for
  /// event-path gather structures so binary spike batches can take the
  /// int32 fast path in spmv_gather.
  float quantize(Precision precision, bool uniform_scale = false);

  /// Inverse companion of quantize(): materialize the *dequantised*
  /// fp32 values and drop the plane, so the bitwise fp32 kernels above
  /// execute the exact effective weights of the quantised plane
  /// (QAT-style fake-quant evaluation; the differential harness builds
  /// its reference plans this way). No-op when not quantised.
  void dequantize();

  [[nodiscard]] bool quantized() const { return quant_.present(); }
  [[nodiscard]] Precision precision() const { return quant_.precision; }
  [[nodiscard]] const QuantPlane& quant() const { return quant_; }

  [[nodiscard]] int64_t rows() const { return rows_; }
  [[nodiscard]] int64_t cols() const { return cols_; }
  [[nodiscard]] int64_t nnz() const { return static_cast<int64_t>(col_idx_.size()); }
  [[nodiscard]] double sparsity() const;

  /// Storage bytes with `value_bits` per value and `index_bits` per
  /// column index / row pointer (Sec. III-D accounting).
  [[nodiscard]] int64_t storage_bits(int64_t value_bits, int64_t index_bits) const;

  /// Bytes this structure actually occupies right now: indices + row
  /// pointers + the fp32 values or the quantised plane (codes +
  /// scales). The runtime's per-op bytes-touched reporting.
  [[nodiscard]] int64_t memory_bytes() const;

  [[nodiscard]] const std::vector<int64_t>& row_ptr() const { return row_ptr_; }
  [[nodiscard]] const std::vector<int32_t>& col_idx() const { return col_idx_; }
  [[nodiscard]] const std::vector<float>& values() const { return values_; }

 private:
  /// Scalar body of spmm_t (fp32 and quantised): C [m, rows] from B.
  void spmm_t_scalar(const float* bp, int64_t m, float* cp) const;

  int64_t rows_ = 0, cols_ = 0;
  std::vector<int64_t> row_ptr_;
  std::vector<int32_t> col_idx_;
  std::vector<float> values_;
  QuantPlane quant_;
};

}  // namespace ndsnn::sparse
