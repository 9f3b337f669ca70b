// Quantised value planes for the sparse execution format (Sec. III-D).
//
// Csr::storage_bits has always *accounted* 8/4-bit weight storage; this
// module makes the runtime actually execute it. A QuantPlane replaces
// the fp32 value array of a Csr with int8 codes (or two packed int4
// codes per byte) plus one scale/zero-point per *group* — a CSR row by
// default — so the kernels touch 4x/8x fewer value bytes and
// dequantise once per output or per stored value, never once per term.
//
// Zero-point convention: real 0.0 always maps to an exact code
// (q == zero), so explicitly stored zeros decode back to exact zeros
// in every mode. The default symmetric mode pins zero == 0, which
// is what the runtime's compile pass emits (weights are near-symmetric
// and a nonzero zero-point costs a second accumulator per output); the
// affine mode is kept for round-trip generality and is exercised by the
// unit tests.
//
// Error contract: with per-group scale s, every reconstructed value is
// within s/2 of its fp32 source, so any quantised kernel output differs
// from its fp32 counterpart by at most sum_k (s_k / 2) * |x_k| over the
// terms it accumulates. tests/sparse/quant_test.cpp asserts exactly
// this bound; the runtime-level tolerances derived from it are
// documented in README.md (runtime precision section).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace ndsnn::sparse {

/// Bit width of a value plane. kFp32 means "no quantisation".
enum class Precision : uint8_t { kFp32 = 0, kInt8 = 1, kInt4 = 2 };

[[nodiscard]] const char* precision_tag(Precision p);     // "fp32" | "int8" | "int4"
[[nodiscard]] int64_t precision_value_bits(Precision p);  // 32 | 8 | 4

/// Parse "fp32" / "int8" / "int4" (CLI surface). Throws
/// std::invalid_argument on anything else.
[[nodiscard]] Precision parse_precision(const std::string& s);

/// Quantised value array: `value_count` codes grouped into contiguous
/// runs that share one scale/zero-point (group g of a Csr is row g).
/// int8 codes live in q8; int4 codes are
/// packed two per byte in q4 (value k in byte k/2, even k in the low
/// nibble), sign-extended from [-8, 7].
struct QuantPlane {
  Precision precision = Precision::kFp32;
  int64_t value_count = 0;
  std::vector<int8_t> q8;
  std::vector<uint8_t> q4;
  std::vector<float> scale;  ///< one per group
  std::vector<int8_t> zero;  ///< one per group (all 0 in symmetric mode)
  /// True when every group shares one plane-wide scale/zero-point
  /// (still replicated per group so kernels index scale[g] uniformly).
  /// This is what licenses the binary-spike gather fast path: with a
  /// j-independent scale, {0,1} activations let spmv_gather sum raw
  /// codes in int32 and dequantise once per output.
  bool uniform = false;
  /// > 0: the groups are fixed-size runs of this many codes over the
  /// value array (power of two; group of value k is k >> log2(size),
  /// crossing row boundaries), finer than the structural per-row
  /// grouping — the CompileOptions::quant_group_size scheme that lets
  /// int4 localize its scales. Grouped planes are always symmetric
  /// (every zero-point 0), so kernels fold scale[k >> shift] straight
  /// into the code. 0 means structural groups (dequant's `group`
  /// argument indexes scale/zero directly). Mutually exclusive with
  /// `uniform`.
  int64_t group_size = 0;

  [[nodiscard]] bool present() const { return precision != Precision::kFp32; }

  /// log2(group_size) when the plane is fixed-size grouped, else -1 —
  /// the shift the hot kernels hoist out of their loops.
  [[nodiscard]] int group_shift() const {
    if (group_size <= 0) return -1;
    int s = 0;
    while ((int64_t{1} << s) < group_size) ++s;
    return s;
  }

  /// Raw signed code of value k (int8 or sign-extended int4).
  [[nodiscard]] int8_t code(int64_t k) const {
    if (precision == Precision::kInt8) return q8[static_cast<std::size_t>(k)];
    const uint8_t byte = q4[static_cast<std::size_t>(k >> 1)];
    const auto nibble = static_cast<uint8_t>((k & 1) != 0 ? byte >> 4 : byte & 0xF);
    return static_cast<int8_t>(static_cast<int8_t>(nibble << 4) >> 4);
  }

  /// Reconstructed fp32 value of value k in group g. On a fixed-size
  /// grouped plane the group is derived from k and the argument is
  /// ignored, so per-row callers stay correct unchanged.
  [[nodiscard]] float dequant(int64_t group, int64_t k) const {
    const auto g = static_cast<std::size_t>(group_size > 0 ? k / group_size : group);
    return scale[g] * static_cast<float>(static_cast<int>(code(k)) - static_cast<int>(zero[g]));
  }

  /// Bytes this plane actually occupies (codes + scales + zero-points).
  [[nodiscard]] int64_t memory_bytes() const;
};

/// Quantise `values` into groups bounded by `group_ptr` (group g covers
/// [group_ptr[g], group_ptr[g+1]); the Csr row_ptr layout). Symmetric
/// mode uses scale = max|v| / qmax and zero = 0; affine mode maps
/// [min(v, 0), max(v, 0)] onto the signed code range with a zero-point.
/// `max_abs_error`, when non-null, receives the largest |dequant - v|.
/// With `uniform_scale` every group takes one plane-wide scale/zero
/// (computed over all values, replicated per group, QuantPlane::uniform
/// set): the per-value error bound becomes scale/2 with
/// scale = global max|v| / qmax — the same 1/(2*qmax) bound *relative
/// to the global max* that per-group scaling gives, traded for the
/// int32 binary-spike gather fast path.
[[nodiscard]] QuantPlane quantize_grouped(const float* values, const int64_t* group_ptr,
                                          int64_t groups, Precision precision,
                                          bool symmetric = true,
                                          float* max_abs_error = nullptr,
                                          bool uniform_scale = false);

/// Largest |dequant(quant(w)) - w| over the entries with |w| > threshold
/// of the lowered [dim(0), numel/dim(0)] weight tensor, quantised with
/// one symmetric scale per lowered row, divided by the global max |w|
/// (0 when the tensor has no surviving entry, or for kFp32). This is
/// the measurement the runtime's precision heuristic bounds: per-row
/// symmetric int8 lands near 1/254 ~ 0.4%, int4 near 1/14 ~ 7%.
/// `uniform_scale` measures one plane-wide scale instead (the scheme
/// the event-path gather structures actually build): same 1/(2*qmax)
/// worst case, but the *measured* value can sit anywhere under it, so
/// the heuristic must measure the scheme it will emit.
///
/// `group_size` > 0 measures the fixed-size-group scheme instead
/// (QuantPlane::group_size): surviving entries taken in row-major order,
/// chunked into `group_size`-wide symmetric groups exactly as
/// Csr::quantize will emit them. The reported statistic becomes the
/// *mean* |dequant - w| / global max |w| rather than the max: whichever
/// group contains the global max keeps the structural 1/(2*qmax) worst
/// case, so the max statistic could never drop below the per-row
/// floor no matter how fine the groups — the mean is what grouping
/// actually improves, and is what the auto-precision bound compares
/// when a group size is configured.
[[nodiscard]] float relative_quant_error(const tensor::Tensor& weights, Precision precision,
                                         float threshold = 0.0F,
                                         bool uniform_scale = false,
                                         int64_t group_size = 0);

/// Quantise-dequantise the tensor in place with one symmetric scale per
/// lowered row — the exact transformation Csr::quantize applies to the
/// values it stores (zeros are fixed points). Re-quantising the result
/// reproduces the same codes, which is what lets the differential
/// harness compare quantised plans against fp32 plans of a
/// fake-quantised network. Returns the per-row scales (the checkpoint
/// v3 record stores them).
std::vector<float> fake_quantize_rows(tensor::Tensor& weights, Precision precision);

}  // namespace ndsnn::sparse
