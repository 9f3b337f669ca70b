// Quantised value planes for the sparse execution format (Sec. III-D).
//
// Csr::storage_bits has always *accounted* 8/4-bit weight storage; this
// module makes the runtime actually execute it. A QuantPlane replaces
// the fp32 value array of a Csr with int8 codes (or two packed int4
// codes per byte) plus one scale per *group* — a CSR row — so the
// kernels touch 4x/8x fewer value bytes and dequantise once per output
// or per stored value, never once per term.
//
// There is one scheme: symmetric codes (the zero-point is always 0, so
// real 0.0 encodes exactly and stored zeros decode back to exact zeros)
// with one scale per row of the stored orientation (W for the
// dense-activation kernels, Wᵀ for the event path).
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
/// runs that share one scale (group g of a Csr is row g).
/// int8 codes live in q8; int4 codes are
/// packed two per byte in q4 (value k in byte k/2, even k in the low
/// nibble), sign-extended from [-8, 7].
struct QuantPlane {
  Precision precision = Precision::kFp32;
  int64_t value_count = 0;
  std::vector<int8_t> q8;
  std::vector<uint8_t> q4;
  std::vector<float> scale;  ///< one per group

  [[nodiscard]] bool present() const { return precision != Precision::kFp32; }

  /// Raw signed code of value k (int8 or sign-extended int4).
  [[nodiscard]] int8_t code(int64_t k) const {
    if (precision == Precision::kInt8) return q8[static_cast<std::size_t>(k)];
    const uint8_t byte = q4[static_cast<std::size_t>(k >> 1)];
    const auto nibble = static_cast<uint8_t>((k & 1) != 0 ? byte >> 4 : byte & 0xF);
    return static_cast<int8_t>(static_cast<int8_t>(nibble << 4) >> 4);
  }

  /// Reconstructed fp32 value of value k in group g.
  [[nodiscard]] float dequant(int64_t group, int64_t k) const {
    return scale[static_cast<std::size_t>(group)] * static_cast<float>(code(k));
  }

  /// Bytes this plane actually occupies (codes + scales).
  [[nodiscard]] int64_t memory_bytes() const;
};

/// Quantise `values` into groups bounded by `group_ptr` (group g covers
/// [group_ptr[g], group_ptr[g+1]); the Csr row_ptr layout) with
/// scale = max|v| / qmax and codes clamped to [-qmax, qmax].
/// `max_abs_error`, when non-null, receives the largest |dequant - v|.
[[nodiscard]] QuantPlane quantize_grouped(const float* values, const int64_t* group_ptr,
                                          int64_t groups, Precision precision,
                                          float* max_abs_error = nullptr);

/// Largest |dequant(quant(w)) - w| over the nonzero entries of the
/// lowered [dim(0), numel/dim(0)] weight tensor, quantised with
/// one symmetric scale per lowered row, divided by the global max |w|
/// (0 when the tensor has no surviving entry, or for kFp32). This is
/// the measurement the runtime's precision heuristic bounds: per-row
/// symmetric int8 lands near 1/254 ~ 0.4%, int4 near 1/14 ~ 7%.
[[nodiscard]] float relative_quant_error(const tensor::Tensor& weights, Precision precision);

/// Quantise-dequantise the tensor in place with one symmetric scale per
/// lowered row — the exact transformation Csr::quantize applies to the
/// values it stores (zeros are fixed points). Re-quantising the result
/// reproduces the same codes, which is what lets the differential
/// harness compare quantised plans against fp32 plans of a
/// fake-quantised network. Returns the per-row scales (the checkpoint
/// v3 record stores them).
std::vector<float> fake_quantize_rows(tensor::Tensor& weights, Precision precision);

}  // namespace ndsnn::sparse
