#include "sparse/quant.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ndsnn::sparse {

namespace {

/// Signed code magnitude limit per precision. Codes are clamped to
/// [-qmax, qmax] (the -128/-8 slot stays unused so +/- ranges match).
int qmax_for(Precision p) { return p == Precision::kInt8 ? 127 : 7; }

/// Symmetric scale for one group of values: max|v| / qmax, or 1 for an
/// all-zero group. Real 0.0 always encodes as code 0.
float group_scale(const float* v, int64_t count, Precision p) {
  float max_abs = 0.0F;
  for (int64_t i = 0; i < count; ++i) max_abs = std::max(max_abs, std::fabs(v[i]));
  return max_abs > 0.0F ? max_abs / static_cast<float>(qmax_for(p)) : 1.0F;
}

int encode_one(float v, float scale, int qmax) {
  return std::clamp(static_cast<int>(std::lrintf(v / scale)), -qmax, qmax);
}

}  // namespace

const char* precision_tag(Precision p) {
  switch (p) {
    case Precision::kFp32: return "fp32";
    case Precision::kInt8: return "int8";
    case Precision::kInt4: return "int4";
  }
  return "?";
}

int64_t precision_value_bits(Precision p) {
  switch (p) {
    case Precision::kFp32: return 32;
    case Precision::kInt8: return 8;
    case Precision::kInt4: return 4;
  }
  return 32;
}

Precision parse_precision(const std::string& s) {
  if (s == "fp32") return Precision::kFp32;
  if (s == "int8") return Precision::kInt8;
  if (s == "int4") return Precision::kInt4;
  throw std::invalid_argument("parse_precision: expected fp32|int8|int4, got '" + s + "'");
}

int64_t QuantPlane::memory_bytes() const {
  return static_cast<int64_t>(q8.size()) + static_cast<int64_t>(q4.size()) +
         static_cast<int64_t>(scale.size()) * 4;
}

QuantPlane quantize_grouped(const float* values, const int64_t* group_ptr, int64_t groups,
                            Precision precision, float* max_abs_error) {
  if (precision == Precision::kFp32) {
    throw std::invalid_argument("quantize: kFp32 is the absence of a plane");
  }
  const int64_t value_count = group_ptr[groups];
  QuantPlane plane;
  plane.precision = precision;
  plane.value_count = value_count;
  plane.scale.resize(static_cast<std::size_t>(groups));
  if (precision == Precision::kInt8) {
    plane.q8.resize(static_cast<std::size_t>(value_count));
  } else {
    plane.q4.assign(static_cast<std::size_t>((value_count + 1) / 2), 0);
  }
  const int qmax = qmax_for(precision);
  float worst = 0.0F;
  for (int64_t g = 0; g < groups; ++g) {
    const int64_t lo_k = group_ptr[g];
    const int64_t hi_k = group_ptr[g + 1];
    const float scale = group_scale(values + lo_k, hi_k - lo_k, precision);
    plane.scale[static_cast<std::size_t>(g)] = scale;
    for (int64_t k = lo_k; k < hi_k; ++k) {
      const int q = encode_one(values[k], scale, qmax);
      if (precision == Precision::kInt8) {
        plane.q8[static_cast<std::size_t>(k)] = static_cast<int8_t>(q);
      } else {
        const auto nibble = static_cast<uint8_t>(q & 0xF);
        auto& byte = plane.q4[static_cast<std::size_t>(k >> 1)];
        byte = (k & 1) != 0 ? static_cast<uint8_t>((byte & 0x0F) | (nibble << 4))
                            : static_cast<uint8_t>((byte & 0xF0) | nibble);
      }
      if (max_abs_error != nullptr) {
        worst = std::max(worst, std::fabs(plane.dequant(g, k) - values[k]));
      }
    }
  }
  if (max_abs_error != nullptr) *max_abs_error = worst;
  return plane;
}

float relative_quant_error(const tensor::Tensor& weights, Precision precision) {
  if (precision == Precision::kFp32 || weights.numel() == 0) return 0.0F;
  if (weights.rank() < 1) return 0.0F;
  const int64_t rows = weights.dim(0);
  if (rows == 0) return 0.0F;
  const int64_t cols = weights.numel() / rows;
  const float* w = weights.data();
  const int qmax = qmax_for(precision);
  float global_max = 0.0F;
  float worst = 0.0F;
  for (int64_t r = 0; r < rows; ++r) {
    const float* row = w + r * cols;
    float row_max = 0.0F;
    for (int64_t c = 0; c < cols; ++c) {
      const float a = std::fabs(row[c]);
      if (a > 0.0F) row_max = std::max(row_max, a);
    }
    if (row_max == 0.0F) continue;
    global_max = std::max(global_max, row_max);
    const float scale = row_max / static_cast<float>(qmax);
    for (int64_t c = 0; c < cols; ++c) {
      if (std::fabs(row[c]) <= 0.0F) continue;
      const int q = encode_one(row[c], scale, qmax);
      worst = std::max(worst, std::fabs(scale * static_cast<float>(q) - row[c]));
    }
  }
  return global_max > 0.0F ? worst / global_max : 0.0F;
}

std::vector<float> fake_quantize_rows(tensor::Tensor& weights, Precision precision) {
  const int64_t rows = weights.rank() >= 1 ? weights.dim(0) : 1;
  std::vector<float> scales(static_cast<std::size_t>(rows), 1.0F);
  if (precision == Precision::kFp32 || weights.numel() == 0 || rows == 0) return scales;
  const int64_t cols = weights.numel() / rows;
  const int qmax = qmax_for(precision);
  float* w = weights.data();
  for (int64_t r = 0; r < rows; ++r) {
    float* row = w + r * cols;
    const float scale = group_scale(row, cols, precision);
    scales[static_cast<std::size_t>(r)] = scale;
    for (int64_t c = 0; c < cols; ++c) {
      row[c] = scale * static_cast<float>(encode_one(row[c], scale, qmax));
    }
  }
  return scales;
}

}  // namespace ndsnn::sparse
