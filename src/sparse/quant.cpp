#include "sparse/quant.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ndsnn::sparse {

namespace {

/// Signed code magnitude limit per precision. Symmetric mode clamps to
/// [-qmax, qmax] (the -128/-8 slot stays unused so +/- ranges match);
/// affine mode uses the full [qmin, qmax] span.
int qmax_for(Precision p) { return p == Precision::kInt8 ? 127 : 7; }
int qmin_for(Precision p) { return p == Precision::kInt8 ? -128 : -8; }

struct GroupParams {
  float scale = 1.0F;
  int zero = 0;
};

/// Scale/zero-point for one group of values. Real 0.0 always maps to an
/// exact code: symmetric mode by construction (zero == 0), affine mode
/// because the range is widened to include 0 and the zero-point is an
/// integer code.
GroupParams group_params(const float* v, int64_t count, Precision p, bool symmetric) {
  GroupParams gp;
  if (count <= 0) return gp;
  const int qmax = qmax_for(p);
  if (symmetric) {
    float max_abs = 0.0F;
    for (int64_t i = 0; i < count; ++i) max_abs = std::max(max_abs, std::fabs(v[i]));
    gp.scale = max_abs > 0.0F ? max_abs / static_cast<float>(qmax) : 1.0F;
    return gp;
  }
  const int qmin = qmin_for(p);
  float lo = 0.0F, hi = 0.0F;
  for (int64_t i = 0; i < count; ++i) {
    lo = std::min(lo, v[i]);
    hi = std::max(hi, v[i]);
  }
  if (hi == lo) return gp;  // all zeros: scale 1, zero 0
  gp.scale = (hi - lo) / static_cast<float>(qmax - qmin);
  gp.zero = std::clamp(
      static_cast<int>(std::lrintf(static_cast<float>(qmin) - lo / gp.scale)), qmin, qmax);
  return gp;
}

int encode_one(float v, const GroupParams& gp, int qmin, int qmax) {
  return std::clamp(static_cast<int>(std::lrintf(v / gp.scale)) + gp.zero, qmin, qmax);
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
         static_cast<int64_t>(scale.size()) * 4 + static_cast<int64_t>(zero.size());
}

QuantPlane quantize_grouped(const float* values, const int64_t* group_ptr, int64_t groups,
                            Precision precision, bool symmetric, float* max_abs_error,
                            bool uniform_scale) {
  if (precision == Precision::kFp32) {
    throw std::invalid_argument("quantize: kFp32 is the absence of a plane");
  }
  const int64_t value_count = group_ptr[groups];
  QuantPlane plane;
  plane.precision = precision;
  plane.value_count = value_count;
  plane.uniform = uniform_scale;
  // Uniform mode: one scale/zero over the whole plane, replicated per
  // group so kernels keep indexing scale[g] without a special case.
  const GroupParams shared =
      uniform_scale ? group_params(values, value_count, precision, symmetric)
                    : GroupParams{};
  plane.scale.resize(static_cast<std::size_t>(groups));
  plane.zero.resize(static_cast<std::size_t>(groups));
  if (precision == Precision::kInt8) {
    plane.q8.resize(static_cast<std::size_t>(value_count));
  } else {
    plane.q4.assign(static_cast<std::size_t>((value_count + 1) / 2), 0);
  }
  // Symmetric mode keeps the +/- code ranges equal; affine uses the full
  // two's-complement span.
  const int qmax = qmax_for(precision);
  const int qmin = symmetric ? -qmax : qmin_for(precision);
  float worst = 0.0F;
  for (int64_t g = 0; g < groups; ++g) {
    const int64_t lo_k = group_ptr[g];
    const int64_t hi_k = group_ptr[g + 1];
    const GroupParams gp =
        uniform_scale ? shared
                      : group_params(values + lo_k, hi_k - lo_k, precision, symmetric);
    plane.scale[static_cast<std::size_t>(g)] = gp.scale;
    plane.zero[static_cast<std::size_t>(g)] = static_cast<int8_t>(gp.zero);
    for (int64_t k = lo_k; k < hi_k; ++k) {
      const int q = encode_one(values[k], gp, qmin, qmax);
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

float relative_quant_error(const tensor::Tensor& weights, Precision precision,
                           float threshold, bool uniform_scale, int64_t group_size) {
  if (precision == Precision::kFp32 || weights.numel() == 0) return 0.0F;
  if (weights.rank() < 1) return 0.0F;
  const int64_t rows = weights.dim(0);
  if (rows == 0) return 0.0F;
  const int64_t cols = weights.numel() / rows;
  const float* w = weights.data();
  const int qmax = qmax_for(precision);
  if (group_size > 0) {
    // Mirror the emitted plane: surviving entries in row-major order,
    // fixed-size symmetric groups that may straddle row boundaries.
    std::vector<float> kept;
    float global_max = 0.0F;
    for (int64_t i = 0; i < rows * cols; ++i) {
      const float a = std::fabs(w[i]);
      if (a > threshold) {
        kept.push_back(w[i]);
        global_max = std::max(global_max, a);
      }
    }
    if (kept.empty() || global_max == 0.0F) return 0.0F;
    double err_sum = 0.0;
    const auto n = static_cast<int64_t>(kept.size());
    for (int64_t g0 = 0; g0 < n; g0 += group_size) {
      const int64_t g1 = std::min(n, g0 + group_size);
      float gmax = 0.0F;
      for (int64_t i = g0; i < g1; ++i) gmax = std::max(gmax, std::fabs(kept[i]));
      if (gmax == 0.0F) continue;
      const float scale = gmax / static_cast<float>(qmax);
      for (int64_t i = g0; i < g1; ++i) {
        const int q =
            std::clamp(static_cast<int>(std::lrintf(kept[i] / scale)), -qmax, qmax);
        err_sum += std::fabs(scale * static_cast<float>(q) - kept[i]);
      }
    }
    return static_cast<float>(err_sum / static_cast<double>(n)) / global_max;
  }
  float global_max = 0.0F;
  if (uniform_scale) {
    for (int64_t i = 0; i < rows * cols; ++i) {
      const float a = std::fabs(w[i]);
      if (a > threshold) global_max = std::max(global_max, a);
    }
    if (global_max == 0.0F) return 0.0F;
  }
  float worst = 0.0F;
  for (int64_t r = 0; r < rows; ++r) {
    const float* row = w + r * cols;
    float row_max = 0.0F;
    for (int64_t c = 0; c < cols; ++c) {
      const float a = std::fabs(row[c]);
      if (a > threshold) row_max = std::max(row_max, a);
    }
    if (row_max == 0.0F) continue;
    global_max = std::max(global_max, row_max);
    const float scale = (uniform_scale ? global_max : row_max) / static_cast<float>(qmax);
    for (int64_t c = 0; c < cols; ++c) {
      if (std::fabs(row[c]) <= threshold) continue;
      const int q = std::clamp(static_cast<int>(std::lrintf(row[c] / scale)), -qmax, qmax);
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
    const GroupParams gp = group_params(row, cols, precision, /*symmetric=*/true);
    scales[static_cast<std::size_t>(r)] = gp.scale;
    for (int64_t c = 0; c < cols; ++c) {
      row[c] = gp.scale * static_cast<float>(encode_one(row[c], gp, -qmax, qmax));
    }
  }
  return scales;
}

}  // namespace ndsnn::sparse
