// Elementwise and reduction operations on Tensor.
//
// Free functions, out-of-place unless suffixed `_` (PyTorch-style in-place
// marker). Shape mismatches throw std::invalid_argument.
#pragma once

#include <functional>
#include <vector>

#include "tensor/tensor.hpp"

namespace ndsnn::tensor {

/// c = a + b
[[nodiscard]] Tensor add(const Tensor& a, const Tensor& b);
/// c = a - b
[[nodiscard]] Tensor sub(const Tensor& a, const Tensor& b);
/// c = a * b (Hadamard)
[[nodiscard]] Tensor mul(const Tensor& a, const Tensor& b);
/// c = a * s
[[nodiscard]] Tensor scale(const Tensor& a, float s);

/// a += b
void add_(Tensor& a, const Tensor& b);
/// a -= b
void sub_(Tensor& a, const Tensor& b);
/// a *= b (Hadamard)
void mul_(Tensor& a, const Tensor& b);
/// a *= s
void scale_(Tensor& a, float s);
/// a += s * b  (axpy)
void axpy_(Tensor& a, float s, const Tensor& b);

/// Apply `fn` to each element, out-of-place.
[[nodiscard]] Tensor map(const Tensor& a, const std::function<float(float)>& fn);
/// Apply `fn` in place.
void map_(Tensor& a, const std::function<float(float)>& fn);

/// out[r, c] += bias[c] for a [M, C] matrix: one contiguous row-pointer
/// sweep per row (shared by nn::Linear and the sparse inference runtime).
void add_row_bias_(Tensor& out, const Tensor& bias);

/// out[m, c, h, w] += bias[c] for a [M, C, H, W] activation: each (m, c)
/// plane gets one constant added in a single contiguous sweep (shared by
/// nn::Conv2d and the sparse inference runtime).
void add_channel_bias_(Tensor& out, const Tensor& bias);

/// Row-wise softmax of a [N, C] matrix (numerically stabilized).
[[nodiscard]] Tensor softmax_rows(const Tensor& logits);

/// argmax over each row of a [N, C] matrix -> N indices.
[[nodiscard]] std::vector<int64_t> argmax_rows(const Tensor& m);

/// Rows [lo, hi) of a [N, ...] tensor (along dim 0) as their own tensor.
[[nodiscard]] Tensor slice_rows(const Tensor& t, int64_t lo, int64_t hi);

/// Stack [n_i, ...] tensors of one trailing shape along dim 0.
[[nodiscard]] Tensor concat_rows(const std::vector<const Tensor*>& parts);

/// Mean of all elements.
[[nodiscard]] double mean(const Tensor& a);

/// L2 norm of all elements.
[[nodiscard]] double l2_norm(const Tensor& a);

/// Throws unless a and b share a shape.
void check_same_shape(const Tensor& a, const Tensor& b, const char* op);

}  // namespace ndsnn::tensor
