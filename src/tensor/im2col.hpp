// im2col / col2im lowering for 2-D convolution.
//
// The lowering that defines a conv as a GEMM over the patch matrix:
//   X [N, C, H, W]  -- im2col -->  cols [C*KH*KW, N*OH*OW]
//   W [F, C*KH*KW]  * cols  ->  Y [F, N*OH*OW]  -> reshape [N, F, OH, OW]
// col2im is its adjoint. The whole-batch im2col and col2im are reference
// lowerings, run by tests only: no conv kernel builds the whole patch
// matrix. The conv GEMMs (conv_gemm.hpp) stage the patch columns of a
// cache-sized block of samples themselves, and the training input
// gradient scatters one patch row of one sample at a time with
// col2im_row_add.
#pragma once

#include "tensor/tensor.hpp"

namespace ndsnn::tensor {

/// Geometry of a conv2d application.
struct ConvGeometry {
  int64_t batch = 0;
  int64_t in_channels = 0;
  int64_t in_h = 0, in_w = 0;
  int64_t kernel_h = 0, kernel_w = 0;
  int64_t stride = 1;
  int64_t padding = 0;

  [[nodiscard]] int64_t out_h() const { return (in_h + 2 * padding - kernel_h) / stride + 1; }
  [[nodiscard]] int64_t out_w() const { return (in_w + 2 * padding - kernel_w) / stride + 1; }
  /// Rows of the patch matrix: C*KH*KW.
  [[nodiscard]] int64_t patch_rows() const { return in_channels * kernel_h * kernel_w; }
  /// Cols of the patch matrix: N*OH*OW.
  [[nodiscard]] int64_t patch_cols() const { return batch * out_h() * out_w(); }

  /// Throws when kernel/stride/padding are inconsistent with the input.
  void validate() const;

  /// The geometry of a square `kernel` over input [N, C, H, W] (not
  /// validated).
  [[nodiscard]] static ConvGeometry of(const Tensor& input, int64_t kernel, int64_t stride,
                                       int64_t padding);
};

/// Lower input [N, C, H, W] into the patch matrix [C*KH*KW, N*OH*OW]
/// (reference lowering).
[[nodiscard]] Tensor im2col(const Tensor& input, const ConvGeometry& g);

/// Adjoint of im2col: scatter-add patch matrix back to [N, C, H, W]
/// (reference lowering).
[[nodiscard]] Tensor col2im(const Tensor& cols, const ConvGeometry& g);

/// col2im of one patch row of one sample: scatter-add `row_values` (the
/// sample's OH*OW values of row `row` of the patch matrix) into its
/// [C, H, W] planes at `sample`. Calling it for the rows in ascending
/// order gives every pixel its adds in col2im's order; a row that is all
/// zeros may be skipped (its adds of +0 change no pixel, whose sum starts
/// at +0). Samples are independent.
void col2im_row_add(const float* row_values, const ConvGeometry& g, int64_t row, float* sample);

}  // namespace ndsnn::tensor
