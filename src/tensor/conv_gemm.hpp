// Cache-blocked convolution GEMMs.
//
// The conv forward, its weight gradient and the compiled plan's dense conv
// all run as GEMMs over the patch matrix of tensor::im2col, but none of
// them builds it. They stage the patch columns of a block of whole
// samples, as many as fit kConvStageBytes (at least one), in buffers of
// the calling thread, run the GEMM on that block while it sits in L2, and
// move on. A one-sample block at stride 1 is not even copied out: its
// patch rows are read in place from KW shifted copies of the padded
// input. The result is bitwise the whole-matrix GEMM's:
// - forward: each output element is matmul's float chain over ascending
//   patch row; a block of several samples (small output planes) runs as
//   one GEMM over all its columns, then is copied to [N, F, OH, OW];
// - weight gradient: each entry is matmul_nt_acc's double chain over
//   ascending column of the whole patch matrix, carried from block to
//   block by tensor::NtChains and rounded once at the end (only the kept
//   entries under a keep mask, as matmul_nt_masked_acc). The output
//   gradient is read in place, sample by sample.
#pragma once

#include "tensor/im2col.hpp"
#include "tensor/tensor.hpp"
#include "util/cpuinfo.hpp"

namespace ndsnn::tensor {

/// Patch bytes staged per block, so a block stays in L2.
inline constexpr int64_t kConvStageBytes = 256 * 1024;

/// Whole samples per staged block of geometry g: as many as fit
/// kConvStageBytes, at least one.
[[nodiscard]] int64_t conv_block_samples(const ConvGeometry& g);

/// out [N, F, OH, OW] = wmat [F, C*KH*KW] * im2col(input, g), without
/// bias. `out` (not `input`) is reshaped with Tensor::assign_zeros, so a
/// buffer kept across calls is written in place.
void conv2d_gemm(const Tensor& input, const Tensor& wmat, const ConvGeometry& g, Tensor& out,
                 util::simd::Tier tier = util::simd::Tier::kAuto);

/// dw [F, C*KH*KW] += gy * im2col(input, g)ᵀ, where grad_output
/// [N, F, OH, OW] is read as gy [F, N*OH*OW]. With a keep mask
/// (row-major, dw's shape) only the kept entries are computed and added.
void conv2d_weight_grad(const Tensor& grad_output, const Tensor& input, const ConvGeometry& g,
                        const uint8_t* keep, Tensor& dw,
                        util::simd::Tier tier = util::simd::Tier::kAuto);

}  // namespace ndsnn::tensor
