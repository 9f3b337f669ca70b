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
// Both take a util::ThreadPool (null runs inline, as every plan op
// passes). The forward splits its sample blocks over the lanes; the
// weight gradient splits its entries, by 16-row tiles of patch rows and,
// when those are too few, by pairs of filters, and each lane stages only
// the input channels its rows read. No lane ever takes part of an
// entry's chain, so either result is bitwise the serial one.
#pragma once

#include "tensor/im2col.hpp"
#include "tensor/tensor.hpp"
#include "util/cpuinfo.hpp"
#include "util/thread_pool.hpp"

namespace ndsnn::tensor {

/// Patch bytes staged per block, so a block stays in L2.
inline constexpr int64_t kConvStageBytes = 256 * 1024;

/// Multiply-adds per lane below which a conv GEMM runs inline: waking a
/// pool's lanes (~20 us on a 4-vCPU Xeon) costs about what 256 K
/// vectorised ones take. One lane of LeNet-5's conv1 forward at batch 32,
/// T = 2 does 7.4 M.
inline constexpr int64_t kConvGrainMacs = 256 * 1024;

/// Whole samples per staged block of geometry g: as many as fit
/// kConvStageBytes, at least one.
[[nodiscard]] int64_t conv_block_samples(const ConvGeometry& g);

/// out [N, F, OH, OW] = wmat [F, C*KH*KW] * im2col(input, g), without
/// bias. `out` (not `input`) is reshaped with Tensor::assign_shape, so a
/// buffer kept across calls is written in place; every element is
/// written.
void conv2d_gemm(const Tensor& input, const Tensor& wmat, const ConvGeometry& g, Tensor& out,
                 util::ThreadPool* pool, util::simd::Tier tier = util::simd::Tier::kAuto);

/// dw [F, C*KH*KW] += gy * im2col(input, g)ᵀ, where grad_output
/// [N, F, OH, OW] is read as gy [F, N*OH*OW]. With a keep mask
/// (row-major, dw's shape) only the kept entries are computed and added.
void conv2d_weight_grad(const Tensor& grad_output, const Tensor& input, const ConvGeometry& g,
                        const uint8_t* keep, Tensor& dw, util::ThreadPool* pool,
                        util::simd::Tier tier = util::simd::Tier::kAuto);

}  // namespace ndsnn::tensor
