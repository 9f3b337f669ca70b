// ConvOp: 2-D convolution weight op of the compiled plan.
//
// Dense-activation path: CSR runs sparse::Csr::conv2d, a direct sparse
// convolution that walks each filter's stored taps over input spans and
// writes the [N, F, OH, OW] output with no patch matrix, for fp32 and
// quantised planes alike. Dense runs tensor::conv2d_gemm, the
// cache-blocked patch GEMM of nn::Conv2d::forward, with its bits. Event
// path, whatever the kernel: scan the input for its active (nonzero)
// pixels (SpikeBatch::rescan), and for each one enumerate the kernel
// offsets it reaches (the im2col mapping evaluated on the fly) and
// scatter value * Wᵀ[patch-column], held as CSR, into the output plane
// (sparse::Csr::scatter_row). Every path accumulates
// each output element over ascending patch-column index in float
// mul-then-add steps, and skipped zero terms (silent pixels, pruned
// weights) are exact no-ops on an accumulator that starts at +0:
// bitwise identical.
#pragma once

#include <string>

#include "nn/conv2d.hpp"
#include "runtime/compiled_network.hpp"
#include "runtime/plan.hpp"

namespace ndsnn::runtime {

class ConvOp final : public Op {
 public:
  /// `precision` mirrors LinearOp: quantises the CSR value plane on the
  /// stored orientation; ignored for a layer picked for the dense kernel.
  ConvOp(const nn::Conv2d& src, Kernel kernel, sparse::Precision precision, bool event,
         const CompileOptions& opts);

  void run_into(const Activation& input, Activation& out, OpState* carry) const override;
  [[nodiscard]] OpReport report() const override;

 private:
  void run_dense(const tensor::Tensor& input, tensor::Tensor& out) const;
  void run_event(const tensor::Tensor& input, tensor::Tensor& out) const;

  std::string layer_name_;
  /// Kernel tier resolved once at construction (see LinearOp::tier_).
  util::simd::Tier tier_;
  bool event_;
  bool has_bias_;
  int64_t in_channels_, out_channels_, kernel_, stride_, padding_;
  int64_t weights_;
  double source_sparsity_;
  WeightStore store_;  // W [F, CKK], or Wᵀ [CKK, F] on the event path
  tensor::Tensor bias_;
};

}  // namespace ndsnn::runtime
