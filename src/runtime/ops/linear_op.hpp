// LinearOp: fully-connected weight op of the compiled plan.
//
// Dense-activation path: CSR spmm_t or matmul_nt over the whole input
// matrix. Event path: per input row, gather only the active (nonzero)
// input features through the transposed weight structure
// (sparse::Csr::spmv_gather, or contiguous Wᵀ rows for the dense
// kernel) into per-output double accumulators — the identical
// ascending-index double accumulation the dense paths run, restricted
// to the terms that are not exact no-ops, so both paths agree bitwise.
#pragma once

#include <string>

#include "nn/linear.hpp"
#include "runtime/compiled_network.hpp"
#include "runtime/plan.hpp"
#include "sparse/csr.hpp"

namespace ndsnn::runtime {

class LinearOp final : public Op {
 public:
  /// `precision` != kFp32 quantises the value plane of the chosen
  /// sparse structure; ignored for the dense kernel. Dense-activation
  /// structures keep per-row scales; the event path quantises Wᵀ with
  /// one *uniform* plane-wide scale so binary spike batches take the
  /// int32 code-summing gather (see sparse::Csr::spmv_gather). See
  /// sparse::Csr::quantize for the error contract the quantised kernels
  /// carry instead of bitwise equality.
  LinearOp(const nn::Linear& src, Kernel kernel, sparse::Precision precision, bool event,
           const CompileOptions& opts);

  [[nodiscard]] Activation run(const Activation& input) const override;
  [[nodiscard]] OpReport report() const override;

 private:
  [[nodiscard]] tensor::Tensor run_dense(const tensor::Tensor& input) const;
  [[nodiscard]] tensor::Tensor run_event(const Activation& input) const;

  std::string layer_name_;
  Kernel kernel_;
  /// Kernel tier fixed at construction (util::simd::active()), so a
  /// later force() never shifts a compiled plan's dispatch.
  util::simd::Tier tier_;
  sparse::Precision precision_;
  int64_t bytes_ = 0;
  bool event_;
  bool has_bias_;
  int64_t in_features_, out_features_;
  int64_t weights_;
  int64_t stored_;
  double source_sparsity_;
  sparse::Csr csr_;      // W [out, in], dense-activation kCsr
  tensor::Tensor dense_; // W [out, in], dense-activation kDense
  sparse::Csr csr_t_;    // Wᵀ [in, out], event kCsr
  tensor::Tensor dense_t_;  // Wᵀ [in, out], event kDense
  tensor::Tensor bias_;
};

}  // namespace ndsnn::runtime
