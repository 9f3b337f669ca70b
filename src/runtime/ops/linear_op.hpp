// LinearOp: fully-connected weight op of the compiled plan.
//
// Dense-activation path: CSR spmm_t or matmul_nt over the whole input
// matrix. Event path: scan the input for its active (nonzero) features
// (SpikeBatch::rescan), then per input row gather only those through Wᵀ
// held as CSR (sparse::Csr::spmv_gather) into per-output double
// accumulators — the identical ascending-index double accumulation the
// dense paths run, restricted to the terms that are not exact no-ops,
// so both paths agree bitwise.
#pragma once

#include <string>

#include "nn/linear.hpp"
#include "runtime/compiled_network.hpp"
#include "runtime/plan.hpp"

namespace ndsnn::runtime {

class LinearOp final : public Op {
 public:
  /// `precision` != kFp32 quantises the CSR value plane with one scale
  /// per stored row (see WeightStore); ignored for a layer picked for
  /// the dense kernel. See sparse::Csr::quantize for the error contract
  /// the quantised kernels carry instead of bitwise equality.
  LinearOp(const nn::Linear& src, Kernel kernel, sparse::Precision precision, bool event,
           const CompileOptions& opts);

  void run_into(const Activation& input, Activation& out) const override;
  [[nodiscard]] OpReport report() const override;

 private:
  [[nodiscard]] tensor::Tensor run_dense(const tensor::Tensor& input) const;
  void run_event(const tensor::Tensor& input, tensor::Tensor& out) const;

  std::string layer_name_;
  /// Kernel tier fixed at construction (util::simd::active()), so a
  /// later force() never shifts a compiled plan's dispatch.
  util::simd::Tier tier_;
  bool event_;
  bool has_bias_;
  int64_t in_features_, out_features_;
  int64_t weights_;
  double source_sparsity_;
  WeightStore store_;  // W [out, in], or Wᵀ [in, out] on the event path
  tensor::Tensor bias_;
};

}  // namespace ndsnn::runtime
