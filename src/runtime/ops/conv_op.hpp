// ConvOp: 2-D convolution weight op of the compiled plan.
//
// Dense-activation path: im2col then CSR/dense GEMM, identical to
// nn::Conv2d::forward with the GEMM swapped. Event path: no patch
// matrix at all — for each active (nonzero) input pixel, enumerate the
// kernel offsets it reaches (the im2col mapping evaluated on the fly)
// and scatter value * Wᵀ[patch-column] into the output plane
// (sparse::Csr::scatter_row). For any fixed output element the
// active pixels arrive in ascending patch-column order, so the float
// accumulation sequence equals the dense paths' minus exact-zero terms:
// bitwise identical.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/conv2d.hpp"
#include "runtime/compiled_network.hpp"
#include "runtime/plan.hpp"
#include "sparse/csr.hpp"
#include "util/thread_pool.hpp"

namespace ndsnn::runtime {

class ConvOp final : public Op {
 public:
  /// `precision` mirrors LinearOp: quantises the sparse value plane on
  /// the execution orientation; ignored for the dense kernel.
  /// `pool` (null = serial) is the plan's shared intra-op pool: the
  /// dense-activation path partitions the GEMM by output row (filter),
  /// the event path partitions the scatter by *output channel* — each
  /// chunk owns a channel strip, replays the event stream, and scatters
  /// only its own channels (scatter_row_range), so per-output-element
  /// accumulation order is unchanged and results stay bitwise.
  ConvOp(const nn::Conv2d& src, Kernel kernel, sparse::Precision precision, bool event,
         const CompileOptions& opts, std::shared_ptr<util::ThreadPool> pool = nullptr);

  [[nodiscard]] Activation run(const Activation& input) const override;
  [[nodiscard]] OpReport report() const override;

 private:
  [[nodiscard]] tensor::Tensor run_dense(const tensor::Tensor& input) const;
  [[nodiscard]] tensor::Tensor run_event(const Activation& input) const;
  void event_scatter(const tensor::Tensor& in, const SpikeBatch& events, tensor::Tensor& out,
                     int64_t oh, int64_t ow, int64_t f0, int64_t f1) const;

  std::string layer_name_;
  Kernel gemm_;
  std::shared_ptr<util::ThreadPool> pool_;
  /// Event path only: per-output-channel weight counts (prefix sums) of
  /// the transposed structure, so channel strips are nnz-balanced.
  std::vector<int64_t> channel_weight_prefix_;
  /// Kernel tier resolved once at construction (see LinearOp::tier_).
  util::simd::Tier tier_;
  sparse::Precision precision_;
  int64_t bytes_ = 0;
  bool event_;
  bool has_bias_;
  int64_t in_channels_, out_channels_, kernel_, stride_, padding_;
  int64_t weights_;
  int64_t stored_;
  double source_sparsity_;
  sparse::Csr csr_;      // W [F, CKK], dense-activation kCsr
  tensor::Tensor dense_; // W [F, CKK], dense-activation kDense
  sparse::Csr csr_t_;    // Wᵀ [CKK, F], event kCsr
  tensor::Tensor dense_t_;  // Wᵀ [CKK, F], event kDense
  tensor::Tensor bias_;
};

}  // namespace ndsnn::runtime
