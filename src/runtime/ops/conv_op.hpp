// ConvOp: 2-D convolution weight op of the compiled plan.
//
// Dense-activation path: CSR runs sparse::Csr::conv2d, a direct sparse
// convolution that walks each filter's stored taps over input spans and
// writes the [N, F, OH, OW] output with no patch matrix, for fp32 and
// quantised planes alike. Dense runs im2col then tensor::matmul into
// [F, N*OH*OW] and transposes, identical to nn::Conv2d::forward. Event
// path: for each active (nonzero) input pixel, enumerate the kernel
// offsets it reaches (the im2col mapping evaluated on the fly) and
// scatter value * Wᵀ[patch-column] into the output plane
// (sparse::Csr::scatter_row). Every path accumulates each output
// element over ascending patch-column index in float mul-then-add
// steps, and skipped zero terms are exact no-ops: bitwise identical.
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
  /// CSR dense-activation path partitions (filter, sample block) items,
  /// the dense GEMM its output rows (filters), and the event
  /// path the scatter by *output channel* — each chunk owns a channel
  /// strip, replays the event stream, and scatters only its own
  /// channels (scatter_row_range). Per-output-element accumulation
  /// order is unchanged on every path, so results stay bitwise.
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
  sparse::Csr csr_;      // W [F, CKK], dense-activation kCsr (direct conv)
  tensor::Tensor dense_; // W [F, CKK], dense-activation kDense
  sparse::Csr csr_t_;    // Wᵀ [CKK, F], event kCsr
  tensor::Tensor dense_t_;  // Wᵀ [CKK, F], event kDense
  tensor::Tensor bias_;
};

}  // namespace ndsnn::runtime
