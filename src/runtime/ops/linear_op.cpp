#include "runtime/ops/linear_op.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/trace.hpp"
#include "tensor/matmul.hpp"
#include "tensor/ops.hpp"

namespace ndsnn::runtime {

using tensor::Shape;
using tensor::Tensor;

LinearOp::LinearOp(const nn::Linear& src, Kernel kernel, sparse::Precision precision,
                   bool event, const CompileOptions& opts)
    : layer_name_(src.name()),
      tier_(util::simd::active()),
      event_(event),
      has_bias_(src.has_bias()),
      in_features_(src.in_features()),
      out_features_(src.out_features()),
      weights_(src.weight().numel()),
      source_sparsity_(src.masked_view()->sparsity()),
      store_(src.weight(), kernel, precision, event, opts.fake_quant) {
  if (has_bias_) bias_ = src.bias();
}

Tensor LinearOp::run_dense(const Tensor& input) const {
  return store_.kernel == Kernel::kCsr ? store_.csr.spmm_t(input, tier_)
                                       : tensor::matmul_nt(input, store_.dense, tier_);
}

void LinearOp::run_event(const Tensor& in, Tensor& out) const {
  const int64_t m = in.dim(0);
  // The active inputs and the per-output accumulators live in buffers of
  // the calling thread, kept from call to call.
  thread_local SpikeBatch events;
  thread_local std::vector<double> acc;
  events.rescan(in);
  acc.resize(static_cast<std::size_t>(out_features_));

  trace::ScopedSpan span("event-gather", "phase");
  span.rows(m);
  span.rate(events.rate());
  span.bytes(store_.bytes);

  const float* inp = in.data();
  out.assign_zeros(Shape{m, out_features_});
  float* outp = out.data();
  for (int64_t i = 0; i < m; ++i) {
    std::fill(acc.begin(), acc.end(), 0.0);
    store_.csr.spmv_gather(inp + i * in_features_, events.active_begin(i),
                           events.active_count(i), acc.data());
    float* orow = outp + i * out_features_;
    for (int64_t r = 0; r < out_features_; ++r) {
      orow[r] = static_cast<float>(acc[static_cast<std::size_t>(r)]);
    }
  }
}

void LinearOp::run_into(const Activation& input, Activation& out) const {
  // The dense kernels validate shapes themselves; check up front so the
  // event path rejects the same inputs instead of reading out of bounds.
  if (input.tensor.rank() != 2 || input.tensor.dim(1) != in_features_) {
    throw std::invalid_argument("LinearOp: expected [M, " + std::to_string(in_features_) +
                                "], got " + input.tensor.shape().str());
  }
  // The dense kernels return a fresh output: it is [M, out_features], a
  // few KB on LeNet-5.
  if (event_) {
    run_event(input.tensor, out.tensor);
  } else {
    out.tensor = run_dense(input.tensor);
  }
  if (has_bias_) tensor::add_row_bias_(out.tensor, bias_);
}

OpReport LinearOp::report() const {
  OpReport r{layer_name_, std::string(kernel_tag(store_.kernel)) + "-linear", weights_,
             store_.stored, source_sparsity_, event_, store_.precision, store_.bytes};
  r.tier = tier_;
  return r;
}

}  // namespace ndsnn::runtime
