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
      kernel_(kernel),
      tier_(util::simd::active()),
      precision_(kernel == Kernel::kDense ? sparse::Precision::kFp32 : precision),
      event_(event),
      has_bias_(src.has_bias()),
      in_features_(src.in_features()),
      out_features_(src.out_features()),
      weights_(src.weight().numel()),
      source_sparsity_(src.masked_view()->sparsity()) {
  // Only the structures the chosen path touches are materialized; the
  // event path keeps Wᵀ so an active input index selects one contiguous
  // weight row. Event-path planes quantise with a uniform plane-wide
  // scale: binary spike batches then gather raw codes in int32 and
  // dequantise once per output (sparse::Csr::spmv_gather fast path).
  switch (kernel_) {
    case Kernel::kCsr:
      if (event_) {
        csr_t_ = sparse::Csr::from_weights(src.weight()).transposed();
        (void)csr_t_.quantize(precision_, /*uniform_scale=*/true);
        if (opts.fake_quant) csr_t_.dequantize();
        stored_ = csr_t_.nnz();
        bytes_ = csr_t_.memory_bytes();
      } else {
        csr_ = sparse::Csr::from_weights(src.weight());
        (void)csr_.quantize(precision_);
        if (opts.fake_quant) csr_.dequantize();
        stored_ = csr_.nnz();
        bytes_ = csr_.memory_bytes();
      }
      break;
    case Kernel::kDense:
      if (event_) {
        dense_t_ = Tensor(Shape{in_features_, out_features_});
        const float* w = src.weight().data();
        float* wt = dense_t_.data();
        for (int64_t r = 0; r < out_features_; ++r) {
          for (int64_t c = 0; c < in_features_; ++c) {
            wt[c * out_features_ + r] = w[r * in_features_ + c];
          }
        }
      } else {
        dense_ = src.weight();
      }
      stored_ = weights_;
      bytes_ = weights_ * 4;
      break;
  }
  if (has_bias_) bias_ = src.bias();
}

Tensor LinearOp::run_dense(const Tensor& input) const {
  return kernel_ == Kernel::kCsr ? csr_.spmm_t(input, tier_)
                                 : tensor::matmul_nt(input, dense_, tier_);
}

Tensor LinearOp::run_event(const Activation& input) const {
  const Tensor& in = input.tensor;
  const int64_t m = in.dim(0);
  Tensor out(Shape{m, out_features_});

  // The event view is usable only when it indexes exactly this layout
  // (it survives flatten, not pooling / batch norm); otherwise scan.
  const bool use_events =
      input.has_events && input.events.rows == m && input.events.row_size == in_features_;

  trace::ScopedSpan span("event-gather", "phase");
  span.rows(m);
  if (use_events) span.rate(input.events.rate());
  span.bytes(bytes_);

  const float* inp = in.data();
  float* outp = out.data();
  std::vector<int32_t> scratch;
  if (!use_events) scratch.reserve(static_cast<std::size_t>(in_features_));
  std::vector<double> acc(static_cast<std::size_t>(out_features_));
  // int32 scratch for the binary-spike quantised gather fast path; only
  // allocated when a uniform-scale plane can actually use it.
  std::vector<int32_t> iacc;
  if (kernel_ == Kernel::kCsr && csr_t_.quantized() && csr_t_.quant().uniform) {
    iacc.resize(static_cast<std::size_t>(out_features_));
  }
  int32_t* iaccp = iacc.empty() ? nullptr : iacc.data();

  for (int64_t i = 0; i < m; ++i) {
    const float* x = inp + i * in_features_;
    const int32_t* active;
    int64_t n_active;
    if (use_events) {
      active = input.events.active_begin(i);
      n_active = input.events.active_count(i);
    } else {
      scratch.clear();
      for (int64_t j = 0; j < in_features_; ++j) {
        if (x[j] != 0.0F) scratch.push_back(static_cast<int32_t>(j));
      }
      active = scratch.data();
      n_active = static_cast<int64_t>(scratch.size());
    }
    std::fill(acc.begin(), acc.end(), 0.0);
    switch (kernel_) {
      case Kernel::kCsr:
        csr_t_.spmv_gather(x, active, n_active, acc.data(), iaccp);
        break;
      case Kernel::kDense: {
        const float* wt = dense_t_.data();
        for (int64_t a = 0; a < n_active; ++a) {
          const int64_t j = active[a];
          const double xj = static_cast<double>(x[j]);
          const float* wrow = wt + j * out_features_;
          for (int64_t r = 0; r < out_features_; ++r) {
            acc[static_cast<std::size_t>(r)] += static_cast<double>(wrow[r]) * xj;
          }
        }
        break;
      }
    }
    float* orow = outp + i * out_features_;
    for (int64_t r = 0; r < out_features_; ++r) {
      orow[r] = static_cast<float>(acc[static_cast<std::size_t>(r)]);
    }
  }
  return out;
}

Activation LinearOp::run(const Activation& input) const {
  // The dense kernels validate shapes themselves; check up front so the
  // event path rejects the same inputs instead of reading out of bounds.
  if (input.tensor.rank() != 2 || input.tensor.dim(1) != in_features_) {
    throw std::invalid_argument("LinearOp: expected [M, " + std::to_string(in_features_) +
                                "], got " + input.tensor.shape().str());
  }
  Tensor out = event_ ? run_event(input) : run_dense(input.tensor);
  if (has_bias_) tensor::add_row_bias_(out, bias_);
  return Activation(std::move(out));
}

OpReport LinearOp::report() const {
  OpReport r{layer_name_, std::string(kernel_tag(kernel_)) + "-linear", weights_, stored_,
             source_sparsity_, event_, precision_, bytes_};
  r.tier = tier_;
  return r;
}

}  // namespace ndsnn::runtime
