#include "runtime/ops/shape_ops.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "nn/pool.hpp"
#include "runtime/trace.hpp"
#include "tensor/ops.hpp"

namespace ndsnn::runtime {

using tensor::Tensor;

void AvgPoolOp::run_into(const Activation& input, Activation& out, OpState* /*carry*/) const {
  const Tensor& in = input.tensor;
  if (in.rank() != 4 || in.dim(2) % k_ != 0 || in.dim(3) % k_ != 0) {
    throw std::invalid_argument("AvgPoolOp: bad input " + in.shape().str());
  }
  const int64_t m = in.dim(0), c = in.dim(1), h = in.dim(2), w = in.dim(3);
  const int64_t oh = h / k_, ow = w / k_;
  nn::avg_pool2d(in.data(), out.reset({m, c, oh, ow}).data(), m * c, h, w, k_);
}

OpReport AvgPoolOp::report() const { return {layer_name_, "pool", 0, 0, 0.0, false}; }

void MaxPoolOp::run_into(const Activation& input, Activation& out, OpState* /*carry*/) const {
  const Tensor& in = input.tensor;
  if (in.rank() != 4 || in.dim(2) % k_ != 0 || in.dim(3) % k_ != 0) {
    throw std::invalid_argument("MaxPoolOp: bad input " + in.shape().str());
  }
  const int64_t m = in.dim(0), c = in.dim(1), h = in.dim(2), w = in.dim(3);
  const int64_t oh = h / k_, ow = w / k_;
  const float* src = in.data();
  float* dst = out.reset({m, c, oh, ow}).data();
  for (int64_t mc = 0; mc < m * c; ++mc) {
    const float* plane = src + mc * h * w;
    float* oplane = dst + mc * oh * ow;
    for (int64_t oy = 0; oy < oh; ++oy) {
      for (int64_t ox = 0; ox < ow; ++ox) {
        float best = plane[(oy * k_) * w + ox * k_];
        for (int64_t dy = 0; dy < k_; ++dy) {
          for (int64_t dx = 0; dx < k_; ++dx) {
            const float v = plane[(oy * k_ + dy) * w + (ox * k_ + dx)];
            if (v > best) best = v;
          }
        }
        oplane[oy * ow + ox] = best;
      }
    }
  }
}

OpReport MaxPoolOp::report() const { return {layer_name_, "pool", 0, 0, 0.0, false}; }

void GlobalAvgPoolOp::run_into(const Activation& input, Activation& out, OpState* /*carry*/) const {
  const Tensor& in = input.tensor;
  if (in.rank() != 4) {
    throw std::invalid_argument("GlobalAvgPoolOp: expected rank-4, got " + in.shape().str());
  }
  const int64_t m = in.dim(0), c = in.dim(1), plane = in.dim(2) * in.dim(3);
  const float inv = 1.0F / static_cast<float>(plane);
  const float* src = in.data();
  float* dst = out.reset({m, c}).data();
  for (int64_t mc = 0; mc < m * c; ++mc) {
    double acc = 0.0;
    const float* p = src + mc * plane;
    for (int64_t i = 0; i < plane; ++i) acc += p[i];
    dst[mc] = static_cast<float>(acc) * inv;
  }
}

OpReport GlobalAvgPoolOp::report() const { return {"GlobalAvgPool", "pool", 0, 0, 0.0, false}; }

void FlattenOp::run_into(const Activation& input, Activation& out, OpState* /*carry*/) const {
  const Tensor& in = input.tensor;
  if (in.rank() < 2) {
    throw std::invalid_argument("FlattenOp: expected rank >= 2, got " + in.shape().str());
  }
  const int64_t m = in.dim(0);
  std::copy(in.data(), in.data() + in.numel(), out.reset({m, in.numel() / m}).data());
}

OpReport FlattenOp::report() const { return {"Flatten", "reshape", 0, 0, 0.0, false}; }

namespace {

/// Carry of a residual block: one nested slot per sub-op (in chain
/// order) plus the output LIF's. Slots of stateless sub-ops hold
/// nullptr, mirroring make_state()'s contract.
struct ResidualCarry final : OpState {
  std::vector<std::unique_ptr<OpState>> main;
  std::vector<std::unique_ptr<OpState>> shortcut;
  std::unique_ptr<OpState> out;
};

}  // namespace

std::unique_ptr<OpState> ResidualOp::make_state() const {
  auto c = std::make_unique<ResidualCarry>();
  for (const auto& op : main_) c->main.push_back(op->make_state());
  for (const auto& op : shortcut_) c->shortcut.push_back(op->make_state());
  c->out = out_lif_->make_state();
  return c;
}

void ResidualOp::run_into(const Activation& input, Activation& out, OpState* carry) const {
  auto* c = static_cast<ResidualCarry*>(carry);
  // The block's sub-ops are invisible to Plan::execute and StreamSession
  // (only the residual op itself gets a plan-level span), so when tracing
  // is on each sub-op records its own "op" span here: that is where most
  // of a resnet plan's time actually goes.
  const bool traced = trace::enabled();
  const auto run_sub = [traced](const Op& op, const Activation& in, Activation& sub_out,
                                OpState* sub_carry) {
    if (traced) {
      trace::run_op_instrumented(op, op.report(), in, sub_out, sub_carry, nullptr, 0);
    } else {
      op.run_into(in, sub_out, sub_carry);
    }
  };
  // The chains' intermediates are fresh per call; only the block's
  // output lands in the kept `out`. Chain through pointers so the
  // identity shortcut never copies the input activation (main_ is never
  // empty: conv1..bn2).
  const auto run_chain = [&](const std::vector<std::unique_ptr<Op>>& chain,
                             const std::vector<std::unique_ptr<OpState>>* slots,
                             Activation& result) -> const Activation& {
    const Activation* cur = &input;
    for (std::size_t i = 0; i < chain.size(); ++i) {
      Activation next;
      run_sub(*chain[i], *cur, next, slots != nullptr ? (*slots)[i].get() : nullptr);
      result = std::move(next);
      cur = &result;
    }
    return *cur;
  };
  Activation main;
  Activation shortcut;
  run_chain(main_, c != nullptr ? &c->main : nullptr, main);
  const Activation& skip = run_chain(shortcut_, c != nullptr ? &c->shortcut : nullptr, shortcut);
  tensor::add_(main.tensor, skip.tensor);
  run_sub(*out_lif_, main, out, c != nullptr ? c->out.get() : nullptr);
}

OpReport ResidualOp::report() const {
  OpReport r{layer_name_, "residual", 0, 0, 0.0, false};
  double zero_weighted = 0.0;
  for (const auto* chain : {&main_, &shortcut_}) {
    for (const auto& op : *chain) {
      const OpReport sub = op->report();
      r.weights += sub.weights;
      r.nnz += sub.nnz;
      r.bytes += sub.bytes;
      r.event |= sub.event;
      // One tier is resolved per plan, so every weight sub-op shares it.
      if (sub.weights > 0) r.tier = sub.tier;
      zero_weighted += sub.sparsity * static_cast<double>(sub.weights);
    }
  }
  if (r.weights > 0) r.sparsity = zero_weighted / static_cast<double>(r.weights);
  return r;
}

}  // namespace ndsnn::runtime
