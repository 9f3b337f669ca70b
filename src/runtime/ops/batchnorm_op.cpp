#include "runtime/ops/batchnorm_op.hpp"

#include <cmath>
#include <stdexcept>

#include "runtime/trace.hpp"

namespace ndsnn::runtime {

using tensor::Shape;
using tensor::Tensor;

BatchNormOp::BatchNormOp(const nn::BatchNorm2d& src)
    : layer_name_(src.name()),
      channels_(src.channels()),
      mean_(src.running_mean()),
      gamma_(src.gamma()),
      beta_(src.beta()),
      inv_std_(Shape{src.channels()}) {
  for (int64_t c = 0; c < channels_; ++c) {
    inv_std_.at(c) = 1.0F / std::sqrt(src.running_var().at(c) + src.eps());
  }
}

void BatchNormOp::run_into(const Activation& input, Activation& out, OpState* /*carry*/) const {
  const Tensor& in = input.tensor;
  if (in.rank() != 4 || in.dim(1) != channels_) {
    throw std::invalid_argument("BatchNormOp: expected [M, " + std::to_string(channels_) +
                                ", H, W], got " + in.shape().str());
  }
  const int64_t m = in.dim(0), plane = in.dim(2) * in.dim(3);
  trace::ScopedSpan span("bn-normalize", "phase");
  span.rows(m);
  span.bytes(channels_ * 4 * static_cast<int64_t>(sizeof(float)));
  const float* src = in.data();
  float* dst = out.reset(in.shape()).data();
  for (int64_t c = 0; c < channels_; ++c) {
    const float mean = mean_.at(c), inv_std = inv_std_.at(c);
    const float g = gamma_.at(c), b = beta_.at(c);
    for (int64_t mm = 0; mm < m; ++mm) {
      const int64_t base = (mm * channels_ + c) * plane;
      for (int64_t i = 0; i < plane; ++i) {
        dst[base + i] = g * ((src[base + i] - mean) * inv_std) + b;
      }
    }
  }
}

OpReport BatchNormOp::report() const { return {layer_name_, "bn", 0, 0, 0.0, false}; }

}  // namespace ndsnn::runtime
