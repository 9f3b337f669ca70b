// BatchNormOp: BatchNorm2d folded to eval statistics at compile time.
// Keeps the eval-path arithmetic of nn::BatchNorm2d::forward (same
// operation order, precomputed inv_std) so compiled outputs match
// interpreted eval outputs bitwise.
#pragma once

#include <string>

#include "nn/batchnorm.hpp"
#include "runtime/plan.hpp"

namespace ndsnn::runtime {

class BatchNormOp final : public Op {
 public:
  explicit BatchNormOp(const nn::BatchNorm2d& src);

  void run_into(const Activation& input, Activation& out) const override;
  [[nodiscard]] OpReport report() const override;

 private:
  std::string layer_name_;
  int64_t channels_;
  tensor::Tensor mean_, gamma_, beta_, inv_std_;
};

}  // namespace ndsnn::runtime
