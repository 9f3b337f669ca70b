#include "nn/layer.hpp"

namespace ndsnn::nn {

void GradMask::keep_only(const std::vector<uint8_t>& bits) {
  bits_ = bits;
  int64_t kept = 0;
  for (const uint8_t b : bits_) kept += b != 0 ? 1 : 0;
  density_ = bits_.empty() ? 1.0
                           : static_cast<double>(kept) / static_cast<double>(bits_.size());
  on_ = true;
}

double MaskedLayerView::sparsity() const {
  if (weight == nullptr || weight->numel() == 0) return 0.0;
  return static_cast<double>(weight->count_zeros()) /
         static_cast<double>(weight->numel());
}

void zero_grads(const std::vector<ParamRef>& params) {
  for (const auto& p : params) {
    if (p.grad != nullptr) p.grad->zero();
  }
}

}  // namespace ndsnn::nn
