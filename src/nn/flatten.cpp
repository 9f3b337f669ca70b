#include "nn/flatten.hpp"

#include <algorithm>
#include <stdexcept>

namespace ndsnn::nn {

void Flatten::forward_into(const tensor::Tensor& input, tensor::Tensor& out, bool /*training*/,
                           util::ThreadPool* /*pool*/) {
  if (input.rank() < 2) {
    throw std::invalid_argument("Flatten: expected rank >= 2, got " + input.shape().str());
  }
  saved_in_shape_ = input.shape();
  has_saved_ = true;
  const int64_t m = input.dim(0);
  out.assign_shape({m, input.numel() / m});
  std::copy(input.data(), input.data() + input.numel(), out.data());
}

void Flatten::backward_into(const tensor::Tensor& grad_output, tensor::Tensor& grad_input,
                            util::ThreadPool* /*pool*/) {
  if (!has_saved_) throw std::logic_error("Flatten::backward before forward");
  if (grad_output.numel() != saved_in_shape_.numel()) {
    throw std::invalid_argument("Flatten::backward: bad grad shape " + grad_output.shape().str());
  }
  grad_input.assign_shape(saved_in_shape_);
  std::copy(grad_output.data(), grad_output.data() + grad_output.numel(), grad_input.data());
}

void Flatten::reset_state() { has_saved_ = false; }

}  // namespace ndsnn::nn
