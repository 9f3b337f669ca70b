#include "nn/lif_activation.hpp"

namespace ndsnn::nn {

void LifActivation::forward_into(const tensor::Tensor& input, tensor::Tensor& out,
                                 bool /*training*/, util::ThreadPool* pool) {
  lif_.forward_into(input, out, pool);
}

void LifActivation::backward_into(const tensor::Tensor& grad_output, tensor::Tensor& grad_input,
                                  util::ThreadPool* pool) {
  lif_.backward_into(grad_output, grad_input, pool);
}

std::string LifActivation::name() const {
  return std::string("LIF(") + snn::surrogate_name(lif_.config().surrogate) +
         ", T=" + std::to_string(lif_.timesteps()) + ")";
}

}  // namespace ndsnn::nn
