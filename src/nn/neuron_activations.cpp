#include "nn/neuron_activations.hpp"

namespace ndsnn::nn {

PlifActivation::PlifActivation(snn::PlifConfig config, int64_t timesteps)
    : plif_(config, timesteps),
      leak_param_(tensor::Shape{1}),
      leak_grad_(tensor::Shape{1}) {
  leak_param_.at(0) = plif_.raw_leak();
}

void PlifActivation::forward_into(const tensor::Tensor& input, tensor::Tensor& out,
                                  bool /*training*/, util::ThreadPool* /*pool*/) {
  // Optimizer writes into leak_param_; sync before using it.
  plif_.raw_leak() = leak_param_.at(0);
  out = plif_.forward(input);
}

void PlifActivation::backward_into(const tensor::Tensor& grad_output,
                                   tensor::Tensor& grad_input, util::ThreadPool* /*pool*/) {
  plif_.raw_leak_grad() = 0.0F;
  grad_input = plif_.backward(grad_output);
  leak_grad_.at(0) += plif_.raw_leak_grad();
}

std::vector<ParamRef> PlifActivation::params() {
  return {{"leak", &leak_param_, &leak_grad_, /*prunable=*/false}};
}

std::string PlifActivation::name() const {
  return "PLIF(alpha=" + std::to_string(plif_.alpha()) +
         ", T=" + std::to_string(plif_.timesteps()) + ")";
}

void PlifActivation::reset_state() { plif_.reset_state(); }

void AlifActivation::forward_into(const tensor::Tensor& input, tensor::Tensor& out,
                                  bool /*training*/, util::ThreadPool* /*pool*/) {
  out = alif_.forward(input);
}

void AlifActivation::backward_into(const tensor::Tensor& grad_output,
                                   tensor::Tensor& grad_input, util::ThreadPool* /*pool*/) {
  grad_input = alif_.backward(grad_output);
}

std::string AlifActivation::name() const {
  return "ALIF(beta=" + std::to_string(alif_.config().beta) +
         ", T=" + std::to_string(alif_.timesteps()) + ")";
}

}  // namespace ndsnn::nn
