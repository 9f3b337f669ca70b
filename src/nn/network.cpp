#include "nn/network.hpp"

#include <stdexcept>

namespace ndsnn::nn {

SpikingNetwork::SpikingNetwork(std::unique_ptr<Sequential> body, int64_t timesteps,
                               std::unique_ptr<snn::Encoder> encoder)
    : body_(std::move(body)), timesteps_(timesteps), encoder_(std::move(encoder)) {
  if (!body_) throw std::invalid_argument("SpikingNetwork: null body");
  if (timesteps_ < 1) throw std::invalid_argument("SpikingNetwork: timesteps must be >= 1");
  if (!encoder_) encoder_ = std::make_unique<snn::DirectEncoder>();
}

StepResult SpikingNetwork::train_step(const tensor::Tensor& batch,
                                      const std::vector<int64_t>& labels) {
  body_->reset_state();
  const tensor::Tensor encoded = encoder_->encode(batch, timesteps_);
  util::ThreadPool* pool = &util::ThreadPool::shared();
  body_->forward_into(encoded, step_logits_, /*training=*/true, pool);
  const tensor::Tensor mean_logits = mean_over_time(step_logits_, timesteps_);
  const LossResult lr = loss_.compute(mean_logits, labels);

  const tensor::Tensor grad_steps = broadcast_over_time(lr.grad_logits, timesteps_);
  body_->accumulate_grads(grad_steps, pool);  // the input is a leaf: no input grad

  StepResult r;
  r.loss = lr.loss;
  r.correct = lr.correct;
  r.batch = batch.dim(0);
  r.spike_rate = std::max(0.0, body_->last_spike_rate());
  return r;
}

StepResult SpikingNetwork::eval_step(const tensor::Tensor& batch,
                                     const std::vector<int64_t>& labels) {
  const tensor::Tensor mean_logits = predict(batch);
  const LossResult lr = loss_.compute(mean_logits, labels);
  StepResult r;
  r.loss = lr.loss;
  r.correct = lr.correct;
  r.batch = batch.dim(0);
  r.spike_rate = std::max(0.0, body_->last_spike_rate());
  return r;
}

tensor::Tensor SpikingNetwork::predict(const tensor::Tensor& batch) {
  body_->reset_state();
  const tensor::Tensor encoded = encoder_->encode(batch, timesteps_);
  body_->forward_into(encoded, step_logits_, /*training=*/false, /*pool=*/nullptr);
  return mean_over_time(step_logits_, timesteps_);
}

int64_t SpikingNetwork::prunable_weight_count() {
  int64_t n = 0;
  for (const auto& p : body_->params()) {
    if (p.prunable) n += p.value->numel();
  }
  return n;
}

}  // namespace ndsnn::nn
