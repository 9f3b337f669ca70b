// SpikingNetwork: end-to-end SNN = encoder + body + rate readout.
//
// Drives one training/eval step: encode a static batch into T timesteps,
// run the body (time-major), average per-step logits, compute the loss,
// and run full BPTT back through the body.
#pragma once

#include <memory>
#include <vector>

#include "nn/loss.hpp"
#include "nn/sequential.hpp"
#include "snn/encoder.hpp"

namespace ndsnn::nn {

/// Result of one forward(+backward) step.
struct StepResult {
  double loss = 0.0;
  int64_t correct = 0;
  int64_t batch = 0;
  double spike_rate = 0.0;  ///< mean firing fraction over spiking layers
};

class SpikingNetwork {
 public:
  /// Takes ownership of the body; encoder defaults to DirectEncoder.
  SpikingNetwork(std::unique_ptr<Sequential> body, int64_t timesteps,
                 std::unique_ptr<snn::Encoder> encoder = nullptr);

  /// Forward + loss + backward (BPTT); parameter grads are accumulated
  /// (call zero_grads first). Labels indexed per sample.
  [[nodiscard]] StepResult train_step(const tensor::Tensor& batch,
                                      const std::vector<int64_t>& labels);

  /// Forward only; returns loss/accuracy stats.
  [[nodiscard]] StepResult eval_step(const tensor::Tensor& batch,
                                     const std::vector<int64_t>& labels);

  /// Forward only; returns mean logits [N, classes].
  [[nodiscard]] tensor::Tensor predict(const tensor::Tensor& batch);

  [[nodiscard]] std::vector<ParamRef> params() { return body_->params(); }
  [[nodiscard]] Sequential& body() { return *body_; }
  [[nodiscard]] const Sequential& body() const { return *body_; }
  [[nodiscard]] const snn::Encoder& encoder() const { return *encoder_; }
  [[nodiscard]] int64_t timesteps() const { return timesteps_; }

  /// Total number of prunable weight elements.
  [[nodiscard]] int64_t prunable_weight_count();

 private:
  std::unique_ptr<Sequential> body_;
  int64_t timesteps_;
  std::unique_ptr<snn::Encoder> encoder_;
  CrossEntropyLoss loss_;
  tensor::Tensor step_logits_;  // [T*N, classes], kept across steps
};

}  // namespace ndsnn::nn
