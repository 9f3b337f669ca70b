// Neuron ops of the compiled plan: LIF (also PLIF at inference, whose
// trained leak folds into a LifConfig) and ALIF dynamics. Inference-only:
// membrane state lives in rolling per-neuron buffers instead of the full
// saved trace BPTT needs. Each op runs one loop over its frames: the T
// timesteps of a window from rest, or one frame from a streamed carry
// (Op::run_into). Each frame is snn::lif_step / snn::alif_step, the same
// kernels the forwards of nn::LifActivation, PlifActivation and
// AlifActivation run, so compiled, streamed and interpreted paths agree
// bitwise. While tracing, the op's span records the firing rate of its
// spike train (trace::nonzero_fraction).
#pragma once

#include <memory>
#include <string>

#include "runtime/plan.hpp"
#include "snn/alif.hpp"
#include "snn/lif.hpp"

namespace ndsnn::runtime {

class LifOp final : public Op {
 public:
  LifOp(std::string layer_name, const snn::LifConfig& config, int64_t timesteps);

  void run_into(const Activation& input, Activation& out, OpState* carry) const override;
  [[nodiscard]] OpReport report() const override;

  /// Carries v - theta and the last spikes per neuron from one frame to
  /// the next.
  [[nodiscard]] std::unique_ptr<OpState> make_state() const override;

 private:
  std::string layer_name_;
  float alpha_, theta_;
  int64_t timesteps_;
};

class AlifOp final : public Op {
 public:
  AlifOp(std::string layer_name, const snn::AlifConfig& config, int64_t timesteps);

  void run_into(const Activation& input, Activation& out, OpState* carry) const override;
  [[nodiscard]] OpReport report() const override;

  /// Carries {v, adaptation trace, previous spike} per neuron from one
  /// frame to the next.
  [[nodiscard]] std::unique_ptr<OpState> make_state() const override;

 private:
  std::string layer_name_;
  snn::AlifConfig config_;
  int64_t timesteps_;
};

}  // namespace ndsnn::runtime
