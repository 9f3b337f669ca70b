// Neuron ops of the compiled plan: LIF (also PLIF at inference, whose
// trained leak folds into a LifConfig) and ALIF dynamics over the T
// timesteps of one call. Inference-only: membrane state lives in rolling
// per-step buffers instead of the full saved trace BPTT needs. Each
// timestep is snn::lif_step / snn::alif_step, the same kernels
// snn::LifLayer, PlifLayer and AlifLayer::forward run, so compiled and
// interpreted paths agree bitwise. While tracing, the op's span records
// the firing rate of its spike train (trace::nonzero_fraction).
#pragma once

#include <string>

#include "runtime/plan.hpp"
#include "snn/alif.hpp"
#include "snn/lif.hpp"

namespace ndsnn::runtime {

class LifOp final : public Op {
 public:
  LifOp(std::string layer_name, const snn::LifConfig& config, int64_t timesteps);

  void run_into(const Activation& input, Activation& out) const override;
  [[nodiscard]] OpReport report() const override;

  /// Streaming: carries v - theta and the last spikes per neuron across
  /// step() calls and makes the same lif_step calls as run(), so T step()
  /// calls are bitwise identical to one run() over the time-major window.
  [[nodiscard]] std::unique_ptr<OpState> make_state() const override;
  [[nodiscard]] Activation step(const Activation& input,
                                OpState* state) const override;

 private:
  std::string layer_name_;
  float alpha_, theta_;
  int64_t timesteps_;
};

class AlifOp final : public Op {
 public:
  AlifOp(std::string layer_name, const snn::AlifConfig& config, int64_t timesteps);

  void run_into(const Activation& input, Activation& out) const override;
  [[nodiscard]] OpReport report() const override;

  /// Streaming: carries {v, adaptation trace, previous spike} per
  /// neuron. ALIF's recurrence is uniform in t (zero-initialised state
  /// reproduces the first window step), so step() is one alif_step call
  /// of run().
  [[nodiscard]] std::unique_ptr<OpState> make_state() const override;
  [[nodiscard]] Activation step(const Activation& input,
                                OpState* state) const override;

 private:
  std::string layer_name_;
  snn::AlifConfig config_;
  int64_t timesteps_;
};

}  // namespace ndsnn::runtime
