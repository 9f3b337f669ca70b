// Shape/structure ops of the compiled plan: pooling, flatten and the
// residual block container. ResidualOp threads Activations through its
// compiled main and shortcut chains and sums them into its output LIF.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "runtime/plan.hpp"

namespace ndsnn::runtime {

/// Runs nn::avg_pool2d, the body AvgPool2d::forward runs, so the plan
/// pools bitwise like predict.
class AvgPoolOp final : public Op {
 public:
  AvgPoolOp(std::string layer_name, int64_t k)
      : layer_name_(std::move(layer_name)), k_(k) {}

  void run_into(const Activation& input, Activation& out) const override;
  [[nodiscard]] OpReport report() const override;

 private:
  std::string layer_name_;
  int64_t k_;
};

class MaxPoolOp final : public Op {
 public:
  MaxPoolOp(std::string layer_name, int64_t k)
      : layer_name_(std::move(layer_name)), k_(k) {}

  void run_into(const Activation& input, Activation& out) const override;
  [[nodiscard]] OpReport report() const override;

 private:
  std::string layer_name_;
  int64_t k_;
};

class GlobalAvgPoolOp final : public Op {
 public:
  void run_into(const Activation& input, Activation& out) const override;
  [[nodiscard]] OpReport report() const override;
};

class FlattenOp final : public Op {
 public:
  void run_into(const Activation& input, Activation& out) const override;
  [[nodiscard]] OpReport report() const override;
};

/// Residual block: compiled main and shortcut chains plus the output LIF.
class ResidualOp final : public Op {
 public:
  ResidualOp(std::string layer_name, std::vector<std::unique_ptr<Op>> main,
             std::vector<std::unique_ptr<Op>> shortcut, std::unique_ptr<Op> out_lif)
      : layer_name_(std::move(layer_name)),
        main_(std::move(main)),
        shortcut_(std::move(shortcut)),
        out_lif_(std::move(out_lif)) {}

  void run_into(const Activation& input, Activation& out) const override;
  [[nodiscard]] OpReport report() const override;

  /// Streaming: nested per-sub-op states (the block's BN-LIF chains and
  /// output LIF each carry their own membranes). Non-null even when
  /// every sub-op is stateless — the block must never be delta-skipped
  /// wholesale, its neurons decay on empty steps.
  [[nodiscard]] std::unique_ptr<OpState> make_state() const override;
  [[nodiscard]] Activation step(const Activation& input,
                                OpState* state) const override;

 private:
  std::string layer_name_;
  std::vector<std::unique_ptr<Op>> main_;
  std::vector<std::unique_ptr<Op>> shortcut_;
  std::unique_ptr<Op> out_lif_;
};

}  // namespace ndsnn::runtime
