// Flatten: collapse [M, C, H, W] (or any rank >= 2) into [M, prod(rest)].
#pragma once

#include "nn/layer.hpp"

namespace ndsnn::nn {

class Flatten final : public Layer {
 public:
  void forward_into(const tensor::Tensor& input, tensor::Tensor& out, bool training,
                    util::ThreadPool* pool) override;
  void backward_into(const tensor::Tensor& grad_output, tensor::Tensor& grad_input,
                     util::ThreadPool* pool) override;
  [[nodiscard]] std::string name() const override { return "Flatten"; }
  void reset_state() override;

 private:
  tensor::Shape saved_in_shape_;
  bool has_saved_ = false;
};

}  // namespace ndsnn::nn
