#include "nn/neuron_activations.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>

namespace ndsnn::nn {

namespace {

float sigmoid(float x) { return 1.0F / (1.0F + std::exp(-x)); }
float logit(float p) { return std::log(p / (1.0F - p)); }

int64_t checked_timesteps(int64_t timesteps, const std::string& layer) {
  if (timesteps < 1) throw std::invalid_argument(layer + ": timesteps must be >= 1");
  return timesteps;
}

/// Shapes the saved v - theta and `out` like the time-major `input`;
/// returns the neurons per frame.
int64_t begin_forward(const tensor::Tensor& input, int64_t timesteps, tensor::Tensor& saved_vmt,
                      tensor::Tensor& out, const std::string& layer) {
  if (input.numel() % timesteps != 0) {
    throw std::invalid_argument(layer + "::forward: numel " + std::to_string(input.numel()) +
                                " not divisible by T=" + std::to_string(timesteps));
  }
  saved_vmt.assign_shape(input.shape());
  out.assign_shape(input.shape());
  return input.numel() / timesteps;
}

/// Checks `grad_output` against the saved forward and shapes
/// `grad_input` like it; returns the neurons per frame.
int64_t begin_backward(bool has_saved, const tensor::Tensor& saved_vmt, int64_t timesteps,
                       const tensor::Tensor& grad_output, tensor::Tensor& grad_input,
                       const std::string& layer) {
  if (!has_saved) throw std::logic_error(layer + "::backward called before forward");
  if (grad_output.shape() != saved_vmt.shape()) {
    throw std::invalid_argument(layer + "::backward: grad shape " + grad_output.shape().str() +
                                " != forward shape " + saved_vmt.shape().str());
  }
  grad_input.assign_shape(grad_output.shape());
  return grad_output.numel() / timesteps;
}

double rate(int64_t fired, int64_t total) {
  return static_cast<double>(fired) / static_cast<double>(total);
}

}  // namespace

// ---------------------------------------------------------------- LIF

LifActivation::LifActivation(snn::LifConfig config, int64_t timesteps)
    : config_(config), timesteps_(checked_timesteps(timesteps, "LifActivation")) {
  config_.validate();
}

void LifActivation::forward_into(const tensor::Tensor& input, tensor::Tensor& out,
                                 bool /*training*/, util::ThreadPool* pool) {
  const int64_t step = begin_forward(input, timesteps_, saved_vmt_, out, "LifActivation");
  const int64_t fired = snn::lif_forward(input.data(), timesteps_, step, config_.alpha,
                                         config_.threshold, saved_vmt_.data(), out.data(), pool);
  last_spike_rate_ = rate(fired, input.numel());
  has_saved_ = true;
}

void LifActivation::backward_into(const tensor::Tensor& grad_output, tensor::Tensor& grad_input,
                                  util::ThreadPool* pool) {
  const int64_t step = begin_backward(has_saved_, saved_vmt_, timesteps_, grad_output,
                                      grad_input, "LifActivation");
  snn::lif_backward(grad_output.data(), saved_vmt_.data(), timesteps_, step, config_,
                    grad_input.data(), pool);
}

std::string LifActivation::name() const {
  return std::string("LIF(") + snn::surrogate_name(config_.surrogate) +
         ", T=" + std::to_string(timesteps_) + ")";
}

// ---------------------------------------------------------------- PLIF

PlifActivation::PlifActivation(snn::PlifConfig config, int64_t timesteps)
    : config_(config),
      timesteps_(checked_timesteps(timesteps, "PlifActivation")),
      leak_(tensor::Shape{1}),
      leak_grad_(tensor::Shape{1}) {
  config_.validate();
  leak_.at(0) = logit(config_.initial_alpha);
}

float PlifActivation::alpha() const { return sigmoid(leak_.at(0)); }

snn::LifConfig PlifActivation::lif_config() const {
  snn::LifConfig lif;
  lif.alpha = alpha();
  lif.threshold = config_.threshold;
  lif.detach_reset = config_.detach_reset;
  lif.surrogate = config_.surrogate;
  return lif;
}

void PlifActivation::forward_into(const tensor::Tensor& input, tensor::Tensor& out,
                                  bool /*training*/, util::ThreadPool* pool) {
  const int64_t step = begin_forward(input, timesteps_, saved_vmt_, out, "PlifActivation");
  const int64_t fired = snn::lif_forward(input.data(), timesteps_, step, alpha(),
                                         config_.threshold, saved_vmt_.data(), out.data(), pool);
  last_spike_rate_ = rate(fired, input.numel());
  has_saved_ = true;
}

void PlifActivation::backward_into(const tensor::Tensor& grad_output,
                                   tensor::Tensor& grad_input, util::ThreadPool* pool) {
  const int64_t step = begin_backward(has_saved_, saved_vmt_, timesteps_, grad_output,
                                      grad_input, "PlifActivation");
  const snn::LifConfig lif = lif_config();
  snn::lif_backward(grad_output.data(), saved_vmt_.data(), timesteps_, step, lif,
                    grad_input.data(), pool);
  // dL/da: dv[t]/dalpha = v[t-1] = (v[t-1] - theta) + theta, chained
  // through sigmoid. One double chain, t descending, i ascending; v[-1]
  // is 0, so t == 0 adds nothing.
  const float* eps = grad_input.data();
  const float* vmt = saved_vmt_.data();
  double leak_acc = 0.0;
  for (int64_t t = timesteps_ - 1; t >= 1; --t) {
    const float* et = eps + t * step;
    const float* vmt_prev = vmt + (t - 1) * step;
    for (int64_t i = 0; i < step; ++i) {
      leak_acc += static_cast<double>(et[i]) * (vmt_prev[i] + lif.threshold);
    }
  }
  leak_grad_.at(0) += static_cast<float>(leak_acc) * (lif.alpha * (1.0F - lif.alpha));
}

std::vector<ParamRef> PlifActivation::params() {
  return {{"leak", &leak_, &leak_grad_, /*prunable=*/false}};
}

std::string PlifActivation::name() const {
  return "PLIF(alpha=" + std::to_string(alpha()) + ", T=" + std::to_string(timesteps_) + ")";
}

// ---------------------------------------------------------------- ALIF

AlifActivation::AlifActivation(snn::AlifConfig config, int64_t timesteps)
    : config_(config), timesteps_(checked_timesteps(timesteps, "AlifActivation")) {
  config_.validate();
}

void AlifActivation::forward_into(const tensor::Tensor& input, tensor::Tensor& out,
                                  bool /*training*/, util::ThreadPool* pool) {
  const int64_t step = begin_forward(input, timesteps_, saved_vmt_, out, "AlifActivation");
  v_.assign_shape({step});
  trace_.assign_shape({step});
  const float* in = input.data();
  float* vmt = saved_vmt_.data();
  float* spikes = out.data();
  std::atomic<int64_t> fired{0};
  // Each lane runs its neurons' frames in time order from rest, on its
  // own slice of the membrane and trace buffers.
  util::ThreadPool::for_ranges(pool, step, snn::kNeuronGrain, [&](int64_t i0, int64_t i1) {
    const int64_t n = i1 - i0;
    float* v = v_.data() + i0;
    float* trace = trace_.data() + i0;
    std::fill(v, v + n, 0.0F);
    std::fill(trace, trace + n, 0.0F);
    int64_t count = 0;
    for (int64_t t = 0; t < timesteps_; ++t) {
      float* ot = spikes + t * step + i0;
      snn::alif_step(config_, in + t * step + i0, t == 0 ? nullptr : ot - step, v, trace,
                     vmt + t * step + i0, ot, n);
      for (int64_t i = 0; i < n; ++i) count += ot[i] != 0.0F;
    }
    fired.fetch_add(count, std::memory_order_relaxed);
  });
  last_spike_rate_ = rate(fired.load(std::memory_order_relaxed), input.numel());
  has_saved_ = true;
}

void AlifActivation::backward_into(const tensor::Tensor& grad_output,
                                   tensor::Tensor& grad_input, util::ThreadPool* pool) {
  const int64_t step = begin_backward(has_saved_, saved_vmt_, timesteps_, grad_output,
                                      grad_input, "AlifActivation");
  // The membrane recursion with the adaptation trace detached:
  //   eps[t] = delta[t] * phi(v[t] - theta[t]) + alpha * eps[t+1]
  // which is LIF's with the reset path detached.
  snn::LifConfig membrane;
  membrane.alpha = config_.alpha;
  membrane.threshold = config_.threshold;
  membrane.detach_reset = true;
  membrane.surrogate = config_.surrogate;
  snn::lif_backward(grad_output.data(), saved_vmt_.data(), timesteps_, step, membrane,
                    grad_input.data(), pool);
}

std::string AlifActivation::name() const {
  return "ALIF(beta=" + std::to_string(config_.beta) + ", T=" + std::to_string(timesteps_) + ")";
}

}  // namespace ndsnn::nn
