// Surrogate gradients for the Heaviside spike function.
//
// Forward: o = u(v - theta), the exact Heaviside step (Eq. 1b/1c).
// Backward: du/dx is replaced by a smooth pseudo-derivative phi(x) evaluated
// at x = v - theta. The paper (Eq. 3, following Fang et al. NeurIPS'21) uses
//
//     phi(x) = 1 / (1 + pi^2 x^2)
//
// which is the derivative of (1/pi) * atan(pi x) + 1/2 scaled to peak at 1.
// Alternatives are provided for the ablation benches.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numbers>

namespace ndsnn::snn {

/// Family of pseudo-derivatives phi(x); x is the membrane distance to
/// threshold (v - theta).
enum class SurrogateKind : uint8_t {
  kAtan,         // Eq. 3: 1 / (1 + pi^2 x^2)   (paper default)
  kFastSigmoid,  // 1 / (1 + |x|)^2
  kRectangle,    // 1[|x| < 0.5]
  kTriangle,     // max(0, 1 - |x|)
};

// heaviside and surrogate_grad are inline so the neuron loops that call
// them per element (lif_step, alif_step, the BPTT recursions) vectorise.

/// Heaviside step u(x): 0 for x < 0, else 1 (Eq. 1c).
[[nodiscard]] inline float heaviside(float x) { return x < 0.0F ? 0.0F : 1.0F; }

/// Pseudo-derivative phi(x) for the chosen family.
[[nodiscard]] inline float surrogate_grad(SurrogateKind kind, float x) {
  constexpr float pi2 = static_cast<float>(std::numbers::pi * std::numbers::pi);
  switch (kind) {
    case SurrogateKind::kAtan:
      return 1.0F / (1.0F + pi2 * x * x);
    case SurrogateKind::kFastSigmoid: {
      const float d = 1.0F + std::fabs(x);
      return 1.0F / (d * d);
    }
    case SurrogateKind::kRectangle:
      return std::fabs(x) < 0.5F ? 1.0F : 0.0F;
    case SurrogateKind::kTriangle:
      return std::max(0.0F, 1.0F - std::fabs(x));
  }
  return 0.0F;
}

/// Human-readable name ("atan", "fast_sigmoid", ...).
[[nodiscard]] const char* surrogate_name(SurrogateKind kind);

}  // namespace ndsnn::snn
