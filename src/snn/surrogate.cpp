#include "snn/surrogate.hpp"

namespace ndsnn::snn {

const char* surrogate_name(SurrogateKind kind) {
  switch (kind) {
    case SurrogateKind::kAtan: return "atan";
    case SurrogateKind::kFastSigmoid: return "fast_sigmoid";
    case SurrogateKind::kRectangle: return "rectangle";
    case SurrogateKind::kTriangle: return "triangle";
  }
  return "unknown";
}

}  // namespace ndsnn::snn
