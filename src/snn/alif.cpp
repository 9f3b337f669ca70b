#include "snn/alif.hpp"

#include <stdexcept>

namespace ndsnn::snn {

void AlifConfig::validate() const {
  if (!(alpha > 0.0F && alpha <= 1.0F)) {
    throw std::invalid_argument("AlifConfig: alpha must be in (0, 1]");
  }
  if (threshold <= 0.0F) throw std::invalid_argument("AlifConfig: threshold must be > 0");
  if (beta < 0.0F) throw std::invalid_argument("AlifConfig: beta must be >= 0");
  if (!(rho >= 0.0F && rho < 1.0F)) {
    throw std::invalid_argument("AlifConfig: rho must be in [0, 1)");
  }
}

}  // namespace ndsnn::snn
