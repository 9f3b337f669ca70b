// Post-training N:M deployment pass (Sec. III-D).
//
// NDSNN trains unstructured masks; structured-sparsity hardware wants
// N:M patterns. This pass projects every prunable weight tensor of a
// trained network onto the pattern in place (keeping the N largest
// magnitudes per group of M) and reports the magnitude mass each layer
// loses — the accuracy-relevant damage of the projection. The runtime
// compiles a projected network like any other masked one: layers at or
// above the compiler's 0.5 sparsity bar (2:4 sits exactly on it) lower
// onto element-wise CSR, which stores exactly the surviving N-of-M
// entries.
#pragma once

#include <string>
#include <vector>

#include "nn/network.hpp"
#include "sparse/structured.hpp"

namespace ndsnn::core {

/// Per-parameter outcome of the projection.
struct NmLayerReport {
  std::string param;       ///< ParamRef name, e.g. "conv1.weight"
  int64_t weights = 0;     ///< total elements
  double loss = 0.0;       ///< fraction of |w| mass the projection removed
  double sparsity = 0.0;   ///< zero fraction after projecting
};

/// Project every prunable parameter of `net` onto `pattern` in place and
/// return one report entry per parameter, in network order. Weights that
/// already satisfy the pattern are untouched (loss 0).
std::vector<NmLayerReport> project_network_nm(nn::SpikingNetwork& net,
                                              const sparse::NmPattern& pattern);

/// Parameter-weighted mean projection loss over a report.
[[nodiscard]] double mean_projection_loss(const std::vector<NmLayerReport>& report);

}  // namespace ndsnn::core
