// Dataset interface: indexed access to (image, label) pairs.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"
#include "util/thread_pool.hpp"

namespace ndsnn::data {

/// One labelled sample; image is [C, H, W].
struct Sample {
  tensor::Tensor image;
  int64_t label = 0;
};

/// get() must be safe to call from several threads at once: make_batch
/// synthesizes a batch's samples on the lanes of a pool.
class Dataset {
 public:
  virtual ~Dataset() = default;
  [[nodiscard]] virtual int64_t size() const = 0;
  /// Sample `index`, a pure function of the index (no state changes).
  [[nodiscard]] virtual Sample get(int64_t index) const = 0;
  [[nodiscard]] virtual int64_t num_classes() const = 0;
  [[nodiscard]] virtual int64_t channels() const = 0;
  [[nodiscard]] virtual int64_t image_size() const = 0;
};

/// Stack samples [indices] into a batch tensor [N, C, H, W] + labels.
struct Batch {
  tensor::Tensor images;
  std::vector<int64_t> labels;
  [[nodiscard]] int64_t size() const { return static_cast<int64_t>(labels.size()); }
};

/// With a pool, the samples are fetched on its lanes, a range of them per
/// lane, each into its own slot: the batch is bitwise the serial one.
[[nodiscard]] Batch make_batch(const Dataset& dataset, const std::vector<int64_t>& indices,
                               util::ThreadPool* pool = nullptr);

}  // namespace ndsnn::data
