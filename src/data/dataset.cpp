#include "data/dataset.hpp"

#include <algorithm>
#include <stdexcept>

namespace ndsnn::data {

Batch make_batch(const Dataset& dataset, const std::vector<int64_t>& indices,
                 util::ThreadPool* pool) {
  if (indices.empty()) throw std::invalid_argument("make_batch: empty index list");
  const int64_t c = dataset.channels();
  const int64_t s = dataset.image_size();
  const auto n = static_cast<int64_t>(indices.size());
  Batch batch;
  batch.images = tensor::Tensor(tensor::Shape{n, c, s, s});
  batch.labels.resize(indices.size());
  const int64_t sample_elems = c * s * s;
  // Grain of one sample: a 3x32x32 synthetic sample takes ~110 us, more
  // than waking a pool's lanes (~20 us on a 4-vCPU Xeon).
  util::ThreadPool::for_ranges(pool, n, /*grain=*/1, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      const Sample sample = dataset.get(indices[static_cast<std::size_t>(i)]);
      if (sample.image.numel() != sample_elems) {
        throw std::logic_error("make_batch: sample size mismatch");
      }
      std::copy(sample.image.data(), sample.image.data() + sample_elems,
                batch.images.data() + i * sample_elems);
      batch.labels[static_cast<std::size_t>(i)] = sample.label;
    }
  });
  return batch;
}

}  // namespace ndsnn::data
