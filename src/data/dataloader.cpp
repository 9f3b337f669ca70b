#include "data/dataloader.hpp"

#include <numeric>
#include <stdexcept>

namespace ndsnn::data {

DataLoader::DataLoader(const Dataset& dataset, int64_t batch_size, uint64_t seed,
                       bool shuffle, bool drop_last)
    : dataset_(dataset),
      batch_size_(batch_size),
      shuffle_(shuffle),
      drop_last_(drop_last),
      rng_(seed) {
  if (batch_size_ < 1) throw std::invalid_argument("DataLoader: batch_size must be >= 1");
  order_.resize(static_cast<std::size_t>(dataset_.size()));
  std::iota(order_.begin(), order_.end(), 0);
  start_epoch();
}

void DataLoader::start_epoch() {
  cursor_ = 0;
  if (shuffle_) rng_.shuffle(order_);
}

std::optional<Batch> DataLoader::next() {
  const int64_t n = dataset_.size();
  if (cursor_ >= n) return std::nullopt;
  const int64_t remaining = n - cursor_;
  const int64_t take = std::min(batch_size_, remaining);
  if (take < batch_size_ && drop_last_) return std::nullopt;
  std::vector<int64_t> indices(order_.begin() + cursor_, order_.begin() + cursor_ + take);
  cursor_ += take;
  return make_batch(dataset_, indices, &util::ThreadPool::shared());
}

int64_t DataLoader::batches_per_epoch() const {
  const int64_t n = dataset_.size();
  if (drop_last_) return n / batch_size_;
  return (n + batch_size_ - 1) / batch_size_;
}

}  // namespace ndsnn::data
