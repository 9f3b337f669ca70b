#include "data/dataloader.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <set>

#include "data/synthetic.hpp"

namespace ndsnn::data {
namespace {

SyntheticSpec tiny(int64_t n = 20) {
  SyntheticSpec spec;
  spec.num_classes = 4;
  spec.channels = 1;
  spec.image_size = 8;
  spec.train_size = n;
  return spec;
}

TEST(DataLoaderTest, CoversWholeDatasetOnce) {
  SyntheticVision ds(tiny(20));
  DataLoader loader(ds, 8, /*seed=*/1);
  loader.start_epoch();
  int64_t seen = 0;
  while (auto batch = loader.next()) seen += batch->size();
  EXPECT_EQ(seen, 20);
}

TEST(DataLoaderTest, BatchesPerEpoch) {
  SyntheticVision ds(tiny(20));
  DataLoader keep(ds, 8, 1, true, /*drop_last=*/false);
  EXPECT_EQ(keep.batches_per_epoch(), 3);
  DataLoader drop(ds, 8, 1, true, /*drop_last=*/true);
  EXPECT_EQ(drop.batches_per_epoch(), 2);
}

TEST(DataLoaderTest, DropLastSkipsPartialBatch) {
  SyntheticVision ds(tiny(20));
  DataLoader loader(ds, 8, 1, true, /*drop_last=*/true);
  loader.start_epoch();
  int64_t seen = 0;
  while (auto batch = loader.next()) {
    EXPECT_EQ(batch->size(), 8);
    seen += batch->size();
  }
  EXPECT_EQ(seen, 16);
}

TEST(DataLoaderTest, ShuffleChangesOrderBetweenEpochs) {
  SyntheticVision ds(tiny(40));
  DataLoader loader(ds, 40, /*seed=*/3);
  loader.start_epoch();
  const auto b1 = loader.next();
  loader.start_epoch();
  const auto b2 = loader.next();
  ASSERT_TRUE(b1 && b2);
  EXPECT_NE(b1->labels, b2->labels);
}

TEST(DataLoaderTest, NoShuffleIsSequential) {
  SyntheticVision ds(tiny(12));
  DataLoader loader(ds, 12, 1, /*shuffle=*/false);
  loader.start_epoch();
  const auto batch = loader.next();
  ASSERT_TRUE(batch);
  for (int64_t i = 0; i < 12; ++i) {
    EXPECT_EQ(batch->labels[static_cast<std::size_t>(i)], i % 4);
  }
}

TEST(DataLoaderTest, BatchImagesShapedNCHW) {
  SyntheticVision ds(tiny(8));
  DataLoader loader(ds, 4, 1);
  loader.start_epoch();
  const auto batch = loader.next();
  ASSERT_TRUE(batch);
  EXPECT_EQ(batch->images.shape(), tensor::Shape({4, 1, 8, 8}));
}

TEST(DataLoaderTest, BadBatchSizeThrows) {
  SyntheticVision ds(tiny());
  EXPECT_THROW(DataLoader(ds, 0, 1), std::invalid_argument);
}

TEST(MakeBatchTest, EmptyIndicesThrows) {
  SyntheticVision ds(tiny());
  EXPECT_THROW((void)make_batch(ds, {}), std::invalid_argument);
}

// make_batch fetches a batch's samples on the lanes of a pool, each into
// its own slot: on 1..4 lanes the batch is bitwise the serial one, for
// batches of one, a ragged few and more samples than lanes.
TEST(DataLoaderTest, MakeBatchOnPoolsMatchesSerialBitwise) {
  SyntheticSpec spec = tiny(40);
  spec.channels = 3;
  SyntheticVision ds(spec);
  const std::vector<std::vector<int64_t>> index_sets = {
      {7}, {3, 1, 4}, {0, 5, 9, 2, 6, 8, 1, 3, 7, 11, 13, 12, 10, 39, 38, 20, 21}};
  for (int64_t lanes = 1; lanes <= 4; ++lanes) {
    util::ThreadPool pool(lanes);
    for (const auto& indices : index_sets) {
      const Batch ref = make_batch(ds, indices);
      const Batch got = make_batch(ds, indices, &pool);
      ASSERT_EQ(got.images.shape(), ref.images.shape());
      EXPECT_EQ(std::memcmp(got.images.data(), ref.images.data(),
                            static_cast<std::size_t>(ref.images.numel()) * sizeof(float)),
                0)
          << indices.size() << " samples, " << lanes << " lanes";
      EXPECT_EQ(got.labels, ref.labels);
    }
  }
}

}  // namespace
}  // namespace ndsnn::data
