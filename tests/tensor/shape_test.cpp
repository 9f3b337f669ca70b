#include "tensor/shape.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace ndsnn::tensor {
namespace {

TEST(ShapeTest, DefaultIsScalar) {
  Shape s;
  EXPECT_EQ(s.rank(), 0);
  EXPECT_EQ(s.numel(), 1);
}

TEST(ShapeTest, InitializerList) {
  Shape s{2, 3, 4};
  EXPECT_EQ(s.rank(), 3);
  EXPECT_EQ(s.dim(0), 2);
  EXPECT_EQ(s.dim(1), 3);
  EXPECT_EQ(s.dim(2), 4);
  EXPECT_EQ(s.numel(), 24);
}

TEST(ShapeTest, NegativeIndexing) {
  Shape s{2, 3, 4};
  EXPECT_EQ(s.dim(-1), 4);
  EXPECT_EQ(s.dim(-3), 2);
}

TEST(ShapeTest, OutOfRangeThrows) {
  Shape s{2, 3};
  EXPECT_THROW((void)s.dim(2), std::out_of_range);
  EXPECT_THROW((void)s.dim(-3), std::out_of_range);
}

TEST(ShapeTest, ZeroDimRejected) {
  EXPECT_THROW(Shape({2, 0, 3}), std::invalid_argument);
  EXPECT_THROW(Shape({-1}), std::invalid_argument);
}

TEST(ShapeTest, AssignKeepsStorageAndRejectsZeroDimsUnchanged) {
  Shape s{2, 3, 4};
  const int64_t* storage = s.dims().data();
  s.assign({5, 6});
  EXPECT_EQ(s, (Shape{5, 6}));
  EXPECT_EQ(s.dims().data(), storage);
  EXPECT_THROW(s.assign({5, 0}), std::invalid_argument);
  EXPECT_EQ(s, (Shape{5, 6}));
}

TEST(ShapeTest, RowMajorStrides) {
  Shape s{2, 3, 4};
  const auto strides = s.strides();
  ASSERT_EQ(strides.size(), 3U);
  EXPECT_EQ(strides[0], 12);
  EXPECT_EQ(strides[1], 4);
  EXPECT_EQ(strides[2], 1);
}

TEST(ShapeTest, Equality) {
  EXPECT_EQ(Shape({2, 3}), Shape({2, 3}));
  EXPECT_NE(Shape({2, 3}), Shape({3, 2}));
  EXPECT_NE(Shape({2, 3}), Shape({2, 3, 1}));
}

TEST(ShapeTest, Str) {
  EXPECT_EQ(Shape({2, 3}).str(), "[2, 3]");
  EXPECT_EQ(Shape().str(), "[]");
}

}  // namespace
}  // namespace ndsnn::tensor
