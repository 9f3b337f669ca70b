// Masked weight gradients and weight-sparse input gradients of the
// weight layers: bit for bit the dense kernels' results, with the
// pruned gradient entries zeroed afterwards (as the sparse-training
// methods do), on both kernel tiers.
#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "../testing_env.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "tensor/im2col.hpp"
#include "tensor/matmul.hpp"
#include "tensor/random.hpp"
#include "util/cpuinfo.hpp"

namespace ndsnn::nn {
namespace {

using difftest::TierGuard;
using tensor::Rng;
using tensor::Shape;
using tensor::Tensor;

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  const auto bytes = static_cast<std::size_t>(a.numel()) * sizeof(float);
  return a.shape() == b.shape() && std::memcmp(a.data(), b.data(), bytes) == 0;
}

Tensor random_tensor(Shape shape, Rng& rng) {
  Tensor t(std::move(shape));
  t.fill_uniform(rng, -1.0F, 1.0F);
  return t;
}

/// Zero the entries whose keep bit is 0, as mask_gradients() does.
void apply_keep(Tensor& grad, const std::vector<uint8_t>& keep) {
  for (int64_t i = 0; i < grad.numel(); ++i) {
    if (keep[static_cast<std::size_t>(i)] == 0) grad.at(i) = 0.0F;
  }
}

/// col2im(Wᵀ · gy) over the whole [C*K*K, M*OH*OW] gradient matrix: the
/// dense input gradient the weight-sparse walk must reproduce.
Tensor whole_matrix_input_grad(const Conv2d& layer, const Tensor& grad_output,
                               const Tensor& input) {
  tensor::ConvGeometry g;
  g.batch = input.dim(0);
  g.in_channels = layer.in_channels();
  g.in_h = input.dim(2);
  g.in_w = input.dim(3);
  g.kernel_h = g.kernel_w = layer.kernel();
  g.stride = layer.stride();
  g.padding = layer.padding();
  const int64_t m = grad_output.dim(0), f = grad_output.dim(1);
  const int64_t plane = grad_output.dim(2) * grad_output.dim(3);
  Tensor gy(Shape{f, m * plane});
  for (int64_t n = 0; n < m; ++n) {
    for (int64_t ff = 0; ff < f; ++ff) {
      for (int64_t p = 0; p < plane; ++p) {
        gy.at(ff, n * plane + p) = grad_output.at((n * f + ff) * plane + p);
      }
    }
  }
  const Tensor wmat = layer.weight().reshaped(Shape{f, g.patch_rows()});
  return tensor::col2im(tensor::matmul_tn(wmat, gy), g);
}

enum class MaskKind { kSparse, kAllActive };

/// A keep mask over [F, C*K*K] at ~30% density with one all-inactive
/// filter and one all-inactive patch column, or all ones. The weights
/// are pruned to the mask, and a few kept weights sit at exactly 0, as
/// freshly grown weights do.
std::vector<uint8_t> make_mask(Conv2d& layer, MaskKind kind, Rng& rng) {
  const int64_t f = layer.out_channels();
  const int64_t ckk = layer.weight().numel() / f;
  std::vector<uint8_t> keep(static_cast<std::size_t>(f * ckk), 1);
  if (kind == MaskKind::kSparse) {
    for (auto& bit : keep) bit = rng.uniform(0.0F, 1.0F) < 0.3F ? 1 : 0;
    for (int64_t j = 0; j < ckk; ++j) keep[static_cast<std::size_t>(j)] = 0;  // filter 0
    for (int64_t i = 0; i < f; ++i) keep[static_cast<std::size_t>(i * ckk + 1)] = 0;
  }
  int64_t grown = 0;
  for (int64_t i = 0; i < layer.weight().numel(); ++i) {
    if (keep[static_cast<std::size_t>(i)] == 0) {
      layer.weight().at(i) = 0.0F;
    } else if (grown < 3 && i % 5 == 2) {
      layer.weight().at(i) = 0.0F;  // active at value 0
      ++grown;
    }
  }
  return keep;
}

TEST(SparseGradTest, ConvMaskedGradAndSparseDxMatchDenseThenMask) {
  struct Config {
    int64_t c, f, k, stride, padding, size;
    bool bias;
  };
  const std::vector<Config> configs = {{3, 4, 3, 2, 1, 9, true},
                                       {2, 5, 5, 1, 2, 8, false},
                                       {6, 16, 5, 1, 2, 8, false},
                                       {3, 7, 3, 1, 1, 7, true}};
  for (const util::simd::Tier tier : {util::simd::Tier::kScalar, util::simd::Tier::kAvx2}) {
    const TierGuard guard(tier);
    for (const Config& cfg : configs) {
      for (const MaskKind kind : {MaskKind::kSparse, MaskKind::kAllActive}) {
        // A full batch, then a partial one through the same layers.
        for (const int64_t batch : {6, 3}) {
          SCOPED_TRACE(testing::Message()
                       << util::simd::name(tier) << " c=" << cfg.c << " f=" << cfg.f
                       << " k=" << cfg.k << " s=" << cfg.stride << " p=" << cfg.padding
                       << " bias=" << cfg.bias << " sparse=" << (kind == MaskKind::kSparse)
                       << " batch=" << batch);
          Rng init(21);
          Conv2d masked(cfg.c, cfg.f, cfg.k, cfg.stride, cfg.padding, init, cfg.bias);
          Rng mask_rng(22);
          const std::vector<uint8_t> keep = make_mask(masked, kind, mask_rng);
          Rng twin_init(23);
          Conv2d dense(cfg.c, cfg.f, cfg.k, cfg.stride, cfg.padding, twin_init, cfg.bias);
          const std::vector<ParamRef> mp = masked.params();
          const std::vector<ParamRef> dp = dense.params();
          for (std::size_t i = 0; i < mp.size(); ++i) *dp[i].value = *mp[i].value;
          ASSERT_NE(mp[0].grad_mask, nullptr);
          mp[0].grad_mask->keep_only(keep);
          if (kind == MaskKind::kSparse) {
            ASSERT_TRUE(Conv2d::masked_grad_pays(mp[0].grad_mask->density(), cfg.f));
          }

          Rng data(24);
          const Tensor x = random_tensor(Shape{batch, cfg.c, cfg.size, cfg.size}, data);
          zero_grads(mp);
          zero_grads(dp);
          const Tensor y = masked.forward(x, true);
          ASSERT_TRUE(bitwise_equal(y, dense.forward(x, true)));
          const Tensor gy = random_tensor(y.shape(), data);
          const Tensor dx = masked.backward(gy);
          const Tensor dx_dense = dense.backward(gy);

          EXPECT_TRUE(bitwise_equal(dx, dx_dense)) << "dx";
          EXPECT_TRUE(bitwise_equal(dx, whole_matrix_input_grad(dense, gy, x)))
              << "dx vs col2im(Wᵀ·gy)";
          if (kind == MaskKind::kSparse) {
            // The masked kernel leaves the pruned entries as they were.
            for (int64_t i = 0; i < mp[0].grad->numel(); ++i) {
              if (keep[static_cast<std::size_t>(i)] == 0) {
                ASSERT_EQ(mp[0].grad->at(i), 0.0F) << "pruned entry " << i << " written";
              }
            }
          }
          Tensor dw_dense = *dp[0].grad;
          apply_keep(dw_dense, keep);
          Tensor dw_masked = *mp[0].grad;
          apply_keep(dw_masked, keep);
          EXPECT_TRUE(bitwise_equal(dw_masked, dw_dense)) << "dW";
          if (cfg.bias) {
            EXPECT_TRUE(bitwise_equal(*mp[1].grad, *dp[1].grad)) << "db";
          }

          // accumulate_grads (first layer: no dx) keeps the same dW.
          zero_grads(mp);
          masked.accumulate_grads(gy, nullptr);
          Tensor dw_first = *mp[0].grad;
          apply_keep(dw_first, keep);
          EXPECT_TRUE(bitwise_equal(dw_first, dw_dense)) << "dW via accumulate_grads";
        }
      }
    }
  }
}

TEST(SparseGradTest, ConvGradMaskOfWrongSizeThrows) {
  Rng rng(31);
  Conv2d layer(2, 3, 3, 1, 1, rng);
  layer.params()[0].grad_mask->keep_only(std::vector<uint8_t>(5, 1));
  const Tensor y = layer.forward(Tensor(Shape{1, 2, 4, 4}), true);
  EXPECT_THROW((void)layer.backward(Tensor(y.shape())), std::logic_error);
}

TEST(SparseGradTest, LinearSparseDxMatchesDenseGemm) {
  for (const util::simd::Tier tier : {util::simd::Tier::kScalar, util::simd::Tier::kAvx2}) {
    const TierGuard guard(tier);
    for (const double density : {0.05, 0.2, 1.0}) {
      // Partial batches: row counts off the 8- and 16-lane vectors.
      for (const int64_t rows : {13, 4}) {
        SCOPED_TRACE(testing::Message() << util::simd::name(tier) << " density=" << density
                                        << " rows=" << rows);
        Rng rng(41);
        Linear layer(37, 11, rng);
        for (int64_t i = 0; i < layer.weight().numel(); ++i) {
          if (rng.uniform(0.0F, 1.0F) >= density) layer.weight().at(i) = 0.0F;
        }
        for (int64_t j = 0; j < 37; ++j) layer.weight().at(3, j) = 0.0F;  // empty output row
        for (int64_t o = 0; o < 11; ++o) layer.weight().at(o, 5) = 0.0F;  // empty input column
        Rng data(42);
        const Tensor x = random_tensor(Shape{rows, 37}, data);
        (void)layer.forward(x, true);
        Tensor gy = random_tensor(Shape{rows, 11}, data);
        gy.at(1, 2) = 0.0F;  // a zero gradient term the GEMM skips
        zero_grads(layer.params());
        const Tensor dx = layer.backward(gy);
        EXPECT_TRUE(bitwise_equal(dx, tensor::matmul(gy, layer.weight())));
      }
    }
  }
}

}  // namespace
}  // namespace ndsnn::nn
