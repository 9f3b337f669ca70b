// google-benchmark microbenchmarks of the computational kernels: GEMM,
// im2col, LIF step, surrogate gradient, drop/grow selection, the direct
// CSR conv2d next to im2col at the plan_batch LeNet-5's conv shapes, and
// CSR spmm_t at the structured-sparsity patterns of Sec. III-D (2:4,
// 1:4, 4x4 blocks). These quantify where the training loop and the
// inference runtime spend their time.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <vector>

#include "snn/lif.hpp"
#include "sparse/csr.hpp"
#include "sparse/mask.hpp"
#include "sparse/structured.hpp"
#include "sparse/topk.hpp"
#include "tensor/im2col.hpp"
#include "tensor/matmul.hpp"
#include "tensor/random.hpp"
#include "util/cpuinfo.hpp"

namespace {

namespace simd = ndsnn::util::simd;
using ndsnn::tensor::ConvGeometry;
using ndsnn::tensor::Rng;
using ndsnn::tensor::Shape;
using ndsnn::tensor::Tensor;

/// Noise discipline for a shared/1-core box: every benchmark runs 3
/// repetitions and reports aggregates only, including an explicit `min`
/// statistic — the least noise-sensitive location estimate, and the one
/// the snapshot comparisons should read. Bodies additionally run their
/// kernel once before the timed loop (google-benchmark's first timed
/// iteration otherwise pays the cold-cache cost into the mean).
void MinOfRepeats(benchmark::internal::Benchmark* b) {
  b->Repetitions(3)->ReportAggregatesOnly(true)->ComputeStatistics(
      "min",
      [](const std::vector<double>& v) { return *std::min_element(v.begin(), v.end()); });
}

void BM_Matmul(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a(Shape{n, n}), b(Shape{n, n});
  a.fill_uniform(rng, -1.0F, 1.0F);
  b.fill_uniform(rng, -1.0F, 1.0F);
  (void)ndsnn::tensor::matmul(a, b);  // warm-up
  for (auto _ : state) {
    Tensor c = ndsnn::tensor::matmul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Matmul)->Apply(MinOfRepeats)->Arg(64)->Arg(128)->Arg(256);

void BM_MatmulSparseA(benchmark::State& state) {
  // The zero-skip path used by pruned weight matrices.
  const int64_t n = 128;
  const double density = static_cast<double>(state.range(0)) / 100.0;
  Rng rng(2);
  Tensor a(Shape{n, n}), b(Shape{n, n});
  b.fill_uniform(rng, -1.0F, 1.0F);
  for (int64_t i = 0; i < a.numel(); ++i) {
    a.at(i) = rng.bernoulli(density) ? rng.uniform(-1.0F, 1.0F) : 0.0F;
  }
  (void)ndsnn::tensor::matmul(a, b);  // warm-up
  for (auto _ : state) {
    Tensor c = ndsnn::tensor::matmul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_MatmulSparseA)->Apply(MinOfRepeats)->Arg(100)->Arg(20)->Arg(5)->Arg(1);

void BM_LifForward(benchmark::State& state) {
  const int64_t t = state.range(0);
  ndsnn::snn::LifConfig cfg;
  ndsnn::snn::LifLayer lif(cfg, t);
  Rng rng(4);
  Tensor current(Shape{t * 32, 512});
  current.fill_uniform(rng, 0.0F, 2.0F);
  (void)lif.forward(current);  // warm-up
  for (auto _ : state) {
    Tensor spikes = lif.forward(current);
    benchmark::DoNotOptimize(spikes.data());
  }
  state.SetItemsProcessed(state.iterations() * current.numel());
}
BENCHMARK(BM_LifForward)->Apply(MinOfRepeats)->Arg(2)->Arg(5)->Arg(8);

void BM_LifBackward(benchmark::State& state) {
  const int64_t t = 5;
  ndsnn::snn::LifConfig cfg;
  ndsnn::snn::LifLayer lif(cfg, t);
  Rng rng(5);
  Tensor current(Shape{t * 32, 512});
  current.fill_uniform(rng, 0.0F, 2.0F);
  (void)lif.forward(current);
  Tensor g(current.shape());
  g.fill_uniform(rng, -1.0F, 1.0F);
  (void)lif.backward(g);  // warm-up
  for (auto _ : state) {
    Tensor gin = lif.backward(g);
    benchmark::DoNotOptimize(gin.data());
  }
}
BENCHMARK(BM_LifBackward)->Apply(MinOfRepeats);

void BM_ArgDrop(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(6);
  Tensor w(Shape{n});
  w.fill_uniform(rng, -1.0F, 1.0F);
  std::vector<int64_t> candidates(static_cast<std::size_t>(n));
  for (int64_t i = 0; i < n; ++i) candidates[static_cast<std::size_t>(i)] = i;
  (void)ndsnn::sparse::argdrop_smallest_magnitude(w, candidates, n / 10);  // warm-up
  for (auto _ : state) {
    auto picked = ndsnn::sparse::argdrop_smallest_magnitude(w, candidates, n / 10);
    benchmark::DoNotOptimize(picked.data());
  }
}
BENCHMARK(BM_ArgDrop)->Apply(MinOfRepeats)->Arg(10000)->Arg(100000);

// ------------------------------------------------ CSR direct conv
//
// The two convs of perfbench's plan_batch network (LeNet-5, 32x32 RGB,
// 5x5 kernels, padding 2) at its 64 plan rows (batch 32 x T = 2), with
// that network's kept-weight counts drawn at random. Arg: 0 = conv1
// (3 -> 6 channels, 87/450 kept), 1 = conv2 (6 -> 16 on the pooled
// 16x16 map, 146/2400 kept). BM_Im2col times, next to it, the patch
// matrix the dense-kernel route still builds at the same shapes.

struct PlanConv {
  int64_t in_channels, out_channels, image, kept;
};
constexpr PlanConv kPlanConvs[] = {{3, 6, 32, 87}, {6, 16, 16, 146}};
constexpr int64_t kPlanRows = 64;
constexpr int64_t kPlanKernel = 5;
constexpr int64_t kPlanPadding = 2;

Tensor plan_conv_input(const PlanConv& pc) {
  Rng rng(41);
  Tensor x(Shape{kPlanRows, pc.in_channels, pc.image, pc.image});
  x.fill_uniform(rng, 0.0F, 1.0F);
  return x;
}

void BM_CsrConv2d(benchmark::State& state) {
  const PlanConv& pc = kPlanConvs[state.range(0)];
  Rng rng(42);
  Tensor w(Shape{pc.out_channels, pc.in_channels, kPlanKernel, kPlanKernel});
  w.fill_uniform(rng, -0.5F, 0.5F);
  ndsnn::sparse::Mask(w.shape(), pc.kept, rng).apply(w);
  const auto csr = ndsnn::sparse::Csr::from_weights(w);
  const Tensor x = plan_conv_input(pc);
  (void)csr.conv2d(x, kPlanKernel, 1, kPlanPadding);  // warm-up
  for (auto _ : state) {
    Tensor y = csr.conv2d(x, kPlanKernel, 1, kPlanPadding);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetLabel("conv" + std::to_string(state.range(0) + 1) + " nnz=" +
                 std::to_string(csr.nnz()));
  state.SetItemsProcessed(state.iterations() * 2 * csr.nnz() * kPlanRows * pc.image *
                          pc.image);
}
BENCHMARK(BM_CsrConv2d)->Apply(MinOfRepeats)->Arg(0)->Arg(1);

/// Arg: 0 = a 3x3 conv (8 rows, 16 channels, 32x32, padding 1), 1 and
/// 2 = plan_batch's conv1 and conv2 (the patch matrix alone, at the
/// BM_CsrConv2d shapes).
void BM_Im2col(benchmark::State& state) {
  ConvGeometry g;
  Tensor x;
  if (state.range(0) == 0) {
    g.batch = 8;
    g.in_channels = 16;
    g.in_h = g.in_w = 32;
    g.kernel_h = g.kernel_w = 3;
    g.padding = 1;
    Rng rng(3);
    x = Tensor(Shape{8, 16, 32, 32});
    x.fill_uniform(rng, -1.0F, 1.0F);
  } else {
    const PlanConv& pc = kPlanConvs[state.range(0) - 1];
    g.batch = kPlanRows;
    g.in_channels = pc.in_channels;
    g.in_h = g.in_w = pc.image;
    g.kernel_h = g.kernel_w = kPlanKernel;
    g.padding = kPlanPadding;
    x = plan_conv_input(pc);
  }
  g.stride = 1;
  (void)ndsnn::tensor::im2col(x, g);  // warm-up
  for (auto _ : state) {
    Tensor cols = ndsnn::tensor::im2col(x, g);
    benchmark::DoNotOptimize(cols.data());
  }
}
BENCHMARK(BM_Im2col)->Apply(MinOfRepeats)->Arg(0)->Arg(1)->Arg(2);

// ------------------------------------------- CSR at structured patterns
//
// A 512x512 weight layer at the structured patterns of Sec. III-D.
// Pattern ids: 0 = 2:4, 1 = 1:4, 2 = random 4x4 block mask (25% of
// blocks kept).

Tensor make_pattern_matrix(int64_t pattern_id, uint64_t seed) {
  Rng rng(seed);
  Tensor a(Shape{512, 512});
  a.fill_uniform(rng, -1.0F, 1.0F);
  if (pattern_id == 0) {
    ndsnn::sparse::project_nm(a, {2, 4});
  } else if (pattern_id == 1) {
    ndsnn::sparse::project_nm(a, {1, 4});
  } else {
    for (int64_t rb = 0; rb < 512; rb += 4) {
      for (int64_t cb = 0; cb < 512; cb += 4) {
        if (rng.uniform01() < 0.75) {
          for (int64_t r = 0; r < 4; ++r) {
            for (int64_t c = 0; c < 4; ++c) a.at(rb + r, cb + c) = 0.0F;
          }
        }
      }
    }
  }
  return a;
}

const char* pattern_name(int64_t id) { return id == 0 ? "2:4" : id == 1 ? "1:4" : "blk4x4"; }

/// spmm_t batch rows, linear-like (T*N for a serving batch).
constexpr int64_t kSpmmTRows = 64;

void BM_CsrSpmmT(benchmark::State& state) {
  const Tensor a = make_pattern_matrix(state.range(0), 23);
  const auto csr = ndsnn::sparse::Csr::from_dense(a);
  Rng rng(24);
  Tensor b(Shape{kSpmmTRows, 512});
  b.fill_uniform(rng, -1.0F, 1.0F);
  (void)csr.spmm_t(b);  // warm-up
  for (auto _ : state) {
    Tensor c = csr.spmm_t(b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetLabel(pattern_name(state.range(0)));
  state.SetItemsProcessed(state.iterations() * 2 * csr.nnz() * kSpmmTRows);
}
BENCHMARK(BM_CsrSpmmT)->Apply(MinOfRepeats)->Arg(0)->Arg(1)->Arg(2);

// ---------------------------------------------------------- kernel tiers
//
// The fc1-scale layer ([120 x 400] at 0.9 unstructured sparsity, the
// shape the runtime's LinearOp gate targets) through each SIMD tier
// explicitly. Arg: tier id (1 = scalar, 2 = avx2). Tiers above what
// the box detects are skipped instead of measured — the dispatch layer
// would silently clamp the request and the "avx2" row would quietly
// time the scalar kernel.

Tensor make_fc1_matrix(uint64_t seed) {
  Rng rng(seed);
  Tensor a(Shape{120, 400});
  a.fill_uniform(rng, -0.12F, 0.12F);
  for (int64_t i = 0; i < a.numel(); ++i) {
    if (rng.uniform01() < 0.9) a.at(i) = 0.0F;
  }
  return a;
}

void BM_CsrSpmmTTier(benchmark::State& state) {
  const auto tier = static_cast<simd::Tier>(state.range(0));
  if (tier > simd::detected()) {
    state.SkipWithError("tier not available on this box");
    return;
  }
  const Tensor a = make_fc1_matrix(31);
  const auto csr = ndsnn::sparse::Csr::from_dense(a);
  Rng rng(32);
  Tensor b(Shape{256, 400});
  b.fill_uniform(rng, 0.0F, 1.0F);
  (void)csr.spmm_t(b, nullptr, tier);  // warm-up
  for (auto _ : state) {
    Tensor c = csr.spmm_t(b, nullptr, tier);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetLabel(simd::name(tier));
  state.SetItemsProcessed(state.iterations() * 2 * csr.nnz() * 256);
}
BENCHMARK(BM_CsrSpmmTTier)->Apply(MinOfRepeats)->Arg(1)->Arg(2);

}  // namespace

BENCHMARK_MAIN();
