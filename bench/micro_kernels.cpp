// google-benchmark microbenchmarks of the computational kernels: GEMM,
// im2col, LIF step, surrogate gradient, drop/grow selection, and CSR
// spmm/spmm_t at the structured-sparsity patterns of Sec. III-D
// (2:4, 1:4, 4x4 blocks). These quantify
// where the training loop and the inference runtime spend their time.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "snn/lif.hpp"
#include "sparse/csr.hpp"
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

void BM_Im2col(benchmark::State& state) {
  ConvGeometry g;
  g.batch = 8;
  g.in_channels = 16;
  g.in_h = g.in_w = 32;
  g.kernel_h = g.kernel_w = 3;
  g.stride = 1;
  g.padding = 1;
  Rng rng(3);
  Tensor x(Shape{8, 16, 32, 32});
  x.fill_uniform(rng, -1.0F, 1.0F);
  (void)ndsnn::tensor::im2col(x, g);  // warm-up
  for (auto _ : state) {
    Tensor cols = ndsnn::tensor::im2col(x, g);
    benchmark::DoNotOptimize(cols.data());
  }
}
BENCHMARK(BM_Im2col)->Apply(MinOfRepeats);

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

/// B has 256 columns, conv-like: im2col L for a batch of 4 samples with
/// an 8x8 output map, which spmm writes as [4, 512, 64].
constexpr int64_t kSpmmCols = 256;
constexpr int64_t kSpmmBatches = 4;
/// spmm_t batch rows, linear-like (T*N for a serving batch).
constexpr int64_t kSpmmTRows = 64;

void BM_CsrSpmm(benchmark::State& state) {
  const Tensor a = make_pattern_matrix(state.range(0), 21);
  const auto csr = ndsnn::sparse::Csr::from_dense(a);
  Rng rng(22);
  Tensor b(Shape{512, kSpmmCols});
  b.fill_uniform(rng, -1.0F, 1.0F);
  (void)csr.spmm(b, kSpmmBatches);  // warm-up
  for (auto _ : state) {
    Tensor c = csr.spmm(b, kSpmmBatches);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetLabel(std::string(pattern_name(state.range(0))) + " nnz=" +
                 std::to_string(csr.nnz()));
  state.SetItemsProcessed(state.iterations() * 2 * csr.nnz() * kSpmmCols);
}
BENCHMARK(BM_CsrSpmm)->Apply(MinOfRepeats)->Arg(0)->Arg(1)->Arg(2);

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
