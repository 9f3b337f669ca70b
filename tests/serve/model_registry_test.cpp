// ModelRegistry: lazy loading, LRU memory budgeting (requantise before
// evict), and eviction safety for in-flight holders.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "nn/models/zoo.hpp"
#include "runtime/compiled_network.hpp"
#include "serve/model_registry.hpp"
#include "sparse/mask.hpp"
#include "tensor/random.hpp"

namespace ndsnn::serve {
namespace {

using runtime::CompiledNetwork;
using runtime::CompileOptions;
using tensor::Rng;
using tensor::Shape;
using tensor::Tensor;

/// Shared masked network; each loader compiles its own plan from it
/// with whatever options the registry asks for.
std::shared_ptr<nn::SpikingNetwork> make_net(uint64_t seed, int64_t image_size = 16) {
  nn::ModelSpec spec;
  spec.in_channels = 1;
  spec.image_size = image_size;
  spec.timesteps = 2;
  spec.seed = seed;
  auto net = nn::make_lenet5(spec);
  Rng rng(seed + 1);
  for (const auto& p : net->params()) {
    if (!p.prunable) continue;
    const auto active = static_cast<int64_t>(static_cast<double>(p.value->numel()) * 0.1);
    const sparse::Mask mask(p.value->shape(), active, rng);
    mask.apply(*p.value);
  }
  return net;
}

ModelRegistry::Loader loader_for(const std::shared_ptr<nn::SpikingNetwork>& net) {
  return [net](const CompileOptions& opts) { return CompiledNetwork::compile(*net, opts); };
}

TEST(ModelRegistryTest, LoadsLazilyAndCachesAcrossAcquires) {
  ModelRegistry registry;
  registry.add("a", loader_for(make_net(3)));
  EXPECT_EQ(registry.loads(), 0);
  EXPECT_FALSE(registry.resident("a"));
  const auto first = registry.acquire("a");
  EXPECT_EQ(registry.loads(), 1);
  EXPECT_TRUE(registry.resident("a"));
  const auto second = registry.acquire("a");
  EXPECT_EQ(registry.loads(), 1);  // cached, not reloaded
  EXPECT_EQ(first.get(), second.get());
  EXPECT_GT(registry.resident_bytes(), 0);
}

TEST(ModelRegistryTest, UnknownAndDuplicateNamesThrow) {
  ModelRegistry registry;
  registry.add("a", loader_for(make_net(5)));
  EXPECT_THROW((void)registry.acquire("nope"), std::out_of_range);
  EXPECT_THROW(registry.add("a", loader_for(make_net(5))), std::invalid_argument);
  EXPECT_THROW(registry.add("null", nullptr), std::invalid_argument);
  EXPECT_TRUE(registry.has("a"));
  EXPECT_FALSE(registry.has("nope"));
}

TEST(ModelRegistryTest, BudgetRequantisesThenEvictsTheColdestModel) {
  const auto net = make_net(7);
  // Measure one fp32 plan so the budget can be pinned just above it:
  // two resident fp32 plans cannot fit, forcing pressure on the second
  // acquire.
  const int64_t fp32_bytes = CompiledNetwork::compile(*net).stored_bytes();
  RegistryOptions opts;
  opts.mem_budget_bytes = fp32_bytes + fp32_bytes / 2;
  ModelRegistry registry(opts);
  registry.add("a", loader_for(net));
  registry.add("b", loader_for(make_net(8)));

  const auto a = registry.acquire("a");  // fits alone
  EXPECT_EQ(registry.evictions(), 0);
  EXPECT_EQ(registry.requantisations(), 0);

  const auto b = registry.acquire("b");  // over budget: squeeze "a"
  // Cold "a" is requantised to int8 first; eviction only if the shrink
  // was not enough for this budget (int8 planes are ~4x smaller, so
  // fp32 + int8 fits in 1.5x and "a" must survive as int8).
  EXPECT_GE(registry.requantisations(), 1);
  EXPECT_LE(registry.resident_bytes(), opts.mem_budget_bytes);
  EXPECT_TRUE(registry.resident("b"));

  // The requantised plan still serves (and the registry never touched
  // the shared_ptr the caller holds).
  Rng rng(9);
  Tensor batch(Shape{2, 1, 16, 16});
  batch.fill_uniform(rng, 0.0F, 1.0F);
  const Tensor logits = registry.acquire("a")->executor().submit({batch, {}}).get().logits;
  EXPECT_EQ(logits.dim(0), 2);
}

TEST(ModelRegistryTest, EvictsWhenRequantisingCannotFitAndReloadsOnDemand) {
  const auto net = make_net(11);
  CompileOptions int8_opts;
  int8_opts.weight_precision = runtime::WeightPrecision::kInt8;
  const int64_t int8_bytes = CompiledNetwork::compile(*net, int8_opts).stored_bytes();
  // Budget below two *int8* plans: requantising alone can never fit two
  // models, so the second acquire must evict the first outright.
  RegistryOptions opts;
  opts.mem_budget_bytes = int8_bytes + int8_bytes / 2;
  ModelRegistry registry(opts);
  registry.add("a", loader_for(net));
  registry.add("b", loader_for(make_net(12)));

  const auto a = registry.acquire("a");
  (void)registry.acquire("b");
  EXPECT_GE(registry.evictions(), 1);
  EXPECT_FALSE(registry.resident("a"));
  EXPECT_TRUE(registry.resident("b"));

  // The evicted model's holder keeps working: eviction drops the
  // registry's reference, never the plan under in-flight work.
  Rng rng(13);
  Tensor batch(Shape{1, 1, 16, 16});
  batch.fill_uniform(rng, 0.0F, 1.0F);
  EXPECT_EQ(a->executor().submit({batch, {}}).get().logits.dim(0), 1);

  // Re-acquiring an evicted model reloads it through the Loader (the
  // budgeter may trigger further loads squeezing "b", hence GE).
  const int64_t loads_before = registry.loads();
  const auto again = registry.acquire("a");
  EXPECT_GE(registry.loads(), loads_before + 1);
  EXPECT_TRUE(registry.resident("a"));
  EXPECT_NE(again.get(), a.get());
}

TEST(ModelRegistryTest, ConcurrentAcquiresOfAColdModelLoadItOnce) {
  ModelRegistry registry;
  registry.add("a", loader_for(make_net(41)));
  // Racing acquires must wait out one shared compile (per-entry loading
  // state), not each run the Loader themselves.
  std::vector<std::shared_ptr<ServedModel>> got(4);
  std::vector<std::thread> threads;
  threads.reserve(got.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    threads.emplace_back([&registry, &got, i] { got[i] = registry.acquire("a"); });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(registry.loads(), 1);
  for (const auto& g : got) {
    ASSERT_NE(g, nullptr);
    EXPECT_EQ(g.get(), got[0].get());
  }
}

TEST(ModelRegistryTest, RestoresRegisteredPrecisionWhenHeadroomReturns) {
  const auto small_a = make_net(31);
  const auto small_c = make_net(32);
  const auto big_b = make_net(33, /*image_size=*/48);
  const int64_t a_fp32 = CompiledNetwork::compile(*small_a).stored_bytes();
  const int64_t c_fp32 = CompiledNetwork::compile(*small_c).stored_bytes();
  const int64_t b_fp32 = CompiledNetwork::compile(*big_b).stored_bytes();
  CompileOptions int8_opts;
  int8_opts.weight_precision = runtime::WeightPrecision::kInt8;
  const int64_t a_int8 = CompiledNetwork::compile(*small_a, int8_opts).stored_bytes();
  const int64_t b_int8 = CompiledNetwork::compile(*big_b, int8_opts).stored_bytes();
  ASSERT_GE(b_fp32, 4 * a_fp32);  // premise: "b" dwarfs the small models

  // Budget admits int8 "a" + fp32 "b" with a sliver to spare — tight
  // enough that fp32 "a" + fp32 "b" does not fit.
  RegistryOptions opts;
  opts.mem_budget_bytes = a_int8 + b_fp32 + (a_fp32 - a_int8) / 2;
  ModelRegistry registry(opts);
  registry.add("a", loader_for(small_a));
  registry.add("b", loader_for(big_b));
  registry.add("c", loader_for(small_c));

  (void)registry.acquire("a");  // fits alone at full precision
  (void)registry.acquire("b");  // over budget: cold "a" -> int8
  EXPECT_EQ(registry.requantisations(), 1);
  EXPECT_EQ(registry.resident_bytes(), a_int8 + b_fp32);

  (void)registry.acquire("c");  // over again: "b" (coldest fp32) -> int8
  EXPECT_EQ(registry.requantisations(), 2);
  EXPECT_EQ(registry.evictions(), 0);
  EXPECT_EQ(registry.resident_bytes(), a_int8 + b_int8 + c_fp32);

  // Squeezing "b" freed far more than "a" needs: the next acquire of
  // "a" restores its registered fp32 precision instead of pinning it at
  // int8 forever.
  (void)registry.acquire("a");
  EXPECT_EQ(registry.resident_bytes(), a_fp32 + b_int8 + c_fp32);
  EXPECT_EQ(registry.requantisations(), 2);  // a restore is not a requantisation
  EXPECT_EQ(registry.evictions(), 0);

  // And it is stable: re-acquiring does not thrash through reloads.
  const int64_t loads_before = registry.loads();
  (void)registry.acquire("a");
  EXPECT_EQ(registry.loads(), loads_before);
}

TEST(ModelRegistryTest, NoBudgetMeansNothingIsEverSquuezed) {
  ModelRegistry registry;  // mem_budget_bytes = 0: unlimited
  registry.add("a", loader_for(make_net(15)));
  registry.add("b", loader_for(make_net(16)));
  registry.add("c", loader_for(make_net(17)));
  (void)registry.acquire("a");
  (void)registry.acquire("b");
  (void)registry.acquire("c");
  EXPECT_EQ(registry.evictions(), 0);
  EXPECT_EQ(registry.requantisations(), 0);
  EXPECT_TRUE(registry.resident("a"));
  EXPECT_TRUE(registry.resident("b"));
  EXPECT_TRUE(registry.resident("c"));
  EXPECT_EQ(registry.names().size(), 3U);
}

}  // namespace
}  // namespace ndsnn::serve
