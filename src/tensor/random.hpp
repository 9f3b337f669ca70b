// Deterministic RNG used across the library.
//
// xoshiro256** seeded through SplitMix64, matching the reference
// implementations by Blackman & Vigna. Every component that needs
// randomness takes an `Rng&` (or a seed) explicitly so experiments are
// reproducible bit-for-bit across runs.
#pragma once

#include <cstdint>
#include <vector>

#include "util/thread_pool.hpp"

namespace ndsnn::tensor {

/// SplitMix64: seeds xoshiro and serves as a cheap stateless mixer.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}
  uint64_t next();

 private:
  uint64_t state_;
};

/// xoshiro256** 1.0 generator with convenience distributions.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Raw 64 random bits.
  uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform01();

  /// Uniform float in [lo, hi).
  float uniform(float lo, float hi);

  /// Uniform integer in [0, n). Requires n > 0.
  int64_t uniform_int(int64_t n);

  /// Standard normal (Box-Muller, cached second value).
  float normal();

  /// out[i] = mean + stddev * normal() for i < n: the same values, and
  /// the same stream state afterwards, as n calls in order. The uniforms
  /// are drawn in stream order; with a pool, the Box-Muller transforms
  /// (the log, sqrt and sincos that dominate) run on its lanes, a range
  /// of pairs each.
  void fill_normal(float* out, int64_t n, float mean, float stddev, util::ThreadPool* pool);

  /// True with probability p.
  bool bernoulli(double p);

  /// Fisher-Yates shuffle of an index vector.
  void shuffle(std::vector<int64_t>& indices);

  /// Derive an independent child stream (for per-layer / per-worker RNGs).
  [[nodiscard]] Rng fork();

 private:
  /// Box-Muller's first uniform, redrawn while it is ~0.
  double box_muller_u1();

  uint64_t s_[4];
  bool has_cached_normal_ = false;
  float cached_normal_ = 0.0F;
};

}  // namespace ndsnn::tensor
