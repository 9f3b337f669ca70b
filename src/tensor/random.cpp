#include "tensor/random.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>
#include <vector>

namespace ndsnn::tensor {

uint64_t SplitMix64::next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {
inline uint64_t rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rng::Rng(uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& s : s_) s = sm.next();
}

uint64_t Rng::next_u64() {
  const uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform01() {
  // 53 random mantissa bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

float Rng::uniform(float lo, float hi) {
  return lo + static_cast<float>(uniform01()) * (hi - lo);
}

int64_t Rng::uniform_int(int64_t n) {
  if (n <= 0) throw std::invalid_argument("Rng::uniform_int: n must be > 0");
  // Rejection-free modulo is fine here: n << 2^64 so bias is negligible for
  // simulation purposes, but we keep the debiased loop for exactness.
  const uint64_t un = static_cast<uint64_t>(n);
  const uint64_t limit = UINT64_MAX - UINT64_MAX % un;
  uint64_t x = next_u64();
  while (x >= limit) x = next_u64();
  return static_cast<int64_t>(x % un);
}

namespace {

/// Box-Muller pairs per lane below which fill_normal runs inline: a pair
/// takes ~70 ns on a 4-vCPU Xeon, so 4 K take ~0.3 ms, well past the
/// ~20 us it takes to wake a pool's lanes.
constexpr int64_t kNormalGrain = 4096;

/// The Box-Muller transform of (u1, u2): the cos normal, then the sin one.
struct NormalPair {
  float first, second;
};

inline NormalPair box_muller(double u1, double u2) {
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  return {static_cast<float>(radius * std::cos(angle)),
          static_cast<float>(radius * std::sin(angle))};
}

}  // namespace

double Rng::box_muller_u1() {
  double u1 = uniform01();
  while (u1 <= 1e-12) u1 = uniform01();
  return u1;
}

float Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  const double u1 = box_muller_u1();
  const NormalPair pair = box_muller(u1, uniform01());
  cached_normal_ = pair.second;
  has_cached_normal_ = true;
  return pair.first;
}

void Rng::fill_normal(float* out, int64_t n, float mean, float stddev, util::ThreadPool* pool) {
  int64_t i = 0;
  if (n > 0 && has_cached_normal_) {
    out[i++] = mean + stddev * normal();
  }
  const int64_t pairs = (n - i) / 2;
  std::vector<double> u(static_cast<std::size_t>(2 * pairs));
  for (int64_t p = 0; p < pairs; ++p) {
    u[static_cast<std::size_t>(2 * p)] = box_muller_u1();
    u[static_cast<std::size_t>(2 * p + 1)] = uniform01();
  }
  util::ThreadPool::for_ranges(pool, pairs, kNormalGrain, [&](int64_t p0, int64_t p1) {
    for (int64_t p = p0; p < p1; ++p) {
      const NormalPair pair =
          box_muller(u[static_cast<std::size_t>(2 * p)], u[static_cast<std::size_t>(2 * p + 1)]);
      out[i + 2 * p] = mean + stddev * pair.first;
      out[i + 2 * p + 1] = mean + stddev * pair.second;
    }
  });
  if (i + 2 * pairs < n) out[n - 1] = mean + stddev * normal();  // caches its pair's second
}

bool Rng::bernoulli(double p) { return uniform01() < p; }

void Rng::shuffle(std::vector<int64_t>& indices) {
  for (std::size_t i = indices.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(uniform_int(static_cast<int64_t>(i)));
    std::swap(indices[i - 1], indices[j]);
  }
}

Rng Rng::fork() { return Rng(next_u64()); }

}  // namespace ndsnn::tensor
