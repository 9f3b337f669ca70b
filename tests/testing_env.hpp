// Shared seeded-RNG plumbing for randomized tests (all suites).
//
// Every randomized test derives its randomness from env_seed() so CI
// failures are reproducible: export the logged NDSNN_TEST_SEED locally
// to replay the identical sequence. The heavier differential harness
// (network generation, backend sweeps) lives in runtime/testing.hpp.
// timing_gate_skip_reason() decides where wall-clock ratio gates bind;
// TierGuard scopes a forced SIMD kernel tier.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstdint>

#include "util/cpuinfo.hpp"

namespace ndsnn::difftest {

/// Seed for all randomized tests: NDSNN_TEST_SEED when set, else a fixed
/// default. Logged once per test binary so failures are reproducible.
inline uint64_t env_seed() {
  static const uint64_t seed = [] {
    const char* raw = std::getenv("NDSNN_TEST_SEED");
    uint64_t value = 0x5EEDC0DEULL;
    if (raw != nullptr && *raw != '\0') {
      value = std::strtoull(raw, nullptr, 10);
    }
    std::printf("[difftest] NDSNN_TEST_SEED=%llu (export to reproduce)\n",
                static_cast<unsigned long long>(value));
    return value;
  }();
  return seed;
}

/// Positive integer from the environment, e.g. NDSNN_DIFF_CONFIGS to
/// scale the differential sweep down in slow (Debug/sanitizer) CI jobs.
inline int env_int(const char* name, int fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  const int value = std::atoi(raw);
  return value > 0 ? value : fallback;
}

/// Why a wall-clock ratio gate cannot bind in this build, or nullptr
/// when it can. Without NDEBUG (Debug) and under ASan/TSan the kernels
/// run at distorted relative speeds, so a ratio measured there says
/// nothing about the optimised build the bound was set on.
inline const char* timing_gate_skip_reason() {
#if !defined(NDEBUG)
  return "timing gate binds only in NDEBUG builds";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "timing gate does not bind under ASan/TSan";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return "timing gate does not bind under ASan/TSan";
#endif
#endif
  return nullptr;
}

/// Forces a SIMD kernel tier for its scope and restores kAuto after. A
/// plan resolves its tier when it is compiled, so compiling under a
/// guard pins that plan's dispatch.
struct TierGuard {
  explicit TierGuard(util::simd::Tier tier) { util::simd::force(tier); }
  ~TierGuard() { util::simd::force(util::simd::Tier::kAuto); }
  TierGuard(const TierGuard&) = delete;
  TierGuard& operator=(const TierGuard&) = delete;
};

}  // namespace ndsnn::difftest
