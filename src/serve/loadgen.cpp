#include "serve/loadgen.hpp"

#include <chrono>
#include <cmath>
#include <future>
#include <stdexcept>
#include <thread>

#include "tensor/random.hpp"

namespace ndsnn::serve {

std::vector<double> poisson_arrival_times_ms(double rps, int64_t n, uint64_t seed) {
  if (rps <= 0.0) throw std::invalid_argument("loadgen: offered_rps must be > 0");
  if (n < 0) throw std::invalid_argument("loadgen: negative request count");
  tensor::Rng rng(seed);
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(n));
  const double mean_gap_ms = 1000.0 / rps;
  double t = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    // Inverse-CDF exponential gap; clamp u away from 0 (log blows up).
    double u = rng.uniform01();
    if (u < 1e-12) u = 1e-12;
    t += -std::log(u) * mean_gap_ms;
    times.push_back(t);
  }
  return times;
}

LoadgenResult run_open_loop(runtime::BatchExecutor& exec, const tensor::Tensor& sample,
                            const LoadgenOptions& opts) {
  using clock = std::chrono::steady_clock;
  const std::vector<double> arrivals =
      poisson_arrival_times_ms(opts.offered_rps, opts.requests, opts.seed);
  // Independent stream for class assignment so adding batch traffic
  // does not perturb the arrival times.
  tensor::Rng class_rng(opts.seed ^ 0x9E3779B97F4A7C15ULL);

  LoadgenResult res;
  res.offered_rps = opts.offered_rps;
  res.offered = opts.requests;

  std::vector<std::future<runtime::InferenceResult>> futures;
  futures.reserve(arrivals.size());
  const clock::time_point start = clock::now();
  for (const double at_ms : arrivals) {
    const auto at = start + std::chrono::microseconds(static_cast<int64_t>(at_ms * 1e3));
    // Open loop: pace to the schedule even if the server is drowning.
    std::this_thread::sleep_until(at);
    const runtime::SloClass slo = (opts.batch_fraction > 0.0 &&
                                   class_rng.uniform01() < opts.batch_fraction)
                                      ? runtime::SloClass::kBatch
                                      : runtime::SloClass::kInteractive;
    futures.push_back(exec.submit({sample, slo}));
  }
  for (auto& f : futures) {
    try {
      (void)f.get();
      ++res.completed;
    } catch (const runtime::ShedError&) {
      ++res.shed;
    } catch (const std::exception&) {
      // Admitted but died executing (e.g. an injected executor fault):
      // the sweep must survive and report it, not crash the bench.
      ++res.failed;
    }
  }
  const double wall_s =
      std::chrono::duration<double>(clock::now() - start).count();

  const runtime::ExecutorStats stats = exec.stats();
  res.slo_violations = stats.slo_violations;
  res.duration_s = wall_s;
  res.achieved_rps = wall_s > 0.0 ? static_cast<double>(res.completed) / wall_s : 0.0;
  res.e2e_p50_ms = stats.e2e_p50_ms;
  res.e2e_p95_ms = stats.e2e_p95_ms;
  res.e2e_p99_ms = stats.e2e_p99_ms;
  res.shed_rate =
      res.offered > 0 ? static_cast<double>(res.shed) / static_cast<double>(res.offered)
                      : 0.0;
  res.violation_rate = res.completed > 0 ? static_cast<double>(res.slo_violations) /
                                               static_cast<double>(res.completed)
                                         : 0.0;
  return res;
}

}  // namespace ndsnn::serve
