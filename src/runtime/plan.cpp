#include "runtime/plan.hpp"

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>

#include "runtime/trace.hpp"
#include "snn/encoder.hpp"
#include "util/thread_pool.hpp"

namespace ndsnn::runtime {

int64_t Plan::intra_op_threads() const { return pool ? pool->lanes() : 1; }

const char* kernel_tag(Kernel k) {
  switch (k) {
    case Kernel::kDense: return "dense";
    case Kernel::kCsr: return "csr";
  }
  return "?";
}

SpikeBatch SpikeBatch::scan(const tensor::Tensor& t) {
  const int64_t rows = t.rank() >= 1 ? t.dim(0) : 1;
  const int64_t row_size = rows > 0 ? t.numel() / rows : 0;
  SpikeBatchBuilder builder(rows, row_size);
  const float* p = t.data();
  const int64_t total = t.numel();
  for (int64_t i = 0; i < total; ++i) {
    if (p[i] != 0.0F) builder.push(i);
  }
  return builder.finish();
}

double SpikeBatch::rate() const {
  const int64_t total = rows * row_size;
  if (total == 0) return 0.0;
  return static_cast<double>(idx.size()) / static_cast<double>(total);
}

namespace {

/// Direct-encode the invariant prefix's output: its rows repeated
/// `timesteps` times, time-major.
Activation tile_time_major(Activation x, int64_t timesteps) {
  if (timesteps == 1) return x;
  snn::DirectEncoder encoder;
  Activation out(encoder.encode(x.tensor, timesteps));
  out.spikes = x.spikes;
  return out;
}

/// Run the plan's ops on `x`, tiling the invariant prefix's output to
/// `timesteps` time-major copies (timesteps == 1 leaves it as is).
tensor::Tensor run_ops(const Plan& plan, tensor::Tensor input, int64_t timesteps) {
  Activation x(std::move(input));
  const auto& ops = plan.ops;
  const std::size_t prefix = std::min(plan.invariant_prefix, ops.size());
  // With tracing and profiling off (the default), the only
  // instrumentation cost is the two relaxed loads here — the branch
  // predicts perfectly across a serving run.
  PlanProfile* prof = plan.profile && plan.profile->enabled() ? plan.profile.get() : nullptr;
  const bool instrumented = prof != nullptr || trace::enabled();
  if (prof != nullptr) prof->count_execute();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (i == prefix) x = tile_time_major(std::move(x), timesteps);
    x = instrumented ? trace::run_op_instrumented(*ops[i], plan.reports[i], x, prof, i)
                     : ops[i]->run(x);
  }
  if (prefix == ops.size()) x = tile_time_major(std::move(x), timesteps);
  return std::move(x.tensor);
}

}  // namespace

tensor::Tensor Plan::execute(tensor::Tensor batch) const {
  return run_ops(*this, std::move(batch), timesteps);
}

tensor::Tensor Plan::execute_time_major(tensor::Tensor window) const {
  return run_ops(*this, std::move(window), 1);
}

int64_t Plan::stored_weights() const {
  int64_t total = 0;
  for (const auto& r : reports) total += r.nnz;
  return total;
}

int64_t Plan::stored_bytes() const {
  int64_t total = 0;
  for (const auto& r : reports) total += r.bytes;
  return total;
}

double Plan::overall_sparsity() const {
  int64_t weights = 0;
  double zero_weighted = 0.0;
  for (const auto& r : reports) {
    weights += r.weights;
    zero_weighted += r.sparsity * static_cast<double>(r.weights);
  }
  if (weights == 0) return 0.0;
  return zero_weighted / static_cast<double>(weights);
}

std::string Plan::summary() const {
  std::ostringstream os;
  os << "CompiledNetwork: T=" << timesteps << ", " << ops.size() << " ops, "
     << stored_weights() << " stored weights ("
     << static_cast<int>(100.0 * overall_sparsity() + 0.5) << "% source sparsity, est. "
     << static_cast<int>(100.0 * estimated_spike_rate + 0.5) << "% firing rate)\n";
  for (const auto& r : reports) {
    os << "  [" << r.kind << (r.event ? "+event" : "");
    if (r.precision != sparse::Precision::kFp32) {
      os << " " << sparse::precision_tag(r.precision);
    }
    if (r.weights > 0) {
      os << " " << util::simd::name(r.tier);
    }
    os << "] " << r.layer;
    if (r.weights > 0) {
      os << "  nnz=" << r.nnz << "/" << r.weights << " (" << r.bytes << " B)";
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace ndsnn::runtime
