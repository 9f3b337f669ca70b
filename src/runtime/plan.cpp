#include "runtime/plan.hpp"

#include <algorithm>
#include <cstddef>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "runtime/trace.hpp"
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

WeightStore::WeightStore(const tensor::Tensor& weight, Kernel picked,
                         sparse::Precision requested, bool event, bool fake_quant)
    : kernel(event ? Kernel::kCsr : picked),
      precision(picked == Kernel::kDense ? sparse::Precision::kFp32 : requested) {
  if (kernel == Kernel::kDense) {
    dense = weight.reshaped(tensor::Shape{weight.dim(0), weight.numel() / weight.dim(0)});
    stored = dense.numel();
    bytes = stored * static_cast<int64_t>(sizeof(float));
    return;
  }
  csr = sparse::Csr::from_weights(weight);
  if (event) csr = csr.transposed();
  (void)csr.quantize(precision);
  if (fake_quant) csr.dequantize();
  stored = csr.nnz();
  bytes = csr.memory_bytes();
}

SpikeBatch SpikeBatch::scan(const tensor::Tensor& t) {
  SpikeBatch b;
  b.rescan(t);
  return b;
}

void SpikeBatch::rescan(const tensor::Tensor& t) {
  rows = t.rank() >= 1 ? t.dim(0) : 1;
  row_size = rows > 0 ? t.numel() / rows : 0;
  row_ptr.resize(static_cast<std::size_t>(rows) + 1);
  row_ptr[0] = 0;
  // Branch-free, straight into idx: write every index of a row past the
  // ones kept so far and advance past it only when its element is
  // nonzero (-0.0F is not). While scanning, idx has room for a whole row
  // past the kept indices; it shrinks to them at the end.
  idx.clear();
  std::size_t kept = 0;
  const float* p = t.data();
  for (int64_t r = 0; r < rows; ++r, p += row_size) {
    idx.resize(std::max(idx.size(), kept + static_cast<std::size_t>(row_size)));
    int32_t* out = idx.data() + kept;
    std::size_t n = 0;
    for (int64_t j = 0; j < row_size; ++j) {
      out[n] = static_cast<int32_t>(j);
      n += p[j] != 0.0F;
    }
    kept += n;
    row_ptr[static_cast<std::size_t>(r) + 1] = static_cast<int64_t>(kept);
  }
  idx.resize(kept);
}

double SpikeBatch::rate() const {
  const int64_t total = rows * row_size;
  if (total == 0) return 0.0;
  return static_cast<double>(idx.size()) / static_cast<double>(total);
}

namespace {

/// The activations of one execution on the calling thread: the input
/// copy and two buffers each op's output and the tiled prefix take in
/// turn, so an op never writes the buffer it reads. Kept from call to
/// call; sized by the largest activation the thread has run.
struct ExecBuffers {
  Activation input;
  Activation turn[2];

  Activation& other_than(const Activation* x) { return x == &turn[0] ? turn[1] : turn[0]; }
};

/// Direct-encode the invariant prefix's output into `out`: its rows
/// repeated `timesteps` times, time-major (as snn::DirectEncoder).
void tile_time_major(const Activation& x, int64_t timesteps, Activation& out) {
  const tensor::Shape& s = x.tensor.shape();
  std::vector<int64_t> dims = s.dims();
  if (dims.empty()) throw std::invalid_argument("Plan::execute: input has no batch dim");
  dims[0] *= timesteps;
  float* dst = out.reset(tensor::Shape(std::move(dims))).data();
  const int64_t step = x.tensor.numel();
  for (int64_t t = 0; t < timesteps; ++t) {
    std::copy(x.tensor.data(), x.tensor.data() + step, dst + t * step);
  }
}

/// Run the plan's ops on `input`, tiling the invariant prefix's output
/// to `timesteps` time-major copies (timesteps == 1 leaves it as is).
tensor::Tensor run_ops(const Plan& plan, const tensor::Tensor& input, int64_t timesteps) {
  thread_local ExecBuffers buffers;
  buffers.input.tensor = input;  // copies into the storage of the last call
  const Activation* x = &buffers.input;
  const auto& ops = plan.ops;
  const std::size_t prefix = std::min(plan.invariant_prefix, ops.size());
  // With tracing and profiling off (the default), the only
  // instrumentation cost is the two relaxed loads here — the branch
  // predicts perfectly across a serving run.
  PlanProfile* prof = plan.profile && plan.profile->enabled() ? plan.profile.get() : nullptr;
  const bool instrumented = prof != nullptr || trace::enabled();
  for (std::size_t i = 0; i <= ops.size(); ++i) {
    if (i == prefix && timesteps > 1) {
      Activation& tiled = buffers.other_than(x);
      tile_time_major(*x, timesteps, tiled);
      x = &tiled;
    }
    if (i == ops.size()) break;
    Activation& out = buffers.other_than(x);
    if (instrumented) {
      trace::run_op_instrumented(*ops[i], plan.reports[i], *x, out, prof, i);
    } else {
      ops[i]->run_into(*x, out);
    }
    x = &out;
  }
  return x->tensor;
}

}  // namespace

tensor::Tensor Plan::execute(const tensor::Tensor& batch) const {
  return run_ops(*this, batch, timesteps);
}

tensor::Tensor Plan::execute_time_major(const tensor::Tensor& window) const {
  return run_ops(*this, window, 1);
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
