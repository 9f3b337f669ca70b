// Plan IR of the sparse inference runtime.
//
// CompiledNetwork::compile lowers a trained SpikingNetwork into a Plan:
// an immutable sequence of Ops (src/runtime/ops/) plus per-op reports.
// Ops exchange `Activation` values — the dense time-major tensor the
// interpreted network would produce. An event-driven weight op scans its
// own input into a `SpikeBatch` (per-row active-index lists) and skips
// work proportional to the firing rate; every op still produces the
// bitwise-identical dense tensor, so the event path stays pinned against
// SpikingNetwork::predict by the differential harness.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sparse/csr.hpp"
#include "sparse/quant.hpp"
#include "tensor/tensor.hpp"
#include "util/cpuinfo.hpp"

namespace ndsnn::util {
class ThreadPool;
}

namespace ndsnn::runtime {

class PlanProfile;  // runtime/trace.hpp: per-op latency/firing-rate aggregation

/// Which GEMM kernel a weight op was lowered onto (resolved from
/// CompileOptions::backend by the compiler's cost heuristic).
enum class Kernel { kDense, kCsr };

[[nodiscard]] const char* kernel_tag(Kernel k);

/// The one weight structure a conv or linear op runs on, lowered once at
/// compile time from its parameter read as [dim(0), numel/dim(0)] (conv
/// [F, C, K, K] as [F, C*K*K]). The event path always holds Wᵀ as CSR,
/// whatever kernel the layer was picked for, so an active input selects
/// one row; the dense-activation path holds W as CSR (kCsr) or as the
/// dense [rows, cols] tensor (kDense). A CSR plane is quantised to
/// `requested` with one symmetric scale per stored row, then under
/// `fake_quant` dequantised back to fp32 storage. Layers picked for the
/// dense kernel stay fp32 on either path.
struct WeightStore {
  WeightStore(const tensor::Tensor& weight, Kernel picked, sparse::Precision requested,
              bool event, bool fake_quant);

  Kernel kernel;                ///< kCsr whenever `csr` holds the weights
  sparse::Precision precision;  ///< of the stored plane
  sparse::Csr csr;              ///< W, or Wᵀ on the event path
  tensor::Tensor dense;         ///< W [rows, cols] (dense-activation kDense)
  int64_t stored = 0;           ///< values held
  int64_t bytes = 0;            ///< bytes held
};

/// Sparse view of a time-major activation [M, features]: for each row m
/// the ascending list of feature indices whose value is nonzero. The
/// event paths of ConvOp and LinearOp scan their input into one (spike
/// trains are mostly zeros at typical 5-20% firing rates) and iterate it
/// instead of the dense tensor.
struct SpikeBatch {
  int64_t rows = 0;              ///< M = T * N (time-major batch rows)
  int64_t row_size = 0;          ///< features per row
  std::vector<int64_t> row_ptr;  ///< rows + 1 offsets into idx
  std::vector<int32_t> idx;      ///< active indices, ascending per row

  /// Build by scanning a dense [M, ...] tensor (rows = dim(0)), one row
  /// at a time.
  [[nodiscard]] static SpikeBatch scan(const tensor::Tensor& t);
  /// The same scan into this view, reusing its storage: a view kept
  /// across calls allocates nothing once it has held the largest scan.
  void rescan(const tensor::Tensor& t);

  /// Fraction of nonzero elements over everything indexed.
  [[nodiscard]] double rate() const;

  [[nodiscard]] int64_t active_count(int64_t row) const {
    return row_ptr[static_cast<std::size_t>(row) + 1] -
           row_ptr[static_cast<std::size_t>(row)];
  }
  [[nodiscard]] const int32_t* active_begin(int64_t row) const {
    return idx.data() + row_ptr[static_cast<std::size_t>(row)];
  }
};

/// What flows between ops: the dense activation.
struct Activation {
  tensor::Tensor tensor;

  Activation() = default;
  explicit Activation(tensor::Tensor t) : tensor(std::move(t)) {}

  /// Makes this a zero-filled `shape` tensor in the storage it already
  /// holds (Tensor::assign_zeros).
  tensor::Tensor& reset(tensor::Shape shape) {
    tensor.assign_zeros(std::move(shape));
    return tensor;
  }
};

/// What one compiled op is and how sparse its weights are (for plan
/// summaries and the bench reports). Weightless ops report weights == 0.
struct OpReport {
  std::string layer;     ///< source layer name(), e.g. "Conv2d(3->64, ...)"
  std::string kind;      ///< "{dense,csr}-{linear,conv}" |
                         ///< "lif" | "alif" | "bn" | "pool" | "reshape" | "residual"
  int64_t weights = 0;   ///< total weight elements
  int64_t nnz = 0;       ///< values the kernel stores (CSR nonzeros,
                         ///< == weights for dense ops)
  double sparsity = 0.0; ///< zero fraction of the source weights
  bool event = false;    ///< weight op executes the event-driven path
  /// Stored bit width of the value plane (kFp32 for dense kernels and
  /// unquantised sparse ones).
  sparse::Precision precision = sparse::Precision::kFp32;
  /// Bytes the weight structure occupies (values or quantised plane +
  /// indices); 0 for weightless ops. What the bench bytes-touched
  /// column sums.
  int64_t bytes = 0;
  /// SIMD kernel tier the op's GEMM/gather kernels dispatch with —
  /// resolved once at compile time from util::simd::active().
  /// Weightless ops have no tiered kernels and keep the kScalar
  /// default; the plan summary only prints the tier for weight ops.
  util::simd::Tier tier = util::simd::Tier::kScalar;
};

/// Opaque per-session mutable state of one op for streaming execution
/// (StreamSession): the membrane/adaptation carry of a neuron op, the
/// nested states of a residual block. Ops that keep no state across
/// timesteps (weight ops, BN, pooling, reshape — all row-independent)
/// have none. Owned by the session, one instance per (session, op);
/// never shared between sessions, so step() may mutate it freely while
/// the op itself stays immutable and thread-safe.
struct OpState {
  virtual ~OpState() = default;
};

/// One inference op of the compiled plan. Implementations are immutable
/// after construction; run_into() must be safe to call from many threads.
///
/// Buffers: run_into() writes the whole output tensor into `out`, in the
/// storage `out` already holds where it is large enough. Plan::execute
/// passes each op a buffer an earlier op or call left behind, so a
/// repeated call page-faults nothing in; the bits never depend on what
/// `out` held before.
///
/// Streaming: make_state()/step() execute the op one timestep at a time
/// over [N, ...] frames instead of a whole [T*N, ...] window. The
/// default covers every stateless op exactly — their math is
/// row-independent, so running one step's rows alone is bitwise
/// identical to running them inside the window. Stateful ops (neuron
/// dynamics, residual blocks) override both; the contract is that
/// feeding T frames through step() in order reproduces run() on the
/// time-major concatenation bitwise, slice for slice.
class Op {
 public:
  virtual ~Op() = default;
  Op() = default;
  Op(const Op&) = delete;
  Op& operator=(const Op&) = delete;

  virtual void run_into(const Activation& input, Activation& out) const = 0;
  [[nodiscard]] virtual OpReport report() const = 0;

  /// run_into() a fresh Activation.
  [[nodiscard]] Activation run(const Activation& input) const {
    Activation out;
    run_into(input, out);
    return out;
  }

  /// Fresh streaming state, or nullptr for stateless ops. A nullptr
  /// also tells the session the op is safe to delta-skip on empty input
  /// steps (stateful ops must run every step — membranes decay even
  /// with no input spikes).
  [[nodiscard]] virtual std::unique_ptr<OpState> make_state() const {
    return nullptr;
  }

  /// Run one timestep. `input.tensor` is one frame [N, ...]; `state` is
  /// the instance make_state() returned (nullptr for stateless ops,
  /// which must not touch it).
  [[nodiscard]] virtual Activation step(const Activation& input,
                                        OpState* state) const {
    (void)state;
    return run(input);
  }
};

/// The compiled program: op sequence, per-op reports, and the timestep
/// count the neuron ops were staged for. Immutable after compilation and
/// free of mutable execution state, so one Plan serves many threads.
struct Plan {
  std::vector<std::unique_ptr<Op>> ops;
  std::vector<OpReport> reports;
  int64_t timesteps = 1;
  double estimated_spike_rate = 0.0;  ///< mean over spiking layers (compile-time estimate)
  /// Shard pool (CompileOptions::num_threads > 1 or 0 = hardware
  /// concurrency): CompiledNetwork::infer runs one row shard of a batch
  /// per lane through execute(). Ops never use it. Null for serial
  /// plans. Safe to drive from many threads at once (the
  /// BatchExecutor's request workers share it).
  std::shared_ptr<util::ThreadPool> pool;
  /// Per-op profiling slots (runtime/trace.hpp), allocated by compile()
  /// and disabled by default: execute() folds per-op durations and
  /// observed firing rates into it when enabled. Shared so the const
  /// serving surfaces (CompiledNetwork, BatchExecutor) can toggle and
  /// snapshot it without mutating the immutable plan itself.
  std::shared_ptr<PlanProfile> profile;

  /// Lanes of the shard pool (1 for serial plans). What the
  /// BatchExecutor divides its thread budget by.
  [[nodiscard]] int64_t intra_op_threads() const;

  /// Ops [0, invariant_prefix) are stateless and precede every stateful
  /// op (make_state() == nullptr for each; conv1 -> BN1 on the zoo
  /// networks). Under direct encoding their T timesteps see identical
  /// rows, so execute() runs them once on the N input rows. compile()
  /// sets it.
  std::size_t invariant_prefix = 0;

  /// Run the plan on `batch` [N, ...] direct-encoded over `timesteps`
  /// steps: the invariant prefix runs on the N rows, its output is
  /// tiled to the time-major [T*N, ...] layout DirectEncoder::encode
  /// produces, and the remaining ops run on that. Stateless ops are row-independent,
  /// so this is bitwise identical to running every op on the encoded
  /// batch. The input copy, the tiled rows and every op output live in
  /// buffers of the calling thread kept from call to call (pool lanes
  /// and request workers are threads, so no two calls share them). A
  /// repeated call at one shape allocates only the logits, the dense
  /// linear kernels' outputs and residual blocks' inner chains.
  [[nodiscard]] tensor::Tensor execute(const tensor::Tensor& batch) const;

  /// Run every op on an already time-major window [T*N, ...] as is, with
  /// no prefix hoist: the whole-window reference StreamSession is pinned
  /// against.
  [[nodiscard]] tensor::Tensor execute_time_major(const tensor::Tensor& window) const;

  /// Weight elements stored by the plan (CSR nnz + dense fallback sizes).
  [[nodiscard]] int64_t stored_weights() const;
  /// Bytes the plan's weight structures occupy (values / quantised
  /// planes + indices, summed over all ops).
  [[nodiscard]] int64_t stored_bytes() const;
  /// Parameter-weighted sparsity over all weight ops.
  [[nodiscard]] double overall_sparsity() const;
  /// Multi-line human-readable description.
  [[nodiscard]] std::string summary() const;
};

}  // namespace ndsnn::runtime
