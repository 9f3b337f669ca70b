// Streaming temporal inference over a compiled plan.
//
// CompiledNetwork::run() is whole-window: every call direct-encodes T
// timesteps, runs them to completion and throws the membrane state
// away. A StreamSession turns the same plan into an always-on temporal
// pipeline: it owns persistent per-layer neuron state (the v /
// adaptation carries the neuron ops keep across Op::step() calls),
// accepts ONE timestep's frame at a time, and returns that step's
// output with per-event latency instead of per-window.
//
// Pipelined execution: run_steps() schedules (stage s, step t) tasks in
// wavefronts w = s + t on the session's util::ThreadPool — stage l
// processes step t while stage l+1 processes step t-1. Within one
// wavefront every task has a distinct stage AND a distinct step, so
// per-stage state and per-step outputs are touched by exactly one lane;
// the barrier between wavefronts makes the schedule — and therefore the
// fp32 results — bitwise independent of the lane count.
//
// Delta path: a stateless stage whose input SpikeBatch is empty this
// step reuses a cached zero-input output (computed once per input
// shape by actually running the op — a linear layer's bias replicated
// over rows, exactly what running it would produce) instead of
// executing its kernels. Each reuse is observable: a "delta-skip" trace
// span, the stream.delta_skips metric, and InferenceResult::
// skipped_ops. Stateful stages (neuron dynamics, residual blocks)
// always run — membranes decay even on silent steps.
//
// Correctness contract: feeding T frames through a session — streamed
// one by one or pipelined via run_steps() — produces per-step outputs
// whose time-major concatenation is bitwise identical to
// plan_ir().execute_time_major(window) over the same window (the differential
// harness pins this across backend x activation x precision).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "runtime/compiled_network.hpp"
#include "runtime/inference.hpp"
#include "runtime/plan.hpp"
#include "tensor/tensor.hpp"

namespace ndsnn::util {
class ThreadPool;
}

namespace ndsnn::runtime {

class StreamSession {
 public:
  /// Create a session over `net`'s plan. `net` must outlive the session
  /// and must not be moved while it is live (the session keeps a
  /// pointer to the plan, not a copy).
  ///
  /// `pipeline_threads` sizes the session's own inter-layer pipeline
  /// pool (distinct from the plan's shard pool, which only infer()
  /// uses): 1 (default) executes stages serially on
  /// the calling thread, 0 resolves to hardware concurrency, N > 1
  /// runs up to N (stage, step) tasks of a wavefront concurrently.
  /// Results are bitwise identical for any value.
  explicit StreamSession(const CompiledNetwork& net, int64_t pipeline_threads = 1);
  ~StreamSession();

  StreamSession(const StreamSession&) = delete;
  StreamSession& operator=(const StreamSession&) = delete;

  /// Advance the session by one timestep. `request.batch` is one frame
  /// [N, ...] (the shape run() would encode per step; N is pinned at
  /// the first step until reset()). Returns that step's output
  /// activation [N, classes] — NOT a mean-over-time readout; averaging
  /// the step logits over a window reproduces run()'s logits — with
  /// the call's wall time and this step's delta-skip count.
  [[nodiscard]] InferenceResult step(const InferenceRequest& request);

  /// Tensor-only convenience wrapper over step(InferenceRequest).
  [[nodiscard]] InferenceResult step(const tensor::Tensor& frame);

  /// Feed a whole sequence of frames through the layer pipeline. Output
  /// k is bitwise identical to calling step() on frames[k] in order,
  /// but stages overlap across steps on the pipeline pool; each
  /// result's latency_ms measures call start -> that step's completion
  /// (per-event latency: early steps resolve while later ones are
  /// still in flight).
  [[nodiscard]] std::vector<InferenceResult> run_steps(
      const std::vector<tensor::Tensor>& frames);

  /// Drop all persistent neuron state: the next step() behaves exactly
  /// like the first step of a fresh window. Cached zero-input outputs
  /// survive (they are shape-keyed compile artifacts, not state).
  void reset();

  /// Steps advanced since construction / the last reset().
  [[nodiscard]] int64_t steps() const { return steps_; }
  /// Stage executions skipped by the delta path since construction
  /// (never reset — it is a telemetry total, mirrored by the
  /// stream.delta_skips metric).
  [[nodiscard]] int64_t delta_skips() const {
    return delta_skips_.load(std::memory_order_relaxed);
  }
  /// Pipeline lanes the session schedules wavefronts on (1 = serial).
  [[nodiscard]] int64_t pipeline_threads() const;

 private:
  /// One plan op plus this session's slice of it: the op's persistent
  /// streaming state and the shape-keyed zero-input output cache the
  /// delta path reuses.
  struct Stage {
    const Op* op = nullptr;
    std::unique_ptr<OpState> state;
    bool zero_cached = false;
    tensor::Shape zero_in_shape;
    Activation zero_out;
  };

  /// Wrap one frame as the stage-0 input: attaches the scanned
  /// SpikeBatch view so an all-zero frame is recognisably empty to the
  /// delta path (bitwise-neutral — non-event ops ignore the view, and
  /// event kernels multiply by the actual values).
  [[nodiscard]] static Activation make_input(const tensor::Tensor& frame);

  /// Run (or delta-skip) one stage for one step; bumps *skips on skip.
  [[nodiscard]] Activation run_stage(Stage& stage, const Activation& input,
                                     int64_t* skips);

  const Plan* plan_;
  std::vector<Stage> stages_;
  std::unique_ptr<util::ThreadPool> pool_;  ///< null = serial session
  int64_t steps_ = 0;
  /// Relaxed atomic: wavefront lanes skip different stages concurrently.
  std::atomic<int64_t> delta_skips_{0};
};

}  // namespace ndsnn::runtime
