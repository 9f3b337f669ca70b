// Streaming temporal inference over a compiled plan.
//
// CompiledNetwork::infer() is whole-window: every call direct-encodes T
// timesteps, runs them to completion and throws the membrane state
// away. A StreamSession turns the same plan into an always-on temporal
// pipeline: it owns persistent per-layer neuron state (the v /
// adaptation carries the neuron ops keep across Op::step() calls),
// accepts ONE timestep's frame at a time, and returns that step's
// output with per-event latency instead of per-window. A session runs
// its stages serially on the calling thread.
//
// Delta path: a stateless stage whose input is all +0.0 this step (every
// bit clear) reuses a cached zero-input output (computed once per input
// shape by actually running the op on such an input — a linear layer's
// bias replicated over rows, exactly what running it would produce)
// instead of executing its kernels. A -0.0 element runs the op, so the
// cache never answers an input it was not filled from. Each reuse is
// observable: a "delta-skip" trace span, the stream.delta_skips metric,
// and InferenceResult::skipped_ops. Stateful stages (neuron dynamics,
// residual blocks) always run — membranes decay even on silent steps.
//
// Correctness contract: feeding T frames through a session one step()
// at a time produces per-step outputs whose time-major concatenation is
// bitwise identical to plan_ir().execute_time_major(window) over the
// same window (the differential harness pins this across backend x
// activation x precision).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "runtime/compiled_network.hpp"
#include "runtime/inference.hpp"
#include "runtime/plan.hpp"
#include "tensor/tensor.hpp"

namespace ndsnn::runtime {

class StreamSession {
 public:
  /// Create a session over `net`'s plan. `net` must outlive the session
  /// and must not be moved while it is live (the session keeps a
  /// pointer to the plan, not a copy).
  explicit StreamSession(const CompiledNetwork& net);

  StreamSession(const StreamSession&) = delete;
  StreamSession& operator=(const StreamSession&) = delete;

  /// Advance the session by one timestep. `request.batch` is one frame
  /// [N, ...] (the shape infer() would encode per step; N is pinned at
  /// the first step until reset()). Returns that step's output
  /// activation [N, classes] — NOT a mean-over-time readout; averaging
  /// the step logits over a window reproduces infer()'s logits — with
  /// the call's wall time and this step's delta-skip count.
  [[nodiscard]] InferenceResult step(const InferenceRequest& request);

  /// step(InferenceRequest) for a bare frame; the executor's stream
  /// drain and the repo benchmark call it.
  [[nodiscard]] InferenceResult step(const tensor::Tensor& frame);

  /// Drop all persistent neuron state: the next step() behaves exactly
  /// like the first step of a fresh window. Cached zero-input outputs
  /// survive (they are shape-keyed compile artifacts, not state).
  void reset();

  /// Steps advanced since construction / the last reset().
  [[nodiscard]] int64_t steps() const { return steps_; }
  /// Stage executions skipped by the delta path since construction
  /// (never reset — it is a telemetry total, mirrored by the
  /// stream.delta_skips metric).
  [[nodiscard]] int64_t delta_skips() const { return delta_skips_; }

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

  /// Run (or delta-skip) one stage for one step; bumps *skips on skip.
  [[nodiscard]] Activation run_stage(Stage& stage, const Activation& input,
                                     int64_t* skips);

  const Plan* plan_;
  std::vector<Stage> stages_;
  int64_t steps_ = 0;
  int64_t delta_skips_ = 0;
};

}  // namespace ndsnn::runtime
