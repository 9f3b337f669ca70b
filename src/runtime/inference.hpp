// The consolidated inference request/result pair shared by every
// serving entry point:
//
//   - one-shot:   CompiledNetwork::infer(InferenceRequest)
//   - batched:    BatchExecutor::submit(InferenceRequest)
//   - streaming:  StreamSession::step(InferenceRequest) and the
//                 executor's submit_stream()
//
// Every path answers with an InferenceResult, never a bare tensor;
// callers that want classes take tensor::argmax_rows of its logits.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "tensor/tensor.hpp"

namespace ndsnn::runtime {

/// Priority tier of a request. Stream steps schedule before everything
/// (their latency budget is per event, not per window), interactive
/// requests before batch requests; the batch class also gets a longer
/// SLO budget (BatchExecutor::kBatchSloFactor) before admission
/// control sheds it. Numeric values are wire-stable (serve/wire.*
/// carries them as a byte); scheduling order is defined by
/// slo_priority(), not by the enum values.
enum class SloClass : uint8_t {
  kInteractive = 0,
  kBatch = 1,
  kStream = 2,
};

/// Scheduling rank of a class: lower runs first. Streams outrank
/// interactive — a stream step is one timestep of an open session and
/// sits on the per-event latency path.
[[nodiscard]] constexpr int slo_priority(SloClass c) {
  switch (c) {
    case SloClass::kStream: return 0;
    case SloClass::kInteractive: return 1;
    case SloClass::kBatch: return 2;
  }
  return 3;
}

/// Thrown through the future of a request the admission controller
/// refused (predicted queue wait above the SLO budget) or that was
/// submitted after shutdown(). Clients treat it as back-pressure:
/// retry later or against another replica, don't escalate.
class ShedError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown through the future of a stream step rejected because its
/// session's queue already holds BatchExecutor::kMaxStreamQueue
/// steps. Subclasses ShedError — generic handlers keep treating it as
/// back-pressure — but carries a stronger contract: the rejection never
/// touched the session's carry state, so the client must resubmit the
/// SAME frame (after backoff) rather than drop the timestep. The wire
/// layer maps it to Status::kBackpressure; serve::stream_step_retry is
/// the reference client loop.
class BackpressureError : public ShedError {
 public:
  using ShedError::ShedError;
};

/// One unit of inference work. For the one-shot and batched paths
/// `batch` is a static input batch [N, ...]; for the streaming path it
/// is ONE timestep's frame [N, ...] of an open session.
struct InferenceRequest {
  tensor::Tensor batch;
  SloClass slo = SloClass::kInteractive;
};

/// What an inference resolved to. One-shot and batched paths fill
/// `logits` with the mean-over-time logits [N, classes]; the streaming
/// path fills it with ONE step's logits [N, classes] (the caller owns
/// any across-step readout). `latency_ms` is end-to-end as observed by
/// the serving layer that produced the result (queue wait + service for
/// the executor paths, call latency for the direct ones).
struct InferenceResult {
  tensor::Tensor logits;
  double latency_ms = 0.0;
  /// Streaming only: plan stages skipped by the delta path for this
  /// step (all-+0.0 stage input -> cached zero-input output reused).
  int64_t skipped_ops = 0;
};

}  // namespace ndsnn::runtime
