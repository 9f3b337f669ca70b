// Streaming latency bench: per-event latency of a StreamSession versus
// the whole-window baseline — the regression gate for the streaming
// subsystem.
//
//   ./bench/streaming_latency [--frames 32] [--batch 4] [--threads 2]
//                             [--silent-every 2] [--seed 42]
//                             [--json out.json]
//
// One masked LeNet plan (this bench measures the streaming machinery,
// not kernels). A window of --frames input frames is fed three ways:
//
//   1. whole-window — the frames are concatenated time-major and run
//      through Plan::execute in one pass, the way CompiledNetwork::run
//      works. Every event's result only exists when the WHOLE window
//      has finished: per-event latency == window latency.
//   2. streamed (serial) — a StreamSession consumes one frame per
//      step() call; each event's latency is its own step's wall time.
//   3. streamed (pipelined) — run_steps() overlaps stages across steps
//      on --threads pipeline lanes; per-event latency is submission ->
//      that step's completion.
//
// Every --silent-every'th frame is all-zero (an event camera emitting
// nothing), which the delta path must turn into skipped weight ops —
// the bench asserts delta_skips > 0 and reports the count.
//
// Gates (tools/check_bench_regression.py --streaming):
//   - streamed per-event p99 (nearest rank; at the default 32 frames,
//     the slowest step) must beat the whole-window latency (the point
//     of streaming; holds structurally on any core count),
//   - delta_skips > 0 (the delta path must actually fire),
//   - streamed outputs must match the whole-window pass bitwise.
// Pipelining speedup is informational below 4 cores.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "nn/models/zoo.hpp"
#include "runtime/compiled_network.hpp"
#include "runtime/stream_session.hpp"
#include "sparse/mask.hpp"
#include "tensor/random.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

using ndsnn::runtime::CompiledNetwork;
using ndsnn::runtime::InferenceResult;
using ndsnn::runtime::StreamSession;
using ndsnn::tensor::Rng;
using ndsnn::tensor::Shape;
using ndsnn::tensor::Tensor;

// The plan is compiled with timesteps == the streamed frame count:
// LifOp::run splits its whole-window input into `timesteps` blocks, so
// the window pass is only the streamed run's sequential reference when
// the two agree (a plan compiled for T=2 run over a 32-frame window
// would recur frame i into frame i+16, not i+1).
CompiledNetwork make_plan(uint64_t seed, int64_t timesteps) {
  ndsnn::nn::ModelSpec spec;
  spec.in_channels = 1;
  spec.image_size = 16;
  spec.timesteps = timesteps;
  spec.seed = seed;
  const auto net = ndsnn::nn::make_lenet5(spec);
  Rng rng(seed + 1);
  for (const auto& p : net->params()) {
    if (!p.prunable) continue;
    const auto active = static_cast<int64_t>(static_cast<double>(p.value->numel()) * 0.05);
    const ndsnn::sparse::Mask mask(p.value->shape(), active, rng);
    mask.apply(*p.value);
  }
  return CompiledNetwork::compile(*net);
}

/// Nearest-rank percentile (rank ceil(p * n), as ExecutorStats and
/// HistogramSnapshot compute it): over 32 steps p99 is the slowest step.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// Stack frames time-major: row block t*N..(t+1)*N is frame t — the
/// layout DirectEncoder produces and Plan::execute expects.
Tensor concat_time_major(const std::vector<Tensor>& frames) {
  const int64_t per = frames[0].numel();
  std::vector<int64_t> dims{static_cast<int64_t>(frames.size()) * frames[0].dim(0)};
  for (int64_t d = 1; d < frames[0].rank(); ++d) dims.push_back(frames[0].dim(d));
  Tensor out(Shape{dims});
  for (std::size_t t = 0; t < frames.size(); ++t) {
    for (int64_t i = 0; i < per; ++i) {
      out.at(static_cast<int64_t>(t) * per + i) = frames[t].at(i);
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const ndsnn::util::Cli cli(argc, argv);
  const int frames_n = cli.get_int("--frames", 32);
  const int batch = cli.get_int("--batch", 4);
  const int threads = cli.get_int("--threads", 2);
  const int silent_every = cli.get_int("--silent-every", 2);
  const auto seed = static_cast<uint64_t>(cli.get_int("--seed", 42));
  const std::string json_path = cli.get_string("--json", "");
  const auto cores = static_cast<int64_t>(std::thread::hardware_concurrency());

  const CompiledNetwork plan = make_plan(seed, frames_n);
  Rng rng(seed + 17);
  std::vector<Tensor> frames;
  int64_t silent_frames = 0;
  for (int t = 0; t < frames_n; ++t) {
    Tensor frame(Shape{batch, 1, 16, 16});
    if (silent_every > 0 && t % silent_every == silent_every - 1) {
      ++silent_frames;  // all-zero: an event sensor emitting nothing
    } else {
      // [0, 4): strong enough input current that LIF layers actually
      // fire, so the bitwise gate compares real spike trains and the
      // event path carries non-empty views (not a vacuously-silent net).
      frame.fill_uniform(rng, 0.0F, 4.0F);
    }
    frames.push_back(std::move(frame));
  }
  std::printf("streaming latency bench: %d frames (batch %d, %lld silent), %lld cores\n",
              frames_n, batch, static_cast<long long>(silent_frames),
              static_cast<long long>(cores));

  // --- 1. Whole-window baseline (warmed): one time-major pass. ---
  const Tensor window = concat_time_major(frames);
  (void)plan.plan_ir().execute(window);
  double whole_window_ms = 0.0;
  Tensor window_out;
  {
    const ndsnn::util::Stopwatch sw;
    window_out = plan.plan_ir().execute(window);
    whole_window_ms = sw.millis();
  }

  // --- 2. Streamed, serial: one step() per frame. ---
  StreamSession serial(plan);
  (void)serial.step(frames[0]);  // warm (populates nothing persistent-
  serial.reset();                // state-wise after the reset)
  std::vector<double> step_ms;
  std::vector<Tensor> streamed_out;
  for (const auto& frame : frames) {
    InferenceResult r = serial.step(frame);
    step_ms.push_back(r.latency_ms);
    streamed_out.push_back(std::move(r.logits));
  }
  const int64_t delta_skips = serial.delta_skips();

  // --- 3. Streamed, pipelined: run_steps on a pipeline pool. ---
  StreamSession piped(plan, threads);
  std::vector<double> piped_ms;
  double piped_window_ms = 0.0;
  {
    const ndsnn::util::Stopwatch sw;
    const std::vector<InferenceResult> results = piped.run_steps(frames);
    piped_window_ms = sw.millis();
    for (const auto& r : results) piped_ms.push_back(r.latency_ms);
  }

  // Correctness pin: the streamed per-step outputs must reproduce the
  // whole-window pass bitwise (row block t of the window output).
  bool bitwise_ok = true;
  const int64_t out_per = streamed_out[0].numel();
  for (std::size_t t = 0; t < streamed_out.size() && bitwise_ok; ++t) {
    for (int64_t i = 0; i < out_per; ++i) {
      if (streamed_out[t].at(i) != window_out.at(static_cast<int64_t>(t) * out_per + i)) {
        bitwise_ok = false;
        break;
      }
    }
  }

  const double step_p50 = percentile(step_ms, 0.50);
  const double step_p95 = percentile(step_ms, 0.95);
  const double step_p99 = percentile(step_ms, 0.99);
  const double piped_p50 = percentile(piped_ms, 0.50);
  const double piped_p95 = percentile(piped_ms, 0.95);
  const double piped_p99 = percentile(piped_ms, 0.99);

  ndsnn::util::Table table({"mode", "p50 ms", "p95 ms", "p99 ms", "window ms"});
  table.add_row({"whole-window", ndsnn::util::fmt(whole_window_ms, 2),
                 ndsnn::util::fmt(whole_window_ms, 2), ndsnn::util::fmt(whole_window_ms, 2),
                 ndsnn::util::fmt(whole_window_ms, 2)});
  table.add_row({"streamed", ndsnn::util::fmt(step_p50, 2), ndsnn::util::fmt(step_p95, 2),
                 ndsnn::util::fmt(step_p99, 2), "-"});
  table.add_row({"pipelined", ndsnn::util::fmt(piped_p50, 2), ndsnn::util::fmt(piped_p95, 2),
                 ndsnn::util::fmt(piped_p99, 2), ndsnn::util::fmt(piped_window_ms, 2)});
  table.print();
  std::printf("per-event p99 %.2f ms streamed vs %.2f ms whole-window (%.1fx); "
              "%lld delta skips over %lld silent frames; bitwise %s\n",
              step_p99, whole_window_ms,
              step_p99 > 0.0 ? whole_window_ms / step_p99 : 0.0,
              static_cast<long long>(delta_skips), static_cast<long long>(silent_frames),
              bitwise_ok ? "OK" : "MISMATCH");

  if (!json_path.empty()) {
    ndsnn::util::JsonWriter json;
    json.begin_object();
    json.kv("bench", "streaming_latency");
    json.kv("cores", cores);
    json.kv("frames", frames_n);
    json.kv("batch", batch);
    json.kv("threads", threads);
    json.kv("silent_frames", silent_frames);
    json.key("streaming").begin_object();
    json.kv("whole_window_ms", whole_window_ms);
    json.kv("step_p50_ms", step_p50);
    json.kv("step_p95_ms", step_p95);
    json.kv("step_p99_ms", step_p99);
    json.kv("pipelined_p50_ms", piped_p50);
    json.kv("pipelined_p95_ms", piped_p95);
    json.kv("pipelined_p99_ms", piped_p99);
    json.kv("pipelined_window_ms", piped_window_ms);
    json.kv("delta_skips", delta_skips);
    json.kv("bitwise_ok", bitwise_ok ? 1 : 0);
    json.end_object();
    json.end_object();
    json.write_file(json_path);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return bitwise_ok ? 0 : 1;
}
