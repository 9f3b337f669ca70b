// The serving probe of plan_batch's traced run: the serve_sparse model
// behind an in-process serve::Server and ModelRegistry, driven over real
// localhost TCP with serve_sparse --listen's defaults (4 executor
// threads, no coalescing, no SLO, precision auto, serial plan). It
// measures the serve layers (wire, Server, ModelRegistry), the
// BatchExecutor and StreamSession, and gates their outputs.
//
// It is a probe, not a workload: serving workloads were built (open loop
// at fixed rates, then closed loop) and dropped, because on a shared
// 4-vCPU host every request crosses four thread wake-ups and their cost
// follows the hypervisor's steal. Their throughput moved 2x between
// consecutive runs (see README.md).
//
//   one-shot: 3 connections in a closed loop, each drawing a seeded 3:1
//     mix of 1-row and 8-row requests over held-out images. Every ok
//     response must equal CompiledNetwork::infer on its input bitwise.
//   stream: then 2 of the same connections each open one wire-v2 stream
//     and step it in a closed loop. Frames come in clips of one held-out
//     image twice (T=2) plus one all-zero frame, so a third are silent
//     and the delta path fires. Every step's logits must equal a direct
//     StreamSession fed the same frames, bitwise.
#include <unistd.h>

#include <functional>
#include <memory>
#include <thread>

#include "common.hpp"
#include "core/trainer.hpp"
#include "runtime/stream_session.hpp"
#include "serve/model_registry.hpp"
#include "serve/server.hpp"

namespace perfbench {

namespace {

using ndsnn::runtime::CompiledNetwork;
using ndsnn::tensor::Tensor;
namespace serve = ndsnn::serve;

constexpr int kOneshotConnections = 3;
constexpr double kEightRowShare = 0.25;  ///< the rest are 1-row requests
constexpr int kStreams = 2;
static_assert(kStreams <= kOneshotConnections, "streams reuse the one-shot connections");
constexpr int kClipImageFrames = 2;  ///< = the model's T
constexpr int64_t kHeldOut = 256;
constexpr double kPhaseSeconds = 2.0;  ///< one-shot, then stream

/// A trained model served on localhost. Heap-allocated and pinned: the
/// registry's loader points into it.
struct ServeStack {
  ndsnn::core::Experiment exp;
  std::unique_ptr<serve::ModelRegistry> registry;
  std::shared_ptr<serve::ServedModel> model;
  std::unique_ptr<serve::Server> server;
  std::vector<int> fds;  ///< client connections, closed before the server

  ServeStack() = default;
  ServeStack(const ServeStack&) = delete;
  ServeStack& operator=(const ServeStack&) = delete;
  ~ServeStack() {
    for (const int fd : fds) ::close(fd);
    if (server) server->stop();
  }
};

/// serve_sparse's default training run, then registry load, a listening
/// server and kOneshotConnections client connections.
std::unique_ptr<ServeStack> start_stack() {
  auto st = std::make_unique<ServeStack>();
  st->exp = ndsnn::core::build_experiment(lenet_recipe(/*epochs=*/8, /*serve_model=*/true));
  ndsnn::core::Trainer trainer(*st->exp.network, *st->exp.method, *st->exp.train_set,
                               *st->exp.test_set, st->exp.trainer);
  (void)trainer.run();

  ndsnn::runtime::CompileOptions copts;
  copts.weight_precision = ndsnn::runtime::parse_weight_precision("auto");
  copts.num_threads = 1;
  serve::RegistryOptions ropts;
  ropts.executor_threads = 4;
  ropts.executor.max_coalesce = 0;
  ropts.executor.max_wait_us = 200;
  ropts.executor.slo_ms = 0.0;
  st->registry = std::make_unique<serve::ModelRegistry>(ropts);
  const ndsnn::nn::SpikingNetwork* net = st->exp.network.get();
  st->registry->add(
      "default",
      [net](const ndsnn::runtime::CompileOptions& o) { return CompiledNetwork::compile(*net, o); },
      copts);
  st->model = st->registry->acquire("default");
  serve::ServerOptions sopts;
  sopts.default_model = "default";
  st->server = std::make_unique<serve::Server>(*st->registry, sopts);
  st->server->start();

  for (int c = 0; c < kOneshotConnections; ++c) {
    st->fds.push_back(serve::connect_local(st->server->port()));
  }
  return st;
}

/// What one client connection observed.
struct ClientLog {
  std::vector<double> gap_ms;  ///< client time from an answer to the next send
  std::vector<double> round_trip_ms;
  int64_t sent = 0, ok = 0, failed = 0;
  std::vector<std::string> problems;

  void fail(const std::string& why) {
    ++failed;
    if (problems.size() < 4) problems.push_back(why);
  }
};

/// One request or step over the wire: encode, send + receive, decode,
/// each in its own span under the caller's root span.
template <typename Encode>
serve::ResponseFrame wire_call(int fd, Encode&& encode, Tracer& tracer, int64_t group,
                               double* round_trip_ms) {
  std::vector<uint8_t> bytes;
  {
    const auto s = tracer.span("serve.encode", group);
    bytes = encode();
  }
  std::vector<uint8_t> payload;
  const auto t0 = Clock::now();
  {
    const auto s = tracer.span("serve.round_trip", group);
    serve::send_frame(fd, bytes);
    if (serve::recv_frame(fd, payload) != serve::RecvStatus::kFrame) {
      throw serve::WireError("server closed the connection");
    }
  }
  *round_trip_ms = ms_between(t0, Clock::now());
  const auto s = tracer.span("serve.decode", group);
  return serve::decode_response(payload.data(), payload.size());
}

/// One client thread per connection, each in a closed loop for
/// kPhaseSeconds: `call(c, k, &round_trip, log)` performs connection c's
/// operation k and returns true when its answer was ok and correct (it
/// records failures in `log` itself); an exception ends that connection.
std::vector<ClientLog> run_clients(
    int connections,
    const std::function<bool(int, std::size_t, double*, ClientLog&)>& call) {
  std::vector<ClientLog> logs(static_cast<std::size_t>(connections));
  std::vector<std::thread> threads;
  const auto origin = Clock::now() + std::chrono::milliseconds(20);
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      ClientLog& log = logs[static_cast<std::size_t>(c)];
      std::this_thread::sleep_until(origin);
      Clock::time_point answered = origin;
      for (std::size_t k = 0; ms_between(origin, Clock::now()) < kPhaseSeconds * 1000.0; ++k) {
        const auto start = Clock::now();
        if (k > 0) log.gap_ms.push_back(ms_between(answered, start));
        ++log.sent;
        double round_trip = 0.0;
        try {
          const bool ok = call(c, k, &round_trip, log);
          answered = Clock::now();
          if (!ok) continue;
        } catch (const std::exception& e) {
          log.fail(std::string("transport: ") + e.what());
          return;
        }
        ++log.ok;
        log.round_trip_ms.push_back(round_trip);
      }
    });
  }
  for (auto& t : threads) t.join();
  return logs;
}

/// Fold the connections' logs into `out`; returns their merged gaps and
/// round trips.
ClientLog merge(const std::vector<ClientLog>& logs, Outcome& out) {
  ClientLog m;
  for (const auto& log : logs) {
    m.gap_ms.insert(m.gap_ms.end(), log.gap_ms.begin(), log.gap_ms.end());
    m.round_trip_ms.insert(m.round_trip_ms.end(), log.round_trip_ms.begin(),
                           log.round_trip_ms.end());
    m.sent += log.sent;
    m.ok += log.ok;
    m.failed += log.failed;
    for (const auto& p : log.problems) out.fail(p, 0);
  }
  out.attempted += m.sent;
  out.failed += m.failed;
  return m;
}

/// Cycles through seeded permutations of 0..n-1, a fresh one per pass,
/// so every index is used equally often.
class Cycle {
 public:
  Cycle(int64_t n, uint64_t seed) : n_(n), rng_(seed) {}
  int64_t next() {
    if (pos_ == order_.size()) {
      order_ = permutation(n_, rng_);
      pos_ = 0;
    }
    return order_[pos_++];
  }

 private:
  int64_t n_;
  ndsnn::tensor::Rng rng_;
  std::vector<int64_t> order_;
  std::size_t pos_ = 0;
};

/// 64-bit FNV-1a over a tensor's shape and float bytes. The stream gate
/// compares these, so the probe need not keep every step's logits.
uint64_t fingerprint(const Tensor& t) {
  uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 0x100000001b3ULL;
  };
  for (int64_t d = 0; d < t.rank(); ++d) {
    const int64_t dim = t.dim(d);
    mix(&dim, sizeof(dim));
  }
  mix(t.data(), static_cast<std::size_t>(t.numel()) * sizeof(float));
  return h;
}

/// One-shot phase: per-layer metrics of the wire, handler and executor.
void probe_oneshot(ServeStack& st, const ndsnn::data::SyntheticVision& images,
                   ndsnn::tensor::Rng& master, Tracer& tracer, Outcome& out) {
  const CompiledNetwork& plan = st.model->plan();
  // Request pools and their expected logits: each held-out image, and a
  // seeded split of the held-out set into groups of 8.
  struct Pool {
    std::vector<Tensor> inputs, expected;
  };
  Pool ones, eights;
  for (int64_t i = 0; i < images.size(); ++i) {
    ones.inputs.push_back(ndsnn::data::make_batch(images, {i}).images);
  }
  const std::vector<int64_t> order = permutation(images.size(), master);
  for (auto first = order.begin(); first != order.end(); first += 8) {
    eights.inputs.push_back(ndsnn::data::make_batch(images, {first, first + 8}).images);
  }
  for (Pool* p : {&ones, &eights}) {
    for (const auto& x : p->inputs) p->expected.push_back(plan.infer({x, {}}).logits);
  }
  std::vector<ndsnn::tensor::Rng> mixes;
  std::vector<Cycle> one, eight;
  for (int c = 0; c < kOneshotConnections; ++c) {
    mixes.emplace_back(master.next_u64());
    one.emplace_back(static_cast<int64_t>(ones.inputs.size()), master.next_u64());
    eight.emplace_back(static_cast<int64_t>(eights.inputs.size()), master.next_u64());
  }

  const std::vector<ClientLog> logs = run_clients(
      kOneshotConnections, [&](int c, std::size_t k, double* round_trip, ClientLog& log) {
    const auto ci = static_cast<std::size_t>(c);
    const bool big = mixes[ci].bernoulli(kEightRowShare);
    const Pool& pool = big ? eights : ones;
    const auto i = static_cast<std::size_t>(big ? eight[ci].next() : one[ci].next());
    const int64_t group = static_cast<int64_t>(c) * 1000000000 + static_cast<int64_t>(k);
    const auto root = tracer.span("loadgen.request", group);
    const serve::ResponseFrame r = wire_call(
        st.fds[ci], [&] { return serve::encode_request({"", 0, pool.inputs[i]}); }, tracer,
        group, round_trip);
    if (r.status != serve::Status::kOk) {
      log.fail("request answered with status " +
                    std::to_string(static_cast<int>(r.status)) + ": " + r.message);
      return false;
    }
    if (!bitwise_equal(r.logits, pool.expected[i])) {
      log.fail("served logits differ from CompiledNetwork::infer");
      return false;
    }
    return true;
  });
  const ClientLog m = merge(logs, out);

  const ndsnn::runtime::ExecutorStats stats = st.model->executor().stats();
  out.set("wire.encode_us", tracer.mean_ms("serve.encode") * 1000.0);
  out.set("wire.decode_us", tracer.mean_ms("serve.decode") * 1000.0);
  out.set("executor.queue_ms", stats.queue_p50_ms);
  out.set("executor.service_ms", stats.p50_ms);
  out.set("executor.utilization", stats.worker_utilization);
  out.set("executor.shed", static_cast<double>(stats.shed_requests));
  const double overhead_ms = median(m.round_trip_ms) - stats.e2e_p50_ms;
  out.set("serve.overhead_ms", overhead_ms);
  // The serve layer's own time per request: client codec plus socket,
  // handler and server codec; the executor's queueing and inference are
  // left out.
  out.set("self.serve_ms",
          tracer.mean_ms("serve.encode") + tracer.mean_ms("serve.decode") + overhead_ms);
  out.set("loadgen.gap_ms", median(m.gap_ms));
  std::printf("serving probe, one-shot: %lld sent, %lld ok, %lld failed; %.0f req/s, "
              "round trip p50 %.3f ms\n",
              static_cast<long long>(m.sent), static_cast<long long>(m.ok),
              static_cast<long long>(m.failed), static_cast<double>(m.ok) / kPhaseSeconds,
              median(m.round_trip_ms));
}

/// Stream phase, on the first kStreams one-shot connections: per-layer
/// metrics of StreamSession and the executor's stream queues, gated
/// against a direct StreamSession.
void probe_stream(ServeStack& st, const ndsnn::data::SyntheticVision& images,
                  ndsnn::tensor::Rng& master, Tracer& tracer, Outcome& out) {
  const CompiledNetwork& plan = st.model->plan();
  for (int c = 0; c < kStreams; ++c) {
    const serve::ResponseFrame r = serve::stream_open(st.fds[static_cast<std::size_t>(c)], "");
    if (r.status != serve::Status::kOk) {
      throw std::runtime_error("stream_open refused: " + r.message);
    }
  }
  std::vector<Tensor> frames;  // held-out images, then the silent frame
  for (int64_t i = 0; i < images.size(); ++i) {
    frames.push_back(ndsnn::data::make_batch(images, {i}).images);
  }
  frames.emplace_back(frames.front().shape(), 0.0F);
  const auto silent = static_cast<int64_t>(frames.size()) - 1;

  // What each stream sent: clips of kClipImageFrames copies of one
  // held-out image plus one silent frame before or after them (seeded).
  struct StreamLog {
    std::vector<int64_t> frame;
    std::vector<uint64_t> logits_fp;  ///< fingerprint of each step's logits
    std::vector<bool> answered;       ///< step came back ok
    std::vector<int64_t> pending;     ///< rest of the current clip, back = next
  };
  std::vector<StreamLog> streams(kStreams);
  std::vector<ndsnn::tensor::Rng> rngs;
  std::vector<Cycle> picks;
  for (int c = 0; c < kStreams; ++c) {
    rngs.emplace_back(master.next_u64());
    picks.emplace_back(silent, master.next_u64());
  }

  const std::vector<ClientLog> logs =
      run_clients(kStreams, [&](int c, std::size_t k, double* round_trip, ClientLog& log) {
    const auto ci = static_cast<std::size_t>(c);
    StreamLog& sl = streams[ci];
    if (sl.pending.empty()) {
      sl.pending.assign(kClipImageFrames, picks[ci].next());
      sl.pending.insert(rngs[ci].bernoulli(0.5) ? sl.pending.begin() : sl.pending.end(),
                        silent);
    }
    const int64_t f = sl.pending.back();
    sl.pending.pop_back();
    sl.frame.push_back(f);
    sl.logits_fp.push_back(0);
    sl.answered.push_back(false);
    const int64_t group = static_cast<int64_t>(c) * 1000000000 + static_cast<int64_t>(k);
    const auto root = tracer.span("loadgen.step", group);
    const serve::ResponseFrame r = wire_call(
        st.fds[ci],
        [&] { return serve::encode_stream_step({frames[static_cast<std::size_t>(f)]}); },
        tracer, group, round_trip);
    if (r.status != serve::Status::kOk) {
      log.fail("stream step answered with status " +
                    std::to_string(static_cast<int>(r.status)) + ": " + r.message);
      return false;
    }
    sl.logits_fp.back() = fingerprint(r.logits);
    sl.answered.back() = true;
    return true;
  });
  for (int c = 0; c < kStreams; ++c) {
    try {
      const int fd = st.fds[static_cast<std::size_t>(c)];
      if (serve::stream_close(fd).status != serve::Status::kOk) out.fail("stream_close refused", 0);
    } catch (const serve::WireError& e) {
      out.fail(std::string("stream_close: ") + e.what(), 0);
    }
  }
  const ClientLog m = merge(logs, out);

  // Gate: a direct StreamSession fed the same frames must give the same
  // step logits bitwise. It also yields the direct step time and the
  // delta skips the wire response does not carry.
  int64_t stateless = 0;
  for (const auto& op : plan.plan_ir().ops) stateless += op->make_state() == nullptr ? 1 : 0;
  std::vector<double> direct_ms;
  int64_t skipped = 0, mismatched = 0;
  for (const StreamLog& sl : streams) {
    ndsnn::runtime::StreamSession session(plan);
    for (std::size_t k = 0; k < sl.frame.size(); ++k) {
      ndsnn::runtime::InferenceResult r;
      {
        const auto s = tracer.span("probe.stream_step", static_cast<int64_t>(k));
        const auto t0 = Clock::now();
        r = session.step(frames[static_cast<std::size_t>(sl.frame[k])]);
        direct_ms.push_back(ms_between(t0, Clock::now()));
      }
      skipped += r.skipped_ops;
      // Steps that failed on the wire are already counted.
      if (sl.answered[k] && fingerprint(r.logits) != sl.logits_fp[k]) ++mismatched;
    }
  }
  if (mismatched > 0) {
    out.fail(std::to_string(mismatched) + " stream steps differ from a direct StreamSession",
             mismatched);
  }

  const ndsnn::runtime::ExecutorStats stats = st.model->executor().stats();
  const auto stepped = static_cast<double>(direct_ms.size());
  out.set("stream.step_ms", mean(direct_ms));
  out.set("stream.overhead_ms", median(m.round_trip_ms) - median(direct_ms));
  out.set("stream.delta_skip_ratio",
          stateless > 0 ? static_cast<double>(skipped) / (stepped * static_cast<double>(stateless))
                        : 0.0);
  out.set("executor.stream_steps", static_cast<double>(stats.stream_steps));
  out.set("executor.backpressure_rejections", static_cast<double>(stats.backpressure_rejections));
  std::printf("serving probe, stream: %lld sent, %lld ok, %lld failed; %.0f steps/s, "
              "round trip p50 %.3f ms\n",
              static_cast<long long>(m.sent), static_cast<long long>(m.ok),
              static_cast<long long>(m.failed), static_cast<double>(m.ok) / kPhaseSeconds,
              median(m.round_trip_ms));
}

}  // namespace

void probe_serving(uint64_t seed, Tracer& tracer, Outcome& out) {
  const auto st = start_stack();
  const ndsnn::data::SyntheticVision images = held_out(st->exp, kHeldOut);
  ndsnn::tensor::Rng master(seed);
  probe_oneshot(*st, images, master, tracer, out);
  probe_stream(*st, images, master, tracer, out);
}

}  // namespace perfbench
