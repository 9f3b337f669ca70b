// Chaos suite: the serving stack under seeded fault injection
// (util::fault). Every test pins the same four invariants the CI soak
// asserts at scale: no crash, no hang past a deadline, every submitted
// request gets exactly one response or typed error, and fp32 results of
// *successful* requests stay bitwise identical to a no-fault run.
//
// Reproducing a failure: each schedule is deterministic in the injector
// seed — re-arm the same spec with the same seed and the exact same
// checks fire (CONTRIBUTING "Reproducing a chaos-test failure").
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "nn/models/zoo.hpp"
#include "runtime/compiled_network.hpp"
#include "runtime/stream_session.hpp"
#include "serve/model_registry.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "sparse/mask.hpp"
#include "tensor/random.hpp"
#include "util/fault_injection.hpp"
#include "util/metrics.hpp"

namespace ndsnn::serve {
namespace {

using runtime::CompiledNetwork;
using runtime::CompileOptions;
using tensor::Rng;
using tensor::Shape;
using tensor::Tensor;
using util::fault::FaultInjector;
using util::fault::Rule;

std::shared_ptr<nn::SpikingNetwork> make_net(uint64_t seed) {
  nn::ModelSpec spec;
  spec.in_channels = 1;
  spec.image_size = 16;
  spec.timesteps = 2;
  spec.seed = seed;
  auto net = nn::make_lenet5(spec);
  Rng rng(seed + 1);
  for (const auto& p : net->params()) {
    if (!p.prunable) continue;
    const auto active = static_cast<int64_t>(static_cast<double>(p.value->numel()) * 0.1);
    const sparse::Mask mask(p.value->shape(), active, rng);
    mask.apply(*p.value);
  }
  return net;
}

ModelRegistry::Loader loader_for(const std::shared_ptr<nn::SpikingNetwork>& net) {
  return [net](const CompileOptions& opts) { return CompiledNetwork::compile(*net, opts); };
}

Tensor make_batch(int64_t rows, uint64_t seed) {
  Tensor t(Shape{rows, 1, 16, 16});
  Rng rng(seed);
  t.fill_uniform(rng, 0.0F, 1.0F);
  return t;
}

void expect_bitwise_equal(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  for (int64_t i = 0; i < a.numel(); ++i) ASSERT_EQ(a.at(i), b.at(i)) << "elem " << i;
}

int64_t counter_value(const char* name) {
  return util::MetricsRegistry::global().counter(name).value();
}

/// Every test leaves the process-wide injector clean; a leaked rule
/// would silently fault every later test in this binary.
class ChaosTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::global().reset(); }
};

TEST_F(ChaosTest, ShortReadsAndWritesAreInvisibleToResults) {
  ModelRegistry registry;
  registry.add("m", loader_for(make_net(301)));
  ServerOptions sopts;
  sopts.default_model = "m";
  Server server(registry, sopts);
  server.start();

  const Tensor batch = make_batch(2, 302);
  const Tensor reference = registry.acquire("m")->executor().submit(batch).get();

  // Every single syscall on both sides now moves one byte: the resume
  // loops in write_exact/read_exact must absorb it with zero effect on
  // the bytes (only on the syscall count).
  FaultInjector::global().arm("wire.short_read", Rule{1.0, -1, 0});
  FaultInjector::global().arm("wire.short_write", Rule{1.0, -1, 0});

  const int fd = connect_local(server.port());
  RequestFrame req;
  req.batch = batch;
  const ResponseFrame resp = round_trip(fd, req);
  ::close(fd);

  ASSERT_EQ(resp.status, Status::kOk) << resp.message;
  expect_bitwise_equal(resp.logits, reference);
  EXPECT_GT(FaultInjector::global().fires("wire.short_read"), 0);
  EXPECT_GT(FaultInjector::global().fires("wire.short_write"), 0);
  server.stop();
}

TEST_F(ChaosTest, InjectedResetSurfacesAsTypedErrorNotCrash) {
  ModelRegistry registry;
  registry.add("m", loader_for(make_net(303)));
  ServerOptions sopts;
  sopts.default_model = "m";
  Server server(registry, sopts);
  server.start();
  const Tensor batch = make_batch(1, 304);

  // Exactly one reset: the very next wire I/O (the client's own send)
  // dies as if the kernel reported ECONNRESET. The caller must see a
  // typed WireError, and the server must not care.
  FaultInjector::global().arm("wire.reset", Rule{1.0, 1, 0});
  const int fd = connect_local(server.port());
  RequestFrame req;
  req.batch = batch;
  EXPECT_THROW((void)round_trip(fd, req), WireError);
  ::close(fd);
  EXPECT_EQ(FaultInjector::global().fires("wire.reset"), 1);

  // The quota is spent; a fresh connection serves normally.
  const int fd2 = connect_local(server.port());
  const ResponseFrame resp = round_trip(fd2, req);
  ::close(fd2);
  ASSERT_EQ(resp.status, Status::kOk) << resp.message;
  server.stop();
}

TEST_F(ChaosTest, TornServerResponseClosesThatConnectionOnly) {
  ModelRegistry registry;
  registry.add("m", loader_for(make_net(305)));
  ServerOptions sopts;
  sopts.default_model = "m";
  Server server(registry, sopts);
  server.start();
  const Tensor batch = make_batch(1, 306);

  // skip=1 jumps over the client's request send; the one fire lands on
  // the SERVER's response send, which dies after the prefix and half
  // the payload — the client must see a mid-frame EOF as WireError.
  FaultInjector::global().arm("wire.torn_frame", Rule{1.0, 1, 1});
  const int fd = connect_local(server.port());
  RequestFrame req;
  req.batch = batch;
  EXPECT_THROW((void)round_trip(fd, req), WireError);
  ::close(fd);
  EXPECT_EQ(FaultInjector::global().fires("wire.torn_frame"), 1);

  // Only that connection died; the acceptor and registry are fine.
  const int fd2 = connect_local(server.port());
  const ResponseFrame resp = round_trip(fd2, req);
  ::close(fd2);
  ASSERT_EQ(resp.status, Status::kOk) << resp.message;
  server.stop();
}

TEST_F(ChaosTest, RegistryLoaderFaultIsAPerRequestError) {
  ModelRegistry registry;
  registry.add("m", loader_for(make_net(307)));
  ServerOptions sopts;
  sopts.default_model = "m";
  Server server(registry, sopts);
  server.start();
  const Tensor batch = make_batch(1, 308);

  FaultInjector::global().arm("registry.load", Rule{1.0, 1, 0});
  const int fd = connect_local(server.port());
  RequestFrame req;
  req.batch = batch;
  const ResponseFrame failed = round_trip(fd, req);
  ASSERT_EQ(failed.status, Status::kError);
  EXPECT_NE(failed.message.find("registry.load"), std::string::npos) << failed.message;

  // The entry's loading latch must have been released by the failure:
  // the retry (same connection!) loads and serves.
  const ResponseFrame ok = round_trip(fd, req);
  ::close(fd);
  ASSERT_EQ(ok.status, Status::kOk) << ok.message;
  EXPECT_GT(ok.logits.numel(), 0);
  server.stop();
}

TEST_F(ChaosTest, ExecutorFaultMidStreamResetsSessionAndAnswersError) {
  ModelRegistry registry;
  registry.add("m", loader_for(make_net(309)));
  ServerOptions sopts;
  sopts.default_model = "m";
  Server server(registry, sopts);
  server.start();

  const Tensor f0 = make_batch(1, 310);
  const Tensor f1 = make_batch(1, 311);
  const Tensor f2 = make_batch(1, 312);

  const int fd = connect_local(server.port());
  ASSERT_EQ(stream_open(fd, "m").status, Status::kOk);
  ASSERT_EQ(stream_step(fd, f0).status, Status::kOk);

  // The next drain throws mid-sequence. Contract: the step is answered
  // kError AND the session restarts from clean state — continuing from
  // a half-advanced carry would silently corrupt every later step.
  FaultInjector::global().arm("executor.stream", Rule{1.0, 1, 0});
  const ResponseFrame failed = stream_step(fd, f1);
  ASSERT_EQ(failed.status, Status::kError);
  EXPECT_NE(failed.message.find("executor.stream"), std::string::npos) << failed.message;

  const ResponseFrame resumed = stream_step(fd, f2);
  ASSERT_EQ(resumed.status, Status::kOk) << resumed.message;
  ASSERT_EQ(stream_close(fd).status, Status::kOk);
  ::close(fd);

  // Reference: a FRESH session stepping f2 first — the reset dropped
  // f0's carry along with the failed f1.
  const CompiledNetwork plan = CompiledNetwork::compile(*make_net(309));
  runtime::StreamSession fresh(plan);
  expect_bitwise_equal(resumed.logits, fresh.step(f2).logits);
  server.stop();
}

TEST_F(ChaosTest, IdleConnectionIsReapedWithATimeoutStatus) {
  ModelRegistry registry;
  registry.add("m", loader_for(make_net(313)));
  ServerOptions sopts;
  sopts.default_model = "m";
  sopts.conn_timeout_ms = 100;
  Server server(registry, sopts);
  server.start();
  const int64_t timeouts_before = counter_value("serve.conn_timeout");

  // Connect, say nothing. The server must notice the idle deadline,
  // answer kTimeout (the socket is still perfectly writable) and close.
  const int fd = connect_local(server.port());
  std::vector<uint8_t> payload;
  ASSERT_EQ(recv_frame(fd, payload), RecvStatus::kFrame);
  const ResponseFrame resp = decode_response(payload.data(), payload.size());
  EXPECT_EQ(resp.status, Status::kTimeout);
  EXPECT_EQ(recv_frame(fd, payload), RecvStatus::kEof);
  ::close(fd);

  EXPECT_GE(counter_value("serve.conn_timeout"), timeouts_before + 1);
  server.stop();
}

TEST_F(ChaosTest, StalledMidFrameClientIsDisconnected) {
  ModelRegistry registry;
  registry.add("m", loader_for(make_net(315)));
  ServerOptions sopts;
  sopts.default_model = "m";
  sopts.conn_timeout_ms = 100;
  Server server(registry, sopts);
  server.start();

  // Send ONLY the 8-byte prefix (magic + "16 bytes follow") and stall.
  // Mid-frame the server cannot answer — the framing is dangling — so
  // the contract is a plain disconnect, no response frame.
  const int fd = connect_local(server.port());
  const uint8_t prefix[8] = {0x4E, 0x44, 0x53, 0x31, 16, 0, 0, 0};
  ASSERT_EQ(::send(fd, prefix, sizeof(prefix), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(prefix)));
  std::vector<uint8_t> payload;
  EXPECT_EQ(recv_frame(fd, payload), RecvStatus::kEof);
  ::close(fd);
  server.stop();
}

TEST_F(ChaosTest, BackpressureStatusAndRetryHelperPreserveStreamState) {
  ModelRegistry registry;
  registry.add("m", loader_for(make_net(317)));
  ServerOptions sopts;
  sopts.default_model = "m";
  Server server(registry, sopts);
  server.start();

  const Tensor f0 = make_batch(1, 318);
  const Tensor f1 = make_batch(1, 319);

  const int fd = connect_local(server.port());
  ASSERT_EQ(stream_open(fd, "m").status, Status::kOk);
  const ResponseFrame r0 = stream_step(fd, f0);
  ASSERT_EQ(r0.status, Status::kOk);

  // Two forced rejections: the bare step sees kBackpressure (fire 1),
  // then the retry helper eats fire 2 and lands the step on attempt 2.
  FaultInjector::global().arm("executor.backpressure", Rule{1.0, 2, 0});
  const ResponseFrame rejected = stream_step(fd, f1);
  ASSERT_EQ(rejected.status, Status::kBackpressure) << rejected.message;

  const ResponseFrame r1 = stream_step_retry(fd, f1, /*max_retries=*/4,
                                             /*base_backoff_ms=*/0.5, /*seed=*/7);
  ASSERT_EQ(r1.status, Status::kOk) << r1.message;
  ASSERT_EQ(stream_close(fd).status, Status::kOk);
  ::close(fd);
  EXPECT_EQ(FaultInjector::global().fires("executor.backpressure"), 2);

  // The acceptance criterion: both rejections left the session's carry
  // state untouched, so (f0, f1) matches an unfaulted whole-window
  // reference run bitwise.
  const CompiledNetwork plan = CompiledNetwork::compile(*make_net(317));
  runtime::StreamSession reference(plan);
  expect_bitwise_equal(r0.logits, reference.step(f0).logits);
  expect_bitwise_equal(r1.logits, reference.step(f1).logits);

  EXPECT_EQ(registry.acquire("m")->executor().stats().backpressure_rejections, 2);
  server.stop();
}

TEST_F(ChaosTest, DrainFinishesInFlightWorkAndShedsNewRequests) {
  ModelRegistry registry;
  registry.add("m", loader_for(make_net(321)));
  ServerOptions sopts;
  sopts.default_model = "m";
  Server server(registry, sopts);
  server.start();
  const Tensor batch = make_batch(1, 322);
  // Warm the model so the in-flight request below is pure executor time.
  (void)registry.acquire("m");

  // Connection C holds a stream open: drain() cannot settle while it
  // lives, which pins the "still draining" window every assertion below
  // runs inside — no timing games.
  const int stream_fd = connect_local(server.port());
  ASSERT_EQ(stream_open(stream_fd, "m").status, Status::kOk);

  // Connection A: one request made slow by an injected 50 ms stall, sent
  // just before the drain starts — in-flight work that must FINISH.
  FaultInjector::global().arm("executor.stall", Rule{1.0, 1, 0});
  const int slow_fd = connect_local(server.port());
  ResponseFrame slow_resp;
  std::thread slow_client([&] {
    RequestFrame req;
    req.batch = batch;
    slow_resp = round_trip(slow_fd, req);
  });
  // The stall firing proves A's request reached a worker (it is past
  // admission, mid-service) before drain flips the refuse-new-work flag.
  while (FaultInjector::global().fires("executor.stall") < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  // Connection B connects *before* the drain: kShedding is the answer
  // for new work on already-accepted connections (brand-new connects
  // are refused outright once the listen socket is down).
  const int probe_fd = connect_local(server.port());
  // connect() returns once the kernel queues the handshake; wait until
  // the acceptor has taken B (C, A, B), or the drain's listen-socket
  // shutdown resets it and round_trip throws past the joinable threads.
  while (server.connections() < 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  std::atomic<bool> drained{false};
  bool settled = false;
  std::thread drainer([&] {
    settled = server.drain(std::chrono::milliseconds(5000));
    drained.store(true);
  });
  while (!server.draining()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // New work during the drain: typed refusal, not an error or a hang.
  RequestFrame probe;
  probe.batch = batch;
  const ResponseFrame shed = round_trip(probe_fd, probe);
  EXPECT_EQ(shed.status, Status::kShedding) << shed.message;
  ::close(probe_fd);

  // A's in-flight request completed normally despite the drain.
  slow_client.join();
  ::close(slow_fd);
  ASSERT_EQ(slow_resp.status, Status::kOk) << slow_resp.message;
  expect_bitwise_equal(slow_resp.logits,
                       registry.acquire("m")->executor().submit(batch).get());

  // Still draining: the stream on C is open. Close it and the drain
  // settles inside the deadline.
  EXPECT_FALSE(drained.load());
  ASSERT_EQ(stream_close(stream_fd).status, Status::kOk);
  ::close(stream_fd);
  drainer.join();
  EXPECT_TRUE(settled);

  // The listen socket is down: new connections are refused.
  EXPECT_THROW((void)connect_local(server.port()), std::runtime_error);
}

TEST_F(ChaosTest, DrainForceClosesALingeringStreamAtTheDeadline) {
  ModelRegistry registry;
  registry.add("m", loader_for(make_net(323)));
  ServerOptions sopts;
  sopts.default_model = "m";
  Server server(registry, sopts);
  server.start();

  // A client that opens a stream and walks away: drain must give up at
  // the deadline, force-close, and report the unclean settle — never
  // hang.
  const int fd = connect_local(server.port());
  ASSERT_EQ(stream_open(fd, "m").status, Status::kOk);

  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(server.drain(std::chrono::milliseconds(200)));
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(waited, std::chrono::milliseconds(200));
  EXPECT_LT(waited, std::chrono::milliseconds(5000));
  ::close(fd);
}

TEST_F(ChaosTest, AcceptFaultDoesNotWedgeTheAcceptor) {
  ModelRegistry registry;
  registry.add("m", loader_for(make_net(325)));
  ServerOptions sopts;
  sopts.default_model = "m";
  Server server(registry, sopts);
  server.start();
  const Tensor batch = make_batch(1, 326);

  // Three accepts die as if the handshake failed. The TCP connect
  // itself still succeeds (backlog), so each victim only notices at
  // round-trip time: no response, typed WireError.
  FaultInjector::global().arm("server.accept", Rule{1.0, 3, 0});
  for (int i = 0; i < 3; ++i) {
    const int fd = connect_local(server.port());
    RequestFrame req;
    req.batch = batch;
    EXPECT_THROW((void)round_trip(fd, req), WireError) << "victim " << i;
    ::close(fd);
  }
  EXPECT_EQ(FaultInjector::global().fires("server.accept"), 3);

  // Quota spent: the acceptor kept looping and serves the 4th normally.
  const int fd = connect_local(server.port());
  RequestFrame req;
  req.batch = batch;
  const ResponseFrame resp = round_trip(fd, req);
  ::close(fd);
  ASSERT_EQ(resp.status, Status::kOk) << resp.message;
  server.stop();
}

TEST_F(ChaosTest, SeededFaultScheduleKeepsEveryInvariant) {
  ModelRegistry registry;
  registry.add("m", loader_for(make_net(327)));
  ServerOptions sopts;
  sopts.default_model = "m";
  Server server(registry, sopts);
  server.start();
  const Tensor batch = make_batch(2, 328);
  const Tensor reference = registry.acquire("m")->executor().submit(batch).get();

  for (const uint64_t seed : {11ULL, 12ULL, 13ULL}) {
    FaultInjector::global().reset();
    FaultInjector::global().configure(
        "seed=" + std::to_string(seed) +
        ";wire.short_read=0.2;wire.short_write=0.2;wire.reset=0.02;"
        "wire.torn_frame=0.02;executor.run=0.05;server.accept=0.1");

    constexpr int kRequests = 40;
    int ok = 0;
    int typed_error = 0;  // kShed/kError/kTimeout/... — a response arrived
    int dropped = 0;      // connection died: WireError on this side
    int fd = -1;
    for (int i = 0; i < kRequests; ++i) {
      try {
        if (fd < 0) fd = connect_local(server.port());
        RequestFrame req;
        req.batch = batch;
        const ResponseFrame resp = round_trip(fd, req);
        if (resp.status == Status::kOk) {
          // THE invariant: a request either fails in a typed way or
          // returns exactly the unfaulted bits — short reads, torn
          // frames and resets around it change nothing.
          expect_bitwise_equal(resp.logits, reference);
          ++ok;
        } else {
          ++typed_error;
        }
      } catch (const WireError&) {
        ++dropped;
        if (fd >= 0) ::close(fd);
        fd = -1;  // reconnect on the next iteration
      }
    }
    if (fd >= 0) ::close(fd);
    EXPECT_EQ(ok + typed_error + dropped, kRequests) << "seed " << seed;
    EXPECT_GT(ok, 0) << "seed " << seed << ": nothing succeeded — schedule too hot?";

    // The server survived the whole schedule: quiesce the faults and
    // prove it still serves cleanly.
    FaultInjector::global().reset();
    const int clean_fd = connect_local(server.port());
    RequestFrame req;
    req.batch = batch;
    const ResponseFrame resp = round_trip(clean_fd, req);
    ::close(clean_fd);
    ASSERT_EQ(resp.status, Status::kOk) << "seed " << seed << ": " << resp.message;
    expect_bitwise_equal(resp.logits, reference);
  }
  server.stop();
}

}  // namespace
}  // namespace ndsnn::serve
