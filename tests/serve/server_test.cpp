// Socket front-end: framed round trips over a real TCP connection must
// be bitwise identical to in-process submits, and per-request errors
// must come back as statuses without dropping the connection.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "nn/models/zoo.hpp"
#include "runtime/compiled_network.hpp"
#include "runtime/stream_session.hpp"
#include "serve/model_registry.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "sparse/mask.hpp"
#include "tensor/random.hpp"

namespace ndsnn::serve {
namespace {

using runtime::CompiledNetwork;
using runtime::CompileOptions;
using tensor::Rng;
using tensor::Shape;
using tensor::Tensor;

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

TEST(ServerTest, SocketRoundTripMatchesInProcessSubmitBitwise) {
  ModelRegistry registry;
  registry.add("a", loader_for(make_net(21)));
  ServerOptions sopts;
  sopts.default_model = "a";
  Server server(registry, sopts);
  server.start();
  ASSERT_GT(server.port(), 0);

  const Tensor batch = make_batch(2, 22);
  // The spiking forward pass is deterministic per plan, so serving the
  // same batch twice (socket and in-process) must agree to the bit.
  const Tensor reference = registry.acquire("a")->executor().submit({batch, {}}).get().logits;

  const int fd = connect_local(server.port());
  RequestFrame req;
  req.model = "a";
  req.batch = batch;
  const ResponseFrame resp = round_trip(fd, req);
  ::close(fd);

  ASSERT_EQ(resp.status, Status::kOk) << resp.message;
  expect_bitwise_equal(resp.logits, reference);
  EXPECT_EQ(server.requests_served(), 1);
  EXPECT_EQ(server.connections(), 1);
  server.stop();
}

TEST(ServerTest, EmptyModelNameFallsBackToTheDefaultModel) {
  ModelRegistry registry;
  registry.add("only", loader_for(make_net(23)));
  ServerOptions sopts;
  sopts.default_model = "only";
  Server server(registry, sopts);
  server.start();

  const Tensor batch = make_batch(1, 24);
  const Tensor reference = registry.acquire("only")->executor().submit({batch, {}}).get().logits;

  const int fd = connect_local(server.port());
  RequestFrame req;  // model left empty
  req.batch = batch;
  const ResponseFrame resp = round_trip(fd, req);
  ::close(fd);

  ASSERT_EQ(resp.status, Status::kOk) << resp.message;
  expect_bitwise_equal(resp.logits, reference);
}

TEST(ServerTest, UnknownModelIsAPerRequestErrorNotAConnectionDrop) {
  ModelRegistry registry;
  registry.add("a", loader_for(make_net(25)));
  ServerOptions sopts;
  sopts.default_model = "a";
  Server server(registry, sopts);
  server.start();

  const int fd = connect_local(server.port());
  RequestFrame bad;
  bad.model = "no-such-model";
  bad.batch = make_batch(1, 26);
  const ResponseFrame err = round_trip(fd, bad);
  EXPECT_EQ(err.status, Status::kError);
  EXPECT_FALSE(err.message.empty());

  // The connection survives: a good request on the same fd still works.
  RequestFrame good;
  good.model = "a";
  good.batch = make_batch(1, 26);
  const ResponseFrame ok = round_trip(fd, good);
  EXPECT_EQ(ok.status, Status::kOk) << ok.message;
  ::close(fd);
  EXPECT_EQ(server.requests_served(), 2);
}

TEST(ServerTest, ManySequentialRequestsOnOneConnection) {
  ModelRegistry registry;
  registry.add("a", loader_for(make_net(27)));
  ServerOptions sopts;
  sopts.default_model = "a";
  Server server(registry, sopts);
  server.start();

  const auto model = registry.acquire("a");
  const int fd = connect_local(server.port());
  for (int i = 0; i < 6; ++i) {
    const Tensor batch = make_batch(1 + i % 2, 30 + static_cast<uint64_t>(i));
    const Tensor reference = model->executor().submit({batch, {}}).get().logits;
    RequestFrame req;
    req.batch = batch;
    const ResponseFrame resp = round_trip(fd, req);
    ASSERT_EQ(resp.status, Status::kOk) << resp.message;
    expect_bitwise_equal(resp.logits, reference);
  }
  ::close(fd);
  EXPECT_EQ(server.requests_served(), 6);
  EXPECT_EQ(server.connections(), 1);
  server.stop();
  // stop() is idempotent and the destructor will call it again.
  server.stop();
}

// Finished connection handlers must be reaped as the server keeps
// accepting — not hoarded as joinable zombie threads until stop(). Each
// accept joins handlers that have finished, so after a run of
// sequential connections the tracked set collapses to the live tail.
TEST(ServerTest, FinishedConnectionThreadsAreReapedWhileServing) {
  ModelRegistry registry;
  registry.add("a", loader_for(make_net(29)));
  ServerOptions sopts;
  sopts.default_model = "a";
  Server server(registry, sopts);
  server.start();

  RequestFrame req;
  req.batch = make_batch(1, 31);
  for (int i = 0; i < 8; ++i) {
    const int fd = connect_local(server.port());
    ASSERT_EQ(round_trip(fd, req).status, Status::kOk);
    ::close(fd);
  }
  // Handlers notice the client's close asynchronously; every new accept
  // reaps the ones that finished, so within a few probe connections the
  // tracked set must shrink to at most the probe itself plus one
  // straggler. Without reaping it only ever grows past the 8 above.
  bool reaped = false;
  for (int attempt = 0; attempt < 100 && !reaped; ++attempt) {
    const int fd = connect_local(server.port());
    ASSERT_EQ(round_trip(fd, req).status, Status::kOk);
    ::close(fd);
    reaped = server.tracked_connections() <= 2;
    if (!reaped) std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(reaped);
  EXPECT_GE(server.connections(), 9);  // every connection was accepted...
  EXPECT_LT(server.tracked_connections(), 3U);  // ...but almost none linger
  server.stop();
}

TEST(ServerTest, StreamedStepsOverTheSocketMatchADirectSession) {
  const auto net = make_net(41);
  ModelRegistry registry;
  registry.add("a", loader_for(net));
  ServerOptions sopts;
  sopts.default_model = "a";
  Server server(registry, sopts);
  server.start();

  // Reference trajectory: a fresh session driven in-process. The socket
  // stream must reproduce it step for step, bit for bit — the wire and
  // the executor queue add transport, never arithmetic.
  const auto model = registry.acquire("a");
  runtime::StreamSession reference(model->plan());

  const int fd = connect_local(server.port());
  ASSERT_EQ(stream_open(fd, "a").status, Status::kOk);
  for (int t = 0; t < 5; ++t) {
    Tensor frame(Shape{2, 1, 16, 16});
    if (t != 2) {  // step 2 stays silent: the delta path serves it too
      Rng rng(42 + static_cast<uint64_t>(t));
      frame.fill_uniform(rng, 0.0F, 4.0F);
    }
    const ResponseFrame resp = stream_step(fd, frame);
    ASSERT_EQ(resp.status, Status::kOk) << resp.message;
    expect_bitwise_equal(resp.logits, reference.step(frame).logits);
  }
  EXPECT_EQ(stream_close(fd).status, Status::kOk);
  EXPECT_EQ(model->executor().stats().open_streams, 0);
  ::close(fd);
  server.stop();
}

TEST(ServerTest, StreamProtocolViolationsAreErrorsNotDisconnects) {
  ModelRegistry registry;
  registry.add("a", loader_for(make_net(43)));
  ServerOptions sopts;
  sopts.default_model = "a";
  Server server(registry, sopts);
  server.start();

  const int fd = connect_local(server.port());
  // A step before any open is a per-frame error...
  const ResponseFrame early = stream_step(fd, make_batch(1, 44));
  EXPECT_EQ(early.status, Status::kError);
  EXPECT_FALSE(early.message.empty());
  // ...as is closing a stream that never opened...
  EXPECT_EQ(stream_close(fd).status, Status::kError);
  // ...and opening a second stream on the same connection.
  ASSERT_EQ(stream_open(fd, "a").status, Status::kOk);
  EXPECT_EQ(stream_open(fd, "a").status, Status::kError);
  // The original stream is untouched by the failed re-open.
  EXPECT_EQ(stream_step(fd, make_batch(2, 45)).status, Status::kOk);

  // v1 one-shot requests interleave with the open stream on the same
  // connection — old-protocol traffic is never locked out.
  RequestFrame req;
  req.batch = make_batch(1, 46);
  EXPECT_EQ(round_trip(fd, req).status, Status::kOk);
  EXPECT_EQ(stream_close(fd).status, Status::kOk);
  ::close(fd);
  server.stop();
}

TEST(ServerTest, DisconnectWithAnOpenStreamDoesNotLeakTheSession) {
  ModelRegistry registry;
  registry.add("a", loader_for(make_net(47)));
  ServerOptions sopts;
  sopts.default_model = "a";
  Server server(registry, sopts);
  server.start();

  const auto model = registry.acquire("a");
  {
    const int fd = connect_local(server.port());
    ASSERT_EQ(stream_open(fd, "").status, Status::kOk);  // default model
    ASSERT_EQ(stream_step(fd, make_batch(1, 48)).status, Status::kOk);
    EXPECT_EQ(model->executor().stats().open_streams, 1);
    ::close(fd);  // vanish mid-stream, no stream-close
  }
  // The handler notices the EOF asynchronously and closes the executor
  // session on its way out.
  bool reaped = false;
  for (int attempt = 0; attempt < 100 && !reaped; ++attempt) {
    reaped = model->executor().stats().open_streams == 0;
    if (!reaped) std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(reaped);
  server.stop();
}

}  // namespace
}  // namespace ndsnn::serve
