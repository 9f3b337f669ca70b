#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "util/fault_injection.hpp"
#include "util/logging.hpp"
#include "util/metrics.hpp"

namespace ndsnn::serve {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

/// Decrement-on-every-exit for the drain bookkeeping: a handler that
/// throws mid-response must not leave drain() waiting forever on a
/// phantom in-flight request.
/// Internal marker: a frame asked for new work while drain() was
/// refusing it. Caught in the handler and answered Status::kShedding;
/// deliberately not a std::exception so no generic catch can eat it.
struct DrainShed {};

class ScopedCount {
 public:
  explicit ScopedCount(std::atomic<int64_t>& counter) : counter_(counter) {
    counter_.fetch_add(1);
  }
  ~ScopedCount() { counter_.fetch_sub(1); }
  ScopedCount(const ScopedCount&) = delete;
  ScopedCount& operator=(const ScopedCount&) = delete;

 private:
  std::atomic<int64_t>& counter_;
};

}  // namespace

Server::Server(ModelRegistry& registry, const ServerOptions& opts)
    : registry_(registry), opts_(opts) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw_errno("serve: socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(opts.port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int saved = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    errno = saved;
    throw_errno("serve: bind");
  }
  if (::listen(listen_fd_, 64) != 0) {
    const int saved = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    errno = saved;
    throw_errno("serve: listen");
  }
  // Read the port back: with opts.port == 0 the kernel picked one.
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    throw_errno("serve: getsockname");
  }
  port_ = ntohs(bound.sin_port);
}

Server::~Server() {
  stop();
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void Server::start() {
  if (acceptor_.joinable()) return;
  acceptor_ = std::thread([this] { accept_loop(); });
}

void Server::stop() {
  if (stopping_.exchange(true)) {
    if (acceptor_.joinable()) acceptor_.join();
    return;
  }
  // Unblock accept() and every connection's blocking read.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  {
    std::lock_guard<std::mutex> lk(conn_mu_);
    for (const auto& conn : conns_) {
      if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  if (acceptor_.joinable()) acceptor_.join();
  std::vector<std::unique_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lk(conn_mu_);
    conns.swap(conns_);
  }
  for (auto& conn : conns) {
    if (conn->thread.joinable()) conn->thread.join();
  }
}

bool Server::drain(std::chrono::milliseconds deadline) {
  draining_.store(true);
  // Stop accepting right away: shutting the listen socket down pops the
  // acceptor out of accept() without tearing live connections down.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  const auto until = std::chrono::steady_clock::now() + deadline;
  bool settled = false;
  for (;;) {
    if (inflight_requests_.load() == 0 && open_wire_streams_.load() == 0) {
      settled = true;
      break;
    }
    if (std::chrono::steady_clock::now() >= until) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // Either way stop() now force-closes whatever remains; when settled,
  // there is nothing left to force.
  stop();
  return settled;
}

std::size_t Server::tracked_connections() const {
  std::lock_guard<std::mutex> lk(conn_mu_);
  return conns_.size();
}

void Server::reap_finished() {
  std::vector<std::unique_ptr<Connection>> finished;
  {
    std::lock_guard<std::mutex> lk(conn_mu_);
    auto keep = conns_.begin();
    for (auto& conn : conns_) {
      if (conn->done.load(std::memory_order_acquire)) {
        finished.push_back(std::move(conn));
      } else {
        *keep++ = std::move(conn);
      }
    }
    conns_.erase(keep, conns_.end());
  }
  // Join outside the lock: a done handler is past its last conn_mu_
  // critical section, so these joins return ~immediately and can never
  // deadlock against a handler waiting for the mutex.
  for (auto& conn : finished) {
    if (conn->thread.joinable()) conn->thread.join();
  }
}

void Server::accept_loop() {
  while (!stopping_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    // Reap between accepts: without this, a long-running server leaks
    // one joinable zombie thread per connection it ever served.
    reap_finished();
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listen socket shut down (stop()) or fatal — exit either way
    }
    if (util::fault::should_fail("server.accept")) {
      // As if the kernel ran out of fds / the handshake died: the
      // acceptor must shrug and keep accepting.
      util::MetricsRegistry::global().counter("serve.accept_faults").add();
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (opts_.conn_timeout_ms > 0) {
      timeval tv{};
      tv.tv_sec = opts_.conn_timeout_ms / 1000;
      tv.tv_usec = static_cast<suseconds_t>((opts_.conn_timeout_ms % 1000) * 1000);
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    }
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    Connection* raw = conn.get();
    // Publish and spawn under one critical section, re-checking
    // stopping_ inside it: stop() flips the flag before walking conns_
    // to shut their sockets down, so either this connection is refused
    // here or stop() sees it published — a socket can never slip
    // between the two and leave its handler blocked forever.
    std::lock_guard<std::mutex> lk(conn_mu_);
    if (stopping_.load()) {
      ::close(fd);
      break;
    }
    connections_.fetch_add(1);
    conns_.push_back(std::move(conn));
    raw->thread = std::thread([this, raw] { handle_connection(*raw); });
  }
}

void Server::handle_connection(Connection& conn) {
  const int fd = conn.fd;
  std::vector<uint8_t> payload;
  // The connection's open stream, if any: holding the ServedModel
  // shared_ptr keeps the executor (and its StreamSession) alive even if
  // the registry evicts the model mid-stream.
  std::shared_ptr<ServedModel> stream_model;
  uint64_t stream_id = 0;
  try {
    while (!stopping_.load()) {
      const RecvStatus rs = recv_frame(fd, payload);
      if (rs == RecvStatus::kEof) {
        util::MetricsRegistry::global().counter("serve.conn_eof").add();
        break;
      }
      if (rs == RecvStatus::kTimeout) {
        // Idle past --conn-timeout-ms at a frame boundary: the socket is
        // still healthy, so tell the client why before reaping it.
        util::MetricsRegistry::global().counter("serve.conn_timeout").add();
        try {
          ResponseFrame timeout;
          timeout.status = Status::kTimeout;
          timeout.message = "serve: connection idle past deadline";
          send_frame(fd, encode_response(timeout));
        } catch (const WireError&) {
          // Best effort — the reap happens either way.
        }
        break;
      }
      ResponseFrame resp;
      const ScopedCount inflight(inflight_requests_);
      // Holds the executor's result until the catches below have read its
      // error, so this thread, not the worker, frees the exception.
      std::shared_future<runtime::InferenceResult> pending;
      try {
        const FrameHeader hdr = peek_header(payload.data(), payload.size());
        if (hdr.kind == kKindStreamOpen) {
          const StreamOpenFrame open =
              decode_stream_open(payload.data(), payload.size());
          if (stream_model) {
            throw std::invalid_argument(
                "serve: a stream is already open on this connection");
          }
          if (draining_.load()) {
            throw DrainShed();
          }
          const std::string& name =
              open.model.empty() ? opts_.default_model : open.model;
          auto model = registry_.acquire(name);
          const uint64_t sid = model->executor().open_stream();
          stream_model = std::move(model);
          stream_id = sid;
          open_wire_streams_.fetch_add(1);
          resp.status = Status::kOk;
          resp.logits = tensor::Tensor(tensor::Shape{1});  // bare ack
        } else if (hdr.kind == kKindStreamStep) {
          const StreamStepFrame step =
              decode_stream_step(payload.data(), payload.size());
          if (!stream_model) {
            throw std::invalid_argument("serve: stream-step before stream-open");
          }
          pending = stream_model->executor().submit_stream(stream_id, step.frame).share();
          resp.logits = pending.get().logits;
          resp.status = Status::kOk;
        } else if (hdr.kind == kKindStreamClose) {
          decode_stream_close(payload.data(), payload.size());
          if (!stream_model) {
            throw std::invalid_argument(
                "serve: stream-close without an open stream");
          }
          stream_model->executor().close_stream(stream_id);
          stream_model.reset();
          stream_id = 0;
          open_wire_streams_.fetch_sub(1);
          resp.status = Status::kOk;
          resp.logits = tensor::Tensor(tensor::Shape{1});  // bare ack
        } else {
          // v1 one-shot path; decode_request validates version/kind, so
          // an unknown kind answers kError here without dropping the
          // connection (the framing itself was intact).
          if (draining_.load()) {
            throw DrainShed();
          }
          RequestFrame req = decode_request(payload.data(), payload.size());
          const std::string& name =
              req.model.empty() ? opts_.default_model : req.model;
          if (req.slo_class > static_cast<uint8_t>(runtime::SloClass::kBatch)) {
            throw std::invalid_argument("serve: unknown SLO class");
          }
          auto model = registry_.acquire(name);
          pending = model->executor()
                        .submit({std::move(req.batch),
                                 static_cast<runtime::SloClass>(req.slo_class)})
                        .share();
          resp.logits = pending.get().logits;
          resp.status = Status::kOk;
        }
      } catch (const DrainShed&) {
        resp.status = Status::kShedding;
        resp.message = "serve: draining — not accepting new work";
        util::MetricsRegistry::global().counter("serve.drain_shed").add();
      } catch (const runtime::BackpressureError& e) {
        // Must precede the ShedError catch — it subclasses ShedError,
        // and collapsing it to kShed would hide the retry-same-frame
        // contract from the client.
        resp.status = Status::kBackpressure;
        resp.message = e.what();
      } catch (const runtime::ShedError& e) {
        resp.status = Status::kShed;
        resp.message = e.what();
      } catch (const std::exception& e) {
        resp.status = Status::kError;
        resp.message = e.what();
      }
      if (util::fault::should_fail("server.stall")) {
        // A handler wedged before its response: the client's receive
        // deadline, not our goodwill, must bound the wait.
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
      }
      // Count before the bytes go out: a client that has seen the
      // response must also see it counted (tests rely on this order).
      requests_served_.fetch_add(1);
      util::MetricsRegistry::global().counter("serve.requests").add();
      send_frame(fd, encode_response(resp));
    }
  } catch (const WireTimeout& e) {
    // Peer stalled mid-frame (reading or writing): the stream cannot be
    // re-synced, so disconnect. Counted apart from protocol errors.
    util::MetricsRegistry::global().counter("serve.conn_timeout").add();
    util::log_debug() << "serve: closing stalled connection: " << e.what();
  } catch (const WireError& e) {
    // Malformed stream or peer vanished mid-frame: nothing to answer.
    util::MetricsRegistry::global().counter("serve.conn_error").add();
    util::log_debug() << "serve: closing connection: " << e.what();
  }
  // A client that vanished (or was shut down) with a stream open must
  // not leak the executor-side session.
  if (stream_model) {
    try {
      stream_model->executor().close_stream(stream_id);
    } catch (const std::exception& e) {
      util::log_debug() << "serve: stream teardown: " << e.what();
    }
    open_wire_streams_.fetch_sub(1);
  }
  {
    // Clear the record BEFORE closing: once close() returns the kernel
    // may recycle this fd number for an unrelated descriptor (or a new
    // connection), and a concurrent stop() walking conns_ must never
    // shut that stranger down.
    std::lock_guard<std::mutex> lk(conn_mu_);
    conn.fd = -1;
  }
  ::close(fd);
  // Last touch of the record: after this flips, the reaper may join the
  // thread and destroy `conn`.
  conn.done.store(true, std::memory_order_release);
}

namespace {

ResponseFrame await_response(int fd) {
  std::vector<uint8_t> payload;
  if (recv_frame(fd, payload) != RecvStatus::kFrame) {
    throw WireError("serve: server closed before responding");
  }
  return decode_response(payload.data(), payload.size());
}

}  // namespace

ResponseFrame round_trip(int fd, const RequestFrame& req) {
  send_frame(fd, encode_request(req));
  return await_response(fd);
}

ResponseFrame stream_open(int fd, const std::string& model) {
  send_frame(fd, encode_stream_open(StreamOpenFrame{model}));
  return await_response(fd);
}

ResponseFrame stream_step(int fd, const tensor::Tensor& frame) {
  send_frame(fd, encode_stream_step(StreamStepFrame{frame}));
  return await_response(fd);
}

ResponseFrame stream_close(int fd) {
  send_frame(fd, encode_stream_close());
  return await_response(fd);
}

ResponseFrame stream_step_retry(int fd, const tensor::Tensor& frame,
                                int max_retries, double base_backoff_ms,
                                uint64_t seed) {
  ResponseFrame resp = stream_step(fd, frame);
  for (int attempt = 0; attempt < max_retries; ++attempt) {
    if (resp.status != Status::kBackpressure) return resp;
    // Jitter to 50-150% of the exponential step, deterministically from
    // the caller's seed (splitmix64 finalizer) so tests can replay it.
    uint64_t z = seed + 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(attempt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    const double jitter = 0.5 + static_cast<double>(z >> 11) * 0x1.0p-53;
    const double delay_ms =
        base_backoff_ms * static_cast<double>(1 << attempt) * jitter;
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(delay_ms));
    resp = stream_step(fd, frame);
  }
  return resp;
}

int connect_local(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("serve: socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("serve: connect");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

}  // namespace ndsnn::serve
