// Blocking-socket TCP front-end over a ModelRegistry.
//
// One acceptor thread listens on a TCP port; each accepted connection
// gets a handler thread that loops recv_frame -> decode_request ->
// ModelRegistry::acquire -> BatchExecutor::submit -> encode_response ->
// send_frame until the client closes. The actual request parallelism
// stays in the executors' worker pools — connection threads only block
// on sockets and futures, so even many idle connections cost nothing
// but a thread apiece.
//
// Error surface, per request: BackpressureError (a stream step over
// BatchExecutor::kMaxStreamQueue) maps to Status::kBackpressure,
// any other ShedError (admission control or shutdown) to Status::kShed;
// any other server-side exception (unknown model, bad input shape) maps
// to Status::kError with the exception message. Only a protocol-level
// WireError (bad magic, truncated frame) closes the connection — a
// malformed stream cannot be re-synced.
//
// Robustness (PR 10): ServerOptions::conn_timeout_ms arms per-socket
// deadlines — idle connections are answered kTimeout and reaped,
// mid-frame stalls disconnect, and a stalled reader bounds the write
// path; clean EOFs, read errors and deadline reaps are counted in the
// serve.conn_eof / serve.conn_error / serve.conn_timeout metrics.
// drain(deadline) is the graceful SIGTERM path: refuse new work with
// kShedding, finish in-flight one-shots and open streams, force-close
// at the deadline.
//
// Streaming (wire v2): a connection may hold at most one open stream.
// stream-open acquires the model and opens an executor StreamSession;
// each stream-step frame advances it by one timestep (answered with
// that step's logits, FIFO per stream); stream-close — or the client
// disconnecting — closes the session. v1 one-shot requests keep working
// on the same connection, interleaved with stream frames.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/model_registry.hpp"
#include "serve/wire.hpp"

namespace ndsnn::serve {

struct ServerOptions {
  /// TCP port to listen on; 0 lets the kernel pick (see port()).
  uint16_t port = 0;
  /// Model served when a request's model name is empty.
  std::string default_model;
  /// Per-connection socket deadline (SO_RCVTIMEO + SO_SNDTIMEO) in
  /// milliseconds; 0 disables. With a deadline set, a connection idle
  /// at a frame boundary past it is answered Status::kTimeout and
  /// reaped, a peer that stalls mid-frame (reading or writing) is
  /// disconnected without an answer, and a stalled *reader* can pin its
  /// handler thread for at most one deadline — the bounded write path.
  int64_t conn_timeout_ms = 0;
};

class Server {
 public:
  /// Binds and listens on 127.0.0.1:<port> immediately (throws
  /// std::runtime_error on bind failure); start() begins accepting.
  /// The registry must outlive the server.
  Server(ModelRegistry& registry, const ServerOptions& opts);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Spawn the acceptor thread. Idempotent.
  void start();
  /// Stop accepting, unblock and join every connection thread.
  /// In-flight requests finish; blocked reads see the socket shut down.
  /// Idempotent; also called by the destructor.
  void stop();

  /// Graceful shutdown: stop accepting immediately, answer frames that
  /// ask for *new* work (one-shot requests, stream-opens) with
  /// Status::kShedding, and give in-flight requests and open streams up
  /// to `deadline` to finish — stream steps and closes on an
  /// already-open stream keep being served meanwhile. Then stop()
  /// force-closes whatever remains. Returns true when everything
  /// settled inside the deadline (the clean SIGTERM exit-0 path of
  /// serve_sparse), false when stragglers were force-closed.
  bool drain(std::chrono::milliseconds deadline);
  /// True once drain() (or stop()) has begun refusing new work.
  [[nodiscard]] bool draining() const { return draining_.load(); }

  /// The bound port (the kernel's choice when opts.port was 0).
  [[nodiscard]] uint16_t port() const { return port_; }
  /// Requests answered with any status (all-time).
  [[nodiscard]] int64_t requests_served() const { return requests_served_.load(); }
  /// Connections accepted (all-time).
  [[nodiscard]] int64_t connections() const { return connections_.load(); }
  /// Connection records currently tracked (live handlers plus finished
  /// ones not yet reaped). Each accept reaps finished handlers, so this
  /// stays bounded by the number of *concurrent* connections — a
  /// long-running server must not hoard one zombie thread per
  /// connection it ever served (pinned by the server test).
  [[nodiscard]] std::size_t tracked_connections() const;

 private:
  /// One accepted connection: its socket and handler thread. `fd` is
  /// cleared to -1 (under conn_mu_) by the handler *before* the socket
  /// is closed, so stop() can never shut down a recycled descriptor;
  /// `done` flips after the handler's last touch of the record, making
  /// the thread joinable-without-blocking for the reaper.
  struct Connection {
    int fd = -1;
    std::atomic<bool> done{false};
    std::thread thread;
  };

  void accept_loop();
  void handle_connection(Connection& conn);
  /// Join and drop every connection whose handler has finished.
  void reap_finished();

  ModelRegistry& registry_;
  const ServerOptions opts_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  /// drain() refuses new work before stop() tears connections down.
  std::atomic<bool> draining_{false};
  std::atomic<int64_t> requests_served_{0};
  std::atomic<int64_t> connections_{0};
  /// Frames being processed right now (decode -> respond); drain()
  /// waits for this to reach zero.
  std::atomic<int64_t> inflight_requests_{0};
  /// Streams open on live connections; drain() waits for their closes
  /// (or the deadline). Distinct from ExecutorStats::open_streams: this
  /// is the wire-side count.
  std::atomic<int64_t> open_wire_streams_{0};
  std::thread acceptor_;
  mutable std::mutex conn_mu_;
  std::vector<std::unique_ptr<Connection>> conns_;
};

/// Client-side convenience for tests and the loadgen: one framed
/// request/response round trip over a connected fd. Throws WireError on
/// protocol failure (EOF before the response included).
[[nodiscard]] ResponseFrame round_trip(int fd, const RequestFrame& req);

/// Client-side streaming round trips (wire v2): each sends one frame
/// and blocks for the server's response. open/close acks carry a
/// placeholder scalar; each step's logits ride the kOk response.
[[nodiscard]] ResponseFrame stream_open(int fd, const std::string& model);
[[nodiscard]] ResponseFrame stream_step(int fd, const tensor::Tensor& frame);
[[nodiscard]] ResponseFrame stream_close(int fd);

/// stream_step that answers kBackpressure by resubmitting the SAME
/// frame after jittered exponential backoff (base_backoff_ms * 2^try,
/// jittered to 50-150% from `seed`), up to `max_retries` resubmissions.
/// Safe because a backpressure rejection never touched the session's
/// carry state — the step simply has not happened yet. Returns the
/// first non-backpressure response (which can still be kShed/kError),
/// or the last kBackpressure response once retries are exhausted.
[[nodiscard]] ResponseFrame stream_step_retry(int fd, const tensor::Tensor& frame,
                                              int max_retries = 6,
                                              double base_backoff_ms = 1.0,
                                              uint64_t seed = 1);

/// Connect a blocking TCP socket to 127.0.0.1:<port>; throws
/// std::runtime_error on failure. Caller owns (closes) the fd.
[[nodiscard]] int connect_local(uint16_t port);

}  // namespace ndsnn::serve
