// Wire protocol of the socket serving front-end: length-prefixed binary
// frames over a byte stream (TCP).
//
// Every frame is [u32 magic "NDS1"][u32 payload length][payload]; both
// prefix fields and all multi-byte payload fields are little-endian
// (the encode/decode helpers serialize byte by byte, so the format is
// endian-safe even on a big-endian host). Payload layouts:
//
//   request:  u8 version | u8 kind=1 | u8 slo_class | u16 model_len |
//             model bytes | u32 rank | i64 dims[rank] | f32 data[numel]
//   response: u8 version | u8 kind=2 | u8 status |
//             ok:   u32 rank | i64 dims[rank] | f32 data[numel]
//             else: u32 msg_len | msg bytes
//
// Version 2 adds three streaming frame kinds (one-shot requests keep
// version 1 — a v1 client talks to a v2 server unchanged):
//
//   stream-open:  u8 version=2 | u8 kind=3 | u16 model_len | model bytes
//   stream-step:  u8 version=2 | u8 kind=4 | u32 rank | i64 dims | f32 data
//   stream-close: u8 version=2 | u8 kind=5
//
// All three are answered with an ordinary v1 response frame: open and
// close acknowledge with a placeholder scalar tensor, each step returns
// that step's logits [N, classes]. A connection holds at most one
// stream; temporal order is the arrival order of its step frames.
//
// One request maps to one BatchExecutor::submit: the tensor is the
// input batch [N, ...], the response tensor the mean logits
// [N, classes]. Non-ok statuses form a typed error taxonomy (README
// "Operational robustness"): kShed is ordinary back-pressure (admission
// control refused the request; retry later), kError carries the
// server-side exception message, kTimeout is the server reaping an
// idle/stalled connection (sent only when the socket is still
// writable), kShedding marks a draining server refusing *new* work
// (reconnect elsewhere; in-flight work still completes), and
// kBackpressure is a stream step rejected because the session's queue
// is at BatchExecutor::kMaxStreamQueue (session state untouched —
// resubmit the same frame, see stream_step_retry).
//
// The encode/decode half works on byte buffers and is testable without
// sockets; the send/recv half moves whole frames over a blocking fd.
// Decoding is defensive: truncated or oversized frames and bad magic
// raise WireError instead of reading out of bounds — the server must
// survive a confused or malicious client.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace ndsnn::serve {

constexpr uint32_t kFrameMagic = 0x3153444E;  // "NDS1" little-endian
constexpr uint8_t kWireVersion = 1;
/// Protocol revision that introduced the streaming frame kinds below.
constexpr uint8_t kWireVersionStream = 2;
constexpr uint8_t kKindRequest = 1;
constexpr uint8_t kKindResponse = 2;
constexpr uint8_t kKindStreamOpen = 3;
constexpr uint8_t kKindStreamStep = 4;
constexpr uint8_t kKindStreamClose = 5;
/// Frames above this are rejected before allocation (256 MiB: far above
/// any sane batch, far below an allocation-of-doom).
constexpr uint32_t kMaxFrameBytes = 256u << 20;

/// Malformed frame (bad magic/version/kind, truncation, size abuse) or
/// a broken connection mid-frame.
class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A socket deadline (SO_RCVTIMEO/SO_SNDTIMEO) expired mid-frame: the
/// peer stalled. Subclasses WireError — existing catch sites treat it
/// as a broken connection; the server additionally counts it in
/// serve.conn_timeout.
class WireTimeout : public WireError {
 public:
  using WireError::WireError;
};

enum class Status : uint8_t {
  kOk = 0,
  kShed = 1,     ///< admission control refused the request (back-pressure)
  kError = 2,    ///< server-side failure; message carries the reason
  kTimeout = 3,  ///< connection idle past the server's deadline; being reaped
  kShedding = 4,     ///< server draining: new work refused, reconnect elsewhere
  kBackpressure = 5, ///< stream queue full: resubmit this frame with backoff
};

struct RequestFrame {
  std::string model;      ///< registry name; empty = server default model
  uint8_t slo_class = 0;  ///< runtime::SloClass numeric value
  tensor::Tensor batch;   ///< input batch [N, ...]
};

struct ResponseFrame {
  Status status = Status::kOk;
  tensor::Tensor logits;  ///< mean logits [N, classes] when kOk
  std::string message;    ///< shed/error reason otherwise
};

/// v2: opens a streaming session for one model on this connection.
struct StreamOpenFrame {
  std::string model;  ///< registry name; empty = server default model
};

/// v2: one timestep's frame [N, ...] for the connection's open stream.
struct StreamStepFrame {
  tensor::Tensor frame;
};

/// First two payload bytes, readable without knowing the frame kind —
/// the server peeks these to dispatch one-shot vs. streaming paths.
struct FrameHeader {
  uint8_t version = 0;
  uint8_t kind = 0;
};

/// Peek version/kind from a raw payload (throws WireError when shorter
/// than the two header bytes). Does not validate either value: the
/// caller decides which (version, kind) pairs it speaks.
[[nodiscard]] FrameHeader peek_header(const uint8_t* data, std::size_t n);

/// Payload (no magic/length prefix) encode/decode.
[[nodiscard]] std::vector<uint8_t> encode_request(const RequestFrame& req);
[[nodiscard]] RequestFrame decode_request(const uint8_t* data, std::size_t n);
[[nodiscard]] std::vector<uint8_t> encode_response(const ResponseFrame& resp);
[[nodiscard]] ResponseFrame decode_response(const uint8_t* data, std::size_t n);

/// v2 streaming payloads. Responses to all three kinds reuse the v1
/// response frame (encode_response / decode_response above).
[[nodiscard]] std::vector<uint8_t> encode_stream_open(const StreamOpenFrame& open);
[[nodiscard]] StreamOpenFrame decode_stream_open(const uint8_t* data, std::size_t n);
[[nodiscard]] std::vector<uint8_t> encode_stream_step(const StreamStepFrame& step);
[[nodiscard]] StreamStepFrame decode_stream_step(const uint8_t* data, std::size_t n);
[[nodiscard]] std::vector<uint8_t> encode_stream_close();
void decode_stream_close(const uint8_t* data, std::size_t n);

/// What recv_frame observed at the frame boundary. A clean EOF and an
/// idle-deadline expiry are *states of the connection*, not protocol
/// errors — the server reacts differently to each (count serve.conn_eof
/// vs. answer kTimeout and reap), which a bool could not express.
enum class RecvStatus : uint8_t {
  kFrame = 0,    ///< one whole frame read into `payload`
  kEof = 1,      ///< peer closed cleanly before the first prefix byte
  kTimeout = 2,  ///< SO_RCVTIMEO expired while idle at the boundary
};

/// Blocking framed I/O over a connected socket/pipe fd. send_frame
/// writes prefix + payload; a peer that disconnected surfaces as
/// WireError, never SIGPIPE (socket writes use MSG_NOSIGNAL, so a
/// client that vanishes before reading its response cannot kill the
/// server process). A send deadline (SO_SNDTIMEO) expiring — a reader
/// stalled long enough to fill the socket buffer — throws WireTimeout.
/// recv_frame reads one whole frame into `payload`; EOF or a receive
/// deadline *mid-frame* throws (WireError/WireTimeout: the stream can
/// no longer be re-synced), as do bad magic and lengths above
/// kMaxFrameBytes.
///
/// Fault sites (util::fault, armed via NDSNN_FAULTS — zero cost
/// otherwise): `wire.short_read` / `wire.short_write` cap one syscall
/// to a single byte (the resume loops must hide this entirely),
/// `wire.reset` throws as if the kernel reported ECONNRESET/EPIPE, and
/// `wire.torn_frame` makes send_frame die after emitting the prefix and
/// half the payload — the peer sees a mid-frame EOF.
void send_frame(int fd, const std::vector<uint8_t>& payload);
[[nodiscard]] RecvStatus recv_frame(int fd, std::vector<uint8_t>& payload);

}  // namespace ndsnn::serve
