// In-repo client for the serve::Server wire protocol, shared by the
// loopback tests, emafbench's load generator, and the quickstart
// example — one implementation of framing, request-id matching and error
// decoding instead of three.
//
// The client is a plain blocking TCP socket. Two usage styles:
//
//   - Request/response: Forecast() / Ping() send one frame and block until
//     the matching reply (by request id) arrives. A kError reply decodes
//     into the server's Status — so a rejected request surfaces exactly
//     the structured kUnavailable (or kNotFound, ...) the server sent.
//   - Pipelined: SendForecastRequest() queues any number of requests
//     without reading; ReadFrame() then yields replies in arrival order,
//     to be matched by request id. One thread may send while another
//     reads (the two directions share no state), which is how an
//     open-loop load generator sends at a target rate regardless of
//     completions.
//
// Retry: ForecastWithRetry() wraps Forecast() in the RetryPolicy from
// ClientOptions — retrying only kUnavailable (backpressure, a draining
// server, a dropped connection), reconnecting automatically when the
// stream itself broke (EPIPE/ECONNRESET, server close, corrupt framing),
// and backing off exponentially with jitter between attempts. The jitter
// stream is seeded and the sleeper injectable, so tests observe a
// bitwise-reproducible wait sequence.
//
// Test hooks: `write_chunk_bytes` splits every send into chunks of that
// many bytes (1 = the pathological byte-at-a-time client the server's
// reassembly must survive), and SendBytes() puts arbitrary bytes on the
// wire for conformance/fuzz cases.

#ifndef EMAF_SERVE_CLIENT_H_
#define EMAF_SERVE_CLIENT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "serve/protocol.h"
#include "serve/retry.h"
#include "tensor/tensor.h"

namespace emaf::serve {

struct ClientOptions {
  std::string host = "127.0.0.1";
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  // 0 = each frame in one write(); N > 0 = split sends into N-byte chunks
  // (stress for the server's partial-read reassembly).
  size_t write_chunk_bytes = 0;
  // Receive timeout; a read that sees no byte for this long fails with
  // kDeadlineExceeded instead of hanging a test forever — a terminal
  // outcome, never retried (only genuine connection loss is retryable).
  // <= 0 = no timeout.
  int64_t recv_timeout_ms = 30000;
  // SO_RCVBUF for the socket (set before connect); 0 keeps the kernel
  // default and its autotuning. Tiny values make a deliberately-not-reading
  // client exert real backpressure, which the slow-reader tests rely on.
  int recv_buffer_bytes = 0;
  // Policy for ForecastWithRetry. The default (max_attempts = 1) makes
  // it behave exactly like Forecast.
  RetryPolicy retry;
  // Called with each backoff wait in ms; nullptr = real sleep. Tests
  // inject a recorder to observe the deterministic wait sequence without
  // slowing the suite down.
  std::function<void(int64_t)> backoff_sleeper;
};

class Client {
 public:
  static Result<Client> Connect(uint16_t port,
                                const ClientOptions& options = {});

  Client(Client&&) noexcept;
  Client& operator=(Client&&) noexcept;
  ~Client();  // closes the socket

  bool connected() const { return fd_ >= 0; }
  void Close();
  // True once the byte stream is untrustworthy (connection dropped,
  // corrupt framing): further sends/reads on this connection cannot
  // succeed, only Reconnect() can.
  bool stream_broken() const { return stream_broken_; }

  // Drops the current connection (if any) and dials the same host:port
  // again with a fresh decoder. Request ids keep counting up, so replies
  // from before the reconnect can never be confused with new ones.
  Status Reconnect();

  // Blocking request/response round trips. `deadline_ticks` travels in
  // the frame header (0 = none): the server sheds the request with
  // kDeadlineExceeded once that many virtual-clock ticks pass without a
  // forward running.
  Result<tensor::Tensor> Forecast(const std::string& tenant_id,
                                  const tensor::Tensor& window,
                                  uint64_t deadline_ticks = 0);
  Status Ping();
  // Readiness probe; answered even by a draining server.
  Result<HealthInfo> Health();
  // Streams one observation row into the tenant's server-side journal
  // (kAppend); returns the sequence number the log assigned. Surfaces the
  // server's refusal verbatim (kFailedPrecondition when ingestion is
  // disabled, kUnavailable when draining).
  Result<uint64_t> Append(const std::string& tenant_id,
                          const std::vector<double>& values);

  // As Forecast, but retried per ClientOptions::retry: only kUnavailable
  // is retried (never kDeadlineExceeded or kInvalidArgument), with
  // deterministic exponential backoff + jitter between attempts and an
  // automatic Reconnect when the connection itself broke. Returns the
  // last attempt's error when the budget runs out.
  Result<tensor::Tensor> ForecastWithRetry(const std::string& tenant_id,
                                           const tensor::Tensor& window,
                                           uint64_t deadline_ticks = 0);

  // Pipelined sending; returns the request id to match the reply with.
  Result<uint64_t> SendForecastRequest(const std::string& tenant_id,
                                       const tensor::Tensor& window,
                                       uint64_t deadline_ticks = 0);

  // Raw frame / byte access for tests and the load generator.
  Status SendFrame(const Frame& frame);
  Status SendBytes(std::string_view bytes);
  // Next frame from the server, in arrival order. kUnavailable when the
  // server closed the connection; kDeadlineExceeded when the receive
  // timeout expired; kInvalidArgument / kDataLoss when the reply stream
  // is malformed.
  Result<Frame> ReadFrame();

 private:
  Client(int fd, uint16_t port, const ClientOptions& options);

  int fd_ = -1;
  uint16_t port_ = 0;  // remembered for Reconnect
  ClientOptions options_;
  FrameDecoder decoder_;
  uint64_t next_request_id_ = 1;
  bool stream_broken_ = false;
};

}  // namespace emaf::serve

#endif  // EMAF_SERVE_CLIENT_H_
