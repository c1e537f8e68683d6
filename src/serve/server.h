// Network serving front-end (DESIGN.md, "Network serving"): a
// dependency-free epoll event loop speaking the serve/protocol.h framing,
// composed over the PR-5 primitives so admission control, micro-batching
// and backpressure finally face real concurrent connections.
//
// Architecture — one event-loop thread, compute on the global pool:
//
//   accept -> per-connection FrameDecoder -> scheduler.Submit()
//          -> (each loop turn) clock.Advance(); scheduler.Pump()
//          -> completed tickets encoded as response frames
//          -> per-connection write buffer, drained as sockets allow
//
// The loop thread owns every socket and buffer; the only cross-thread
// traffic is the scheduler handing batches to the ThreadPool, which is the
// already-proven PR-5 path. The scheduler's VirtualClock advances once per
// loop turn, so batching behavior is a function of arrival interleaving,
// not wall-clock time.
//
// Overload contract: a request that cannot be admitted (scheduler queue at
// max_queue) is answered immediately with a structured kError frame
// carrying kUnavailable — never a hang, never a silent drop. Per-request
// failures (unknown tenant, store load fault, budget exhaustion) come back
// the same way with their own codes; batch peers are untouched. A
// malformed frame gets a kError reply naming the offending field, then the
// connection closes: framing is lost, so nothing later on that stream can
// be trusted.
//
// A connection that disconnects mid-request is simply forgotten: its
// in-flight requests still execute (the scheduler owns them), their
// results are discarded, and the store pin is released by the forecast op
// as always — a vanished client cannot leak residency.
//
// Instrumentation: serve.server.connections_total / active_connections /
// frames_received_total / frames_sent_total / bytes_read_total /
// bytes_written_total / rejected_total / protocol_errors_total /
// slow_reader_drops_total and the serve.server.request_seconds latency
// histogram. Fault sites:
// serve.server.accept (drops an incoming connection),
// serve.server.read/<conn> and serve.server.write/<conn> (fail one
// connection's I/O; <conn> is the connection's accept-order index).

#ifndef EMAF_SERVE_SERVER_H_
#define EMAF_SERVE_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "serve/model_store.h"
#include "serve/protocol.h"
#include "serve/scheduler.h"

namespace emaf::online {
class ObservationLog;
}  // namespace emaf::online

namespace emaf::serve {

struct ServerOptions {
  // TCP port to bind on 127.0.0.1; 0 picks an ephemeral port (read it back
  // with port()). The server is loopback-only by design: it is a serving
  // core, not an internet-facing edge.
  uint16_t port = 0;
  // Connections over this limit are accepted and immediately closed.
  int64_t max_connections = 256;
  // Frame-size ceiling enforced by the per-connection decoders.
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  // Ceiling on encoded reply bytes buffered toward one connection (frames
  // the socket has not yet accepted). A peer that pipelines requests but
  // never reads its socket is dropped once its backlog exceeds this —
  // bounding per-connection memory; the scheduler queue alone does not,
  // because ping/pong and error replies bypass admission. Must be at
  // least max_frame_bytes or a single max-size response can trip it.
  size_t max_conn_buffered_bytes = 4 * kDefaultMaxFrameBytes;
  // SO_SNDBUF for accepted sockets; 0 keeps the kernel default (and its
  // autotuning). Tiny values make write backpressure observable, which
  // the slow-reader tests rely on.
  int send_buffer_bytes = 0;
  // Residency budgets etc. for the underlying ModelStore.
  ModelStoreOptions store;
  // Admission bound and micro-batch shape for the RequestScheduler. The
  // default max_queue=256 is the backpressure door.
  SchedulerOptions scheduler;
  // Drain bound: once every admitted request has finished, the drain
  // lingers at most this many loop turns waiting for peers to accept
  // their buffered replies (the best-effort flush). A loop turn waits at
  // most the server's 1 ms epoll timeout, so a peer that never reads
  // cannot stall shutdown beyond about this many milliseconds.
  int64_t drain_linger_turns = 2000;
  // Directory for the per-tenant streaming observation journals
  // (online/observation_log.h), enabling kAppend frames. Empty (the
  // default) refuses appends with kFailedPrecondition — forecast-only
  // deployments carry no ingestion surface.
  std::string observation_log_dir;
};

class Server {
 public:
  // Opens the snapshot directory (directory listing or MANIFEST — see
  // ModelStore::Open), binds, and starts the event-loop thread. On return
  // the server is reachable on port().
  static Result<Server> Start(const std::string& snapshot_dir,
                              const ServerOptions& options = {});

  Server(Server&&) noexcept;
  Server& operator=(Server&&) noexcept;
  ~Server();  // implies Stop()

  uint16_t port() const;

  // Stops accepting, drains in-flight batches, joins the loop thread, and
  // closes every socket. Idempotent. Abrupt: buffered replies are
  // discarded; use BeginDrain for a graceful handoff.
  void Stop();

  // Graceful shutdown, async: the server stops accepting connections,
  // answers new forecast requests with a structured kUnavailable
  // ("draining"), finishes every in-flight batch, best-effort flushes the
  // buffered replies (bounded by drain_linger_turns), then closes all
  // connections and parks the loop. Health probes and pings keep working
  // throughout, so a load balancer sees the DRAINING state instead of a
  // dead port. Idempotent; follow with WaitDrained() and Stop().
  void BeginDrain();
  // Blocks until the drain completes or `timeout_ms` elapses; returns
  // whether it completed. False when no drain was begun.
  bool WaitDrained(int64_t timeout_ms);
  // Lifecycle state as reported in health replies.
  ServeState state() const;

  struct Stats {
    uint64_t connections_accepted = 0;
    uint64_t connections_closed = 0;
    uint64_t frames_received = 0;
    uint64_t frames_sent = 0;
    uint64_t bytes_read = 0;
    uint64_t bytes_written = 0;
    uint64_t requests_ok = 0;        // forecast responses served
    uint64_t requests_rejected = 0;  // kUnavailable backpressure replies
    uint64_t requests_failed = 0;    // per-request errors (store, forecast)
    uint64_t appends_ok = 0;         // observation rows journaled
    uint64_t appends_failed = 0;     // kAppend frames refused or errored
    uint64_t protocol_errors = 0;    // malformed frames / streams
    uint64_t slow_reader_drops = 0;  // write backlog over the ceiling
    int64_t active_connections = 0;
  };
  Stats stats() const;

  // The underlying store (residency stats, EvictIdle) and scheduler stats
  // — for tests and operators; both outlive any request.
  ModelStore& store();
  RequestScheduler::Stats scheduler_stats() const;
  // The streaming observation journal; nullptr unless observation_log_dir
  // was set. An in-process online pipeline shares it with the wire path.
  online::ObservationLog* observation_log();

 private:
  Server();

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace emaf::serve

#endif  // EMAF_SERVE_SERVER_H_
