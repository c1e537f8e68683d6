#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <optional>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "online/observation_log.h"
#include "tensor/arena.h"

namespace emaf::serve {

namespace {

// epoll_wait timeout: the pacing of batch-aging Pump() turns when no
// socket activity wakes the loop earlier.
constexpr int kPollTimeoutMs = 1;

Status Errno(const char* what) {
  return Status::Internal(StrCat(what, ": ", std::strerror(errno)));
}

}  // namespace

struct Server::Impl {
  // One accepted socket. Owned exclusively by the loop thread.
  struct Conn {
    int fd = -1;
    uint64_t id = 0;  // accept-order index; names the fault sites
    FrameDecoder decoder;
    std::string out;       // encoded frames awaiting the socket
    size_t out_offset = 0;
    bool want_write = false;  // EPOLLOUT currently armed
    bool closing = false;     // close once `out` drains

    explicit Conn(size_t max_frame_bytes) : decoder(max_frame_bytes) {}
  };

  // One admitted forecast request whose ticket has not completed yet.
  struct InFlight {
    RequestTicket ticket;
    uint64_t conn_id = 0;
    uint64_t request_id = 0;
    std::chrono::steady_clock::time_point start;
  };

  ServerOptions options;
  // optional: ModelStore is only constructible via ModelStore::Open.
  std::optional<ModelStore> model_store;
  tensor::InferenceArena arena;
  ManualClock clock;
  std::optional<RequestScheduler> scheduler;
  // Streaming ingestion journal; engaged only when observation_log_dir is
  // set. The log does its own locking — appends land on the loop thread,
  // while an in-process online pipeline may read tails from another.
  std::optional<online::ObservationLog> observation_log;

  int listen_fd = -1;
  int epoll_fd = -1;
  int wake_fd = -1;
  uint16_t bound_port = 0;
  std::thread loop;
  std::atomic<bool> stop{false};
  bool stopped = false;  // guards double Stop(); main thread only

  // Graceful-drain state machine (DESIGN.md, "Request lifecycle & failure
  // semantics"). `drain_requested` is the cross-thread signal; the loop
  // thread owns the transition into kDraining and sets `drained` once the
  // queue, the in-flight set and (best-effort) the write buffers are empty.
  std::atomic<uint8_t> serve_state{static_cast<uint8_t>(ServeState::kStarting)};
  std::atomic<bool> drain_requested{false};
  std::atomic<bool> drained{false};
  int64_t drain_turns = 0;  // loop thread only

  bool draining() const {
    return serve_state.load(std::memory_order_acquire) ==
           static_cast<uint8_t>(ServeState::kDraining);
  }

  uint64_t next_conn_id = 2;  // 0 = listen socket, 1 = wake eventfd
  std::map<uint64_t, std::unique_ptr<Conn>> conns;
  std::vector<InFlight> in_flight;

  // Stats are written by the loop thread, read from any thread.
  std::atomic<uint64_t> connections_accepted{0};
  std::atomic<uint64_t> connections_closed{0};
  std::atomic<uint64_t> frames_received{0};
  std::atomic<uint64_t> frames_sent{0};
  std::atomic<uint64_t> bytes_read{0};
  std::atomic<uint64_t> bytes_written{0};
  std::atomic<uint64_t> requests_ok{0};
  std::atomic<uint64_t> requests_rejected{0};
  std::atomic<uint64_t> requests_failed{0};
  std::atomic<uint64_t> appends_ok{0};
  std::atomic<uint64_t> appends_failed{0};
  std::atomic<uint64_t> protocol_errors{0};
  std::atomic<uint64_t> slow_reader_drops{0};

  // Joins the loop thread, then closes every socket (idempotent; main
  // thread only). Descriptors are closed only after the join, so the loop
  // never races a close — and clients of a Stop()ed-but-still-alive Server
  // see EOF instead of hanging on a half-dead connection.
  void Shutdown() {
    if (stopped) return;
    stopped = true;
    stop.store(true, std::memory_order_release);
    if (wake_fd >= 0) {
      uint64_t one = 1;
      [[maybe_unused]] ssize_t r = ::write(wake_fd, &one, sizeof(one));
    }
    if (loop.joinable()) loop.join();
    for (auto& [id, conn] : conns) {
      if (conn->fd >= 0) ::close(conn->fd);
    }
    conns.clear();
    if (listen_fd >= 0) ::close(listen_fd);
    if (wake_fd >= 0) ::close(wake_fd);
    if (epoll_fd >= 0) ::close(epoll_fd);
    listen_fd = wake_fd = epoll_fd = -1;
  }

  ~Impl() { Shutdown(); }

  // --- Socket plumbing (loop thread only) ----------------------------------

  void EpollSet(Conn* conn) {
    epoll_event event{};
    event.events = EPOLLIN | (conn->want_write ? EPOLLOUT : 0u);
    event.data.u64 = conn->id;
    EMAF_CHECK(epoll_ctl(epoll_fd, EPOLL_CTL_MOD, conn->fd, &event) == 0)
        << "epoll_ctl(MOD): " << std::strerror(errno);
  }

  void CloseConn(uint64_t conn_id) {
    auto it = conns.find(conn_id);
    if (it == conns.end()) return;
    epoll_ctl(epoll_fd, EPOLL_CTL_DEL, it->second->fd, nullptr);
    ::close(it->second->fd);
    conns.erase(it);
    connections_closed.fetch_add(1, std::memory_order_relaxed);
    EMAF_METRIC_GAUGE_SET("serve.server.active_connections",
                          static_cast<double>(conns.size()));
    // In-flight requests of this connection keep executing; their results
    // are discarded in DrainCompleted when the conn id no longer resolves.
  }

  void SendFrame(Conn* conn, const Frame& frame) {
    conn->out.append(EncodeFrame(frame));
    frames_sent.fetch_add(1, std::memory_order_relaxed);
    EMAF_METRIC_COUNTER_ADD("serve.server.frames_sent_total", 1);
    const uint64_t conn_id = conn->id;
    FlushWrites(conn);  // may close the connection; re-resolve before use
    auto it = conns.find(conn_id);
    if (it == conns.end()) return;
    conn = it->second.get();
    // A peer that keeps the request direction busy but never reads its
    // socket would grow `out` without limit — the scheduler queue bounds
    // forecast responses, but pong and error replies bypass admission.
    // Such a slow reader is dropped once its backlog exceeds the ceiling.
    if (conn->out.size() - conn->out_offset >
        options.max_conn_buffered_bytes) {
      slow_reader_drops.fetch_add(1, std::memory_order_relaxed);
      EMAF_METRIC_COUNTER_ADD("serve.server.slow_reader_drops_total", 1);
      CloseConn(conn_id);
    }
  }

  void SendError(Conn* conn, uint64_t request_id, const Status& status) {
    Frame frame;
    frame.type = FrameType::kError;
    frame.request_id = request_id;
    frame.payload = EncodeStatusPayload(status);
    SendFrame(conn, frame);
  }

  // Drains as much of conn->out as the socket accepts; arms EPOLLOUT for
  // the rest. Closes the connection on write failure or injected fault.
  void FlushWrites(Conn* conn) {
    if (EMAF_FAULT_SHOULD_FAIL(StrCat("serve.server.write/", conn->id))) {
      CloseConn(conn->id);
      return;
    }
    while (conn->out_offset < conn->out.size()) {
      // MSG_NOSIGNAL: writing to a peer that already reset the connection
      // must fail with EPIPE (a normal close, handled below), never raise
      // SIGPIPE and kill the whole server.
      ssize_t n = ::send(conn->fd, conn->out.data() + conn->out_offset,
                         conn->out.size() - conn->out_offset, MSG_NOSIGNAL);
      if (n > 0) {
        conn->out_offset += static_cast<size_t>(n);
        bytes_written.fetch_add(static_cast<uint64_t>(n),
                                std::memory_order_relaxed);
        EMAF_METRIC_COUNTER_ADD("serve.server.bytes_written_total",
                                static_cast<uint64_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      CloseConn(conn->id);  // peer vanished mid-write
      return;
    }
    if (conn->out_offset == conn->out.size()) {
      conn->out.clear();
      conn->out_offset = 0;
      if (conn->closing) {
        CloseConn(conn->id);
        return;
      }
      if (conn->want_write) {
        conn->want_write = false;
        EpollSet(conn);
      }
    } else if (!conn->want_write) {
      conn->want_write = true;
      EpollSet(conn);
    }
  }

  void AcceptAll() {
    while (true) {
      int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK);
      if (fd < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        return;  // transient accept failure; the listener stays armed
      }
      connections_accepted.fetch_add(1, std::memory_order_relaxed);
      EMAF_METRIC_COUNTER_ADD("serve.server.connections_total", 1);
      if (EMAF_FAULT_SHOULD_FAIL("serve.server.accept") ||
          static_cast<int64_t>(conns.size()) >= options.max_connections) {
        ::close(fd);
        connections_closed.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      int one = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      if (options.send_buffer_bytes > 0) {
        setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options.send_buffer_bytes,
                   sizeof(options.send_buffer_bytes));
      }
      auto conn = std::make_unique<Conn>(options.max_frame_bytes);
      conn->fd = fd;
      conn->id = next_conn_id++;
      epoll_event event{};
      event.events = EPOLLIN;
      event.data.u64 = conn->id;
      EMAF_CHECK(epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &event) == 0)
          << "epoll_ctl(ADD): " << std::strerror(errno);
      conns.emplace(conn->id, std::move(conn));
      EMAF_METRIC_GAUGE_SET("serve.server.active_connections",
                            static_cast<double>(conns.size()));
    }
  }

  void HandleFrame(Conn* conn, Frame frame) {
    frames_received.fetch_add(1, std::memory_order_relaxed);
    EMAF_METRIC_COUNTER_ADD("serve.server.frames_received_total", 1);
    switch (frame.type) {
      case FrameType::kPing: {
        Frame pong;
        pong.type = FrameType::kPong;
        pong.request_id = frame.request_id;
        SendFrame(conn, pong);
        return;
      }
      case FrameType::kHealth: {
        // Answered in every state — a draining server must keep telling
        // its load balancer *why* it refuses work, or probes would read
        // the refusals as a crash.
        HealthInfo info;
        info.state =
            static_cast<ServeState>(serve_state.load(std::memory_order_acquire));
        info.resident_models = static_cast<uint64_t>(
            std::max<int64_t>(0, model_store->stats().resident_models));
        info.known_models =
            static_cast<uint64_t>(model_store->num_known_models());
        info.queue_depth = static_cast<uint64_t>(scheduler->queue_depth());
        info.max_published_version = model_store->max_published_version();
        Frame reply;
        reply.type = FrameType::kHealthReply;
        reply.request_id = frame.request_id;
        reply.payload = EncodeHealthPayload(info);
        SendFrame(conn, reply);
        return;
      }
      case FrameType::kForecastRequest: {
        if (draining()) {
          // New work during drain gets a structured refusal, not a hang:
          // the client's retry policy treats it like any backpressure
          // rejection and goes elsewhere.
          requests_rejected.fetch_add(1, std::memory_order_relaxed);
          EMAF_METRIC_COUNTER_ADD("serve.server.rejected_total", 1);
          SendError(conn, frame.request_id,
                    Status::Unavailable(
                        "draining: server is shutting down and no longer "
                        "admits forecast requests"));
          return;
        }
        Result<tensor::Tensor> window = DecodeTensorPayload(frame.payload);
        if (!window.ok()) {
          protocol_errors.fetch_add(1, std::memory_order_relaxed);
          EMAF_METRIC_COUNTER_ADD("serve.server.protocol_errors_total", 1);
          SendError(conn, frame.request_id, window.status());
          return;  // framing is intact; the connection survives
        }
        Result<RequestTicket> ticket = scheduler->Submit(
            ForecastRequest{frame.tenant_id, std::move(window).value(),
                            frame.has_deadline() ? frame.deadline_ticks : 0});
        if (!ticket.ok()) {
          // The backpressure door: a saturated queue answers a structured
          // kUnavailable immediately instead of hanging or dropping.
          requests_rejected.fetch_add(1, std::memory_order_relaxed);
          EMAF_METRIC_COUNTER_ADD("serve.server.rejected_total", 1);
          SendError(conn, frame.request_id, ticket.status());
          return;
        }
        in_flight.push_back(InFlight{std::move(ticket).value(), conn->id,
                                     frame.request_id,
                                     std::chrono::steady_clock::now()});
        return;
      }
      case FrameType::kAppend: {
        if (draining()) {
          appends_failed.fetch_add(1, std::memory_order_relaxed);
          SendError(conn, frame.request_id,
                    Status::Unavailable(
                        "draining: server is shutting down and no longer "
                        "accepts observation appends"));
          return;
        }
        if (!observation_log.has_value()) {
          appends_failed.fetch_add(1, std::memory_order_relaxed);
          SendError(conn, frame.request_id,
                    Status::FailedPrecondition(
                        "observation appends are disabled: the server was "
                        "started without an observation_log_dir"));
          return;
        }
        Result<tensor::Tensor> row = DecodeTensorPayload(frame.payload);
        if (!row.ok()) {
          protocol_errors.fetch_add(1, std::memory_order_relaxed);
          EMAF_METRIC_COUNTER_ADD("serve.server.protocol_errors_total", 1);
          SendError(conn, frame.request_id, row.status());
          return;
        }
        if (row.value().rank() != 1) {
          appends_failed.fetch_add(1, std::memory_order_relaxed);
          SendError(conn, frame.request_id,
                    Status::InvalidArgument(
                        StrCat("kAppend payload must be one observation row "
                               "[V], got rank ",
                               row.value().rank())));
          return;
        }
        Result<uint64_t> seq = observation_log->Append(
            frame.tenant_id,
            std::span<const double>(row.value().data(),
                                    static_cast<size_t>(row.value().dim(0))));
        if (!seq.ok()) {
          appends_failed.fetch_add(1, std::memory_order_relaxed);
          EMAF_METRIC_COUNTER_ADD("serve.server.appends_failed_total", 1);
          SendError(conn, frame.request_id, seq.status());
          return;
        }
        appends_ok.fetch_add(1, std::memory_order_relaxed);
        EMAF_METRIC_COUNTER_ADD("serve.server.appends_total", 1);
        Frame reply;
        reply.type = FrameType::kAppendReply;
        reply.request_id = frame.request_id;
        reply.payload = EncodeAppendReplyPayload(seq.value());
        SendFrame(conn, reply);
        return;
      }
      default: {
        // Clients send requests and pings; anything else means the peer is
        // confused, and with it the stream.
        protocol_errors.fetch_add(1, std::memory_order_relaxed);
        EMAF_METRIC_COUNTER_ADD("serve.server.protocol_errors_total", 1);
        // `closing` is set before the send: SendError's flush may close the
        // connection (write fault, or fully drained), after which `conn` is
        // gone and must not be touched.
        conn->closing = true;
        SendError(conn, frame.request_id,
                  Status::InvalidArgument(
                      StrCat("unexpected frame type ",
                             FrameTypeName(frame.type), " from a client")));
        return;
      }
    }
  }

  void HandleRead(uint64_t conn_id) {
    auto it = conns.find(conn_id);
    if (it == conns.end()) return;
    Conn* conn = it->second.get();
    if (EMAF_FAULT_SHOULD_FAIL(StrCat("serve.server.read/", conn->id))) {
      CloseConn(conn_id);
      return;
    }
    char buffer[4096];
    bool peer_closed = false;
    while (true) {
      ssize_t n = ::read(conn->fd, buffer, sizeof(buffer));
      if (n > 0) {
        bytes_read.fetch_add(static_cast<uint64_t>(n),
                             std::memory_order_relaxed);
        EMAF_METRIC_COUNTER_ADD("serve.server.bytes_read_total",
                                static_cast<uint64_t>(n));
        conn->decoder.Feed(std::string_view(buffer, static_cast<size_t>(n)));
        continue;
      }
      if (n == 0) {
        peer_closed = true;
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      peer_closed = true;  // ECONNRESET and friends
      break;
    }
    // Dispatch every complete frame buffered so far — all of them before
    // the next Pump(), so one segment of pipelined requests meets the
    // admission queue as one burst.
    while (std::optional<Result<Frame>> next = conn->decoder.Next()) {
      if (!next->ok()) {
        protocol_errors.fetch_add(1, std::memory_order_relaxed);
        EMAF_METRIC_COUNTER_ADD("serve.server.protocol_errors_total", 1);
        // closing first: the flush inside SendError may free `conn`.
        conn->closing = true;
        SendError(conn, /*request_id=*/0, next->status());
        return;
      }
      // A frame may close the connection (unexpected type); stop if so.
      HandleFrame(conn, std::move(next)->value());
      if (conns.find(conn_id) == conns.end()) return;
      if (conn->closing) break;
    }
    if (peer_closed) {
      // Flush what we can, then drop. In-flight work is discarded on
      // completion; the store was never pinned on this path.
      conn->closing = true;
      FlushWrites(conn);
      if (conns.find(conn_id) != conns.end()) CloseConn(conn_id);
    }
  }

  // Encodes every completed ticket into its connection's write buffer (or
  // discards it when the connection is gone).
  void DrainCompleted() {
    size_t kept = 0;
    for (size_t i = 0; i < in_flight.size(); ++i) {
      InFlight& entry = in_flight[i];
      if (!entry.ticket.done()) {
        if (kept != i) in_flight[kept] = std::move(entry);
        ++kept;
        continue;
      }
      const Result<tensor::Tensor>& result = entry.ticket.result();
      auto it = conns.find(entry.conn_id);
      if (it != conns.end()) {
        if (result.ok()) {
          requests_ok.fetch_add(1, std::memory_order_relaxed);
          Frame response;
          response.type = FrameType::kForecastResponse;
          response.request_id = entry.request_id;
          response.payload = EncodeTensorPayload(result.value());
          SendFrame(it->second.get(), response);
        } else {
          requests_failed.fetch_add(1, std::memory_order_relaxed);
          SendError(it->second.get(), entry.request_id, result.status());
        }
        if constexpr (obs::kMetricsEnabled) {
          EMAF_METRIC_HISTOGRAM_OBSERVE(
              "serve.server.request_seconds",
              std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            entry.start)
                  .count(),
              obs::DefaultSecondsBounds());
        }
      }
    }
    in_flight.resize(kept);
  }

  // Transition into kDraining (loop thread only): stop accepting — the
  // listen socket closes outright, so new connects are refused instead of
  // parking in the kernel backlog forever.
  void EnterDrain() {
    serve_state.store(static_cast<uint8_t>(ServeState::kDraining),
                      std::memory_order_release);
    if (listen_fd >= 0) {
      epoll_ctl(epoll_fd, EPOLL_CTL_DEL, listen_fd, nullptr);
      ::close(listen_fd);
      listen_fd = -1;
    }
    drain_turns = 0;
  }

  // One drain turn after the scheduler flushed: true once shutdown may
  // complete — every admitted request finished and every write buffer
  // drained (or the linger bound expired; a peer that never reads cannot
  // hold the process hostage).
  bool DrainFinished() {
    if (scheduler->queue_depth() > 0 || !in_flight.empty()) return false;
    bool writes_flushed = true;
    for (auto& [id, conn] : conns) {
      if (conn->out.size() > conn->out_offset) {
        FlushWrites(conn.get());  // best-effort, bounded by the linger
      }
    }
    for (auto& [id, conn] : conns) {
      if (conn->out.size() > conn->out_offset) {
        writes_flushed = false;
        break;
      }
    }
    ++drain_turns;
    return writes_flushed || drain_turns > options.drain_linger_turns;
  }

  void Loop() {
    serve_state.store(static_cast<uint8_t>(ServeState::kServing),
                      std::memory_order_release);
    epoll_event events[64];
    while (!stop.load(std::memory_order_acquire)) {
      if (drain_requested.load(std::memory_order_acquire) && !draining()) {
        EnterDrain();
      }
      int n = epoll_wait(epoll_fd, events, 64, kPollTimeoutMs);
      if (n < 0 && errno != EINTR) break;
      for (int i = 0; i < n; ++i) {
        const uint64_t id = events[i].data.u64;
        if (id == 0) {
          AcceptAll();
        } else if (id == 1) {
          uint64_t token = 0;
          [[maybe_unused]] ssize_t r =
              ::read(wake_fd, &token, sizeof(token));
        } else {
          if (events[i].events & (EPOLLHUP | EPOLLERR)) {
            // Let HandleRead consume whatever arrived before the hangup.
            HandleRead(id);
            CloseConn(id);
            continue;
          }
          if (events[i].events & EPOLLIN) HandleRead(id);
          auto it = conns.find(id);
          if (it != conns.end() && (events[i].events & EPOLLOUT)) {
            FlushWrites(it->second.get());
          }
        }
      }
      // One virtual tick per loop turn: batches age by event-loop turns,
      // never by wall clock, so batching is reproducible from arrivals.
      clock.Advance(1);
      if (draining()) {
        // Nothing new will arrive: age no longer matters, run everything
        // admitted so every outstanding ticket reaches a terminal state.
        scheduler->Flush();
        DrainCompleted();
        if (DrainFinished()) {
          std::vector<uint64_t> ids;
          ids.reserve(conns.size());
          for (auto& [id, conn] : conns) ids.push_back(id);
          for (uint64_t id : ids) CloseConn(id);
          drained.store(true, std::memory_order_release);
          return;  // drain complete; the loop parks until join
        }
        continue;
      }
      scheduler->Pump();
      DrainCompleted();
    }
    // Shutdown: run whatever was admitted so no ticket is left dangling,
    // then discard the results (their clients are being dropped anyway).
    scheduler->Flush();
    DrainCompleted();
  }
};

// --- Server ----------------------------------------------------------------

Server::Server() : impl_(std::make_unique<Impl>()) {}
Server::Server(Server&&) noexcept = default;

Server& Server::operator=(Server&& other) noexcept {
  if (this != &other) {
    if (impl_ != nullptr) impl_->Shutdown();
    impl_ = std::move(other.impl_);
  }
  return *this;
}

Server::~Server() {
  if (impl_ != nullptr) impl_->Shutdown();
}

Result<Server> Server::Start(const std::string& snapshot_dir,
                             const ServerOptions& options) {
  Result<ModelStore> store = ModelStore::Open(snapshot_dir, options.store);
  if (!store.ok()) return store.status();

  Server server;
  Impl& impl = *server.impl_;
  impl.options = options;
  impl.model_store.emplace(std::move(store).value());
  impl.scheduler.emplace(&*impl.model_store, &impl.arena, options.scheduler,
                         &impl.clock);
  if (!options.observation_log_dir.empty()) {
    Result<online::ObservationLog> log =
        online::ObservationLog::Open(options.observation_log_dir);
    if (!log.ok()) return log.status();
    impl.observation_log.emplace(std::move(log).value());
  }

  impl.listen_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (impl.listen_fd < 0) return Errno("socket");
  int one = 1;
  setsockopt(impl.listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options.port);
  if (::bind(impl.listen_fd, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return Errno("bind");
  }
  if (::listen(impl.listen_fd, 128) != 0) return Errno("listen");
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(impl.listen_fd, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) != 0) {
    return Errno("getsockname");
  }
  impl.bound_port = ntohs(addr.sin_port);

  impl.wake_fd = ::eventfd(0, EFD_NONBLOCK);
  if (impl.wake_fd < 0) return Errno("eventfd");
  impl.epoll_fd = ::epoll_create1(0);
  if (impl.epoll_fd < 0) return Errno("epoll_create1");
  epoll_event event{};
  event.events = EPOLLIN;
  event.data.u64 = 0;
  if (epoll_ctl(impl.epoll_fd, EPOLL_CTL_ADD, impl.listen_fd, &event) != 0) {
    return Errno("epoll_ctl(listen)");
  }
  event.data.u64 = 1;
  if (epoll_ctl(impl.epoll_fd, EPOLL_CTL_ADD, impl.wake_fd, &event) != 0) {
    return Errno("epoll_ctl(wake)");
  }

  impl.loop = std::thread([impl_ptr = server.impl_.get()] {
    impl_ptr->Loop();
  });
  EMAF_LOG(INFO) << "serve::Server listening on 127.0.0.1:" << impl.bound_port
                 << " (" << impl.model_store->num_known_models()
                 << " tenants known)";
  return server;
}

uint16_t Server::port() const { return impl_->bound_port; }

void Server::Stop() { impl_->Shutdown(); }

void Server::BeginDrain() {
  Impl& impl = *impl_;
  impl.drain_requested.store(true, std::memory_order_release);
  if (impl.wake_fd >= 0) {
    uint64_t one = 1;
    [[maybe_unused]] ssize_t r = ::write(impl.wake_fd, &one, sizeof(one));
  }
}

bool Server::WaitDrained(int64_t timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (!impl_->drained.load(std::memory_order_acquire)) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

ServeState Server::state() const {
  return static_cast<ServeState>(
      impl_->serve_state.load(std::memory_order_acquire));
}

Server::Stats Server::stats() const {
  const Impl& impl = *impl_;
  Stats stats;
  stats.connections_accepted =
      impl.connections_accepted.load(std::memory_order_relaxed);
  stats.connections_closed =
      impl.connections_closed.load(std::memory_order_relaxed);
  stats.frames_received = impl.frames_received.load(std::memory_order_relaxed);
  stats.frames_sent = impl.frames_sent.load(std::memory_order_relaxed);
  stats.bytes_read = impl.bytes_read.load(std::memory_order_relaxed);
  stats.bytes_written = impl.bytes_written.load(std::memory_order_relaxed);
  stats.requests_ok = impl.requests_ok.load(std::memory_order_relaxed);
  stats.requests_rejected =
      impl.requests_rejected.load(std::memory_order_relaxed);
  stats.requests_failed =
      impl.requests_failed.load(std::memory_order_relaxed);
  stats.appends_ok = impl.appends_ok.load(std::memory_order_relaxed);
  stats.appends_failed = impl.appends_failed.load(std::memory_order_relaxed);
  stats.protocol_errors =
      impl.protocol_errors.load(std::memory_order_relaxed);
  stats.slow_reader_drops =
      impl.slow_reader_drops.load(std::memory_order_relaxed);
  stats.active_connections =
      impl.connections_accepted.load(std::memory_order_relaxed) >=
              impl.connections_closed.load(std::memory_order_relaxed)
          ? static_cast<int64_t>(
                impl.connections_accepted.load(std::memory_order_relaxed) -
                impl.connections_closed.load(std::memory_order_relaxed))
          : 0;
  return stats;
}

ModelStore& Server::store() { return *impl_->model_store; }

RequestScheduler::Stats Server::scheduler_stats() const {
  return impl_->scheduler->stats();
}

online::ObservationLog* Server::observation_log() {
  return impl_->observation_log.has_value() ? &*impl_->observation_log
                                            : nullptr;
}

}  // namespace emaf::serve
