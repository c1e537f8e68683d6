#include "loadgen.h"

#include <atomic>
#include <memory>
#include <cstring>
#include <semaphore>
#include <stdexcept>
#include <thread>

#include "common/metrics.h"
#include "common/string_util.h"
#include "serve/client.h"

namespace emafbench {

namespace {

using emaf::serve::Client;
using emaf::serve::Frame;
using emaf::serve::FrameType;

Client ConnectOrThrow(uint16_t port) {
  emaf::serve::ClientOptions options;
  options.recv_timeout_ms = 15000;
  emaf::Result<Client> client = Client::Connect(port, options);
  if (!client.ok()) {
    throw std::runtime_error(
        emaf::StrCat("connect: ", client.status().ToString()));
  }
  return std::move(client).value();
}

double SchedulerQueueDepth() {
  static emaf::obs::Gauge* gauge =
      emaf::obs::Registry::Global().GetGauge("serve.scheduler.queue_depth");
  return gauge->value();
}

// What the sender has done, for the reader to wait on without polling (a
// polling reader took a CPU from the work under test): twice the number of
// requests sent, plus one once the sender is done.
class SendProgress {
 public:
  void Sent(int64_t count) {
    value_.store(2 * count, std::memory_order_release);
    value_.notify_one();
  }
  void Done() {
    value_.fetch_add(1, std::memory_order_release);
    value_.notify_one();
  }
  int64_t sent() const { return value_.load(std::memory_order_acquire) / 2; }
  // Blocks until more than `received` requests were sent (true) or the
  // sender is done and sent no more (false).
  bool WaitForMore(int64_t received) {
    while (true) {
      const int64_t value = value_.load(std::memory_order_acquire);
      if (value / 2 > received) return true;
      if (value % 2 == 1) return false;
      value_.wait(value, std::memory_order_acquire);
    }
  }

 private:
  std::atomic<int64_t> value_{0};
};

// Outcome of a request that never got a reply because of `error`.
Outcome LostTo(const emaf::Status& error) {
  return error.ok() ? Outcome::kOtherCode : OutcomeOf(error);
}

}  // namespace

Outcome CheckForecast(const Frame& reply, const std::vector<double>& expected) {
  if (reply.type == FrameType::kForecastResponse) {
    emaf::Result<emaf::tensor::Tensor> forecast =
        emaf::serve::DecodeTensorPayload(reply.payload);
    if (!forecast.ok() ||
        forecast.value().dtype() != emaf::tensor::DType::kF64 ||
        forecast.value().NumElements() !=
            static_cast<int64_t>(expected.size())) {
      return Outcome::kWrongBytes;
    }
    return std::memcmp(forecast.value().data(), expected.data(),
                       expected.size() * sizeof(double)) == 0
               ? Outcome::kOk
               : Outcome::kWrongBytes;
  }
  if (reply.type == FrameType::kError) {
    emaf::Status carried = emaf::Status::Ok();
    if (emaf::serve::DecodeStatusPayload(reply.payload, &carried).ok()) {
      return LostTo(carried);
    }
  }
  return Outcome::kOtherCode;
}

PacedRun RunPaced(uint16_t port, const std::vector<WireRequest>& requests,
                  double rate, int groups, const ReplyCheck& check,
                  SpanLog* spans) {
  Client client = ConnectOrThrow(port);
  const int64_t n = static_cast<int64_t>(requests.size());
  PacedRun run;
  run.tally.attempted = n;
  run.group_latency_ms.resize(static_cast<size_t>(groups));
  std::vector<double> late_ms(static_cast<size_t>(n), 0);
  std::vector<double> depth(static_cast<size_t>(n), 0);
  SendProgress progress;
  std::atomic<bool> stop{false};
  emaf::Status send_error = emaf::Status::Ok();  // read after join

  const std::chrono::duration<double> interval(1.0 / rate);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  auto due = [&](int64_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       interval * static_cast<double>(i));
  };

  std::thread sender([&] {
    for (int64_t i = 0; i < n && !stop.load(std::memory_order_relaxed); ++i) {
      const Clock::time_point when = due(i);
      std::this_thread::sleep_until(when);
      late_ms[static_cast<size_t>(i)] = MsSince(when);
      depth[static_cast<size_t>(i)] = SchedulerQueueDepth();
      const WireRequest& request = requests[static_cast<size_t>(i)];
      emaf::Result<uint64_t> id = [&] {
        Span span(spans, "wire.send", static_cast<uint64_t>(i + 1));
        return client.SendForecastRequest(*request.tenant, *request.window);
      }();
      if (!id.ok()) {
        send_error = id.status();
        break;
      }
      progress.Sent(i + 1);
    }
    progress.Done();
  });

  std::vector<char> seen(static_cast<size_t>(n), 0);
  int64_t received = 0;
  emaf::Status read_error = emaf::Status::Ok();
  Clock::time_point last_reply = start;
  while (progress.WaitForMore(received)) {
    emaf::Result<Frame> reply = client.ReadFrame();
    const Clock::time_point now = Clock::now();
    if (!reply.ok()) {
      read_error = reply.status();
      stop.store(true, std::memory_order_relaxed);
      break;
    }
    ++received;
    last_reply = now;
    const uint64_t id = reply.value().request_id;
    if (id < 1 || id > static_cast<uint64_t>(n) || seen[id - 1] != 0) {
      run.tally.Record(Outcome::kOtherCode);  // breaks the phase accounting
      continue;
    }
    seen[id - 1] = 1;
    const WireRequest& request = requests[id - 1];
    Outcome outcome;
    {
      Span span(spans, "wire.reply", id);
      outcome = check(request, reply.value());
    }
    run.tally.Record(outcome);
    if (outcome == Outcome::kOk) {
      const double ms = Ms(due(static_cast<int64_t>(id - 1)), now);
      run.latency_ms.push_back(ms);
      run.group_latency_ms[static_cast<size_t>(request.group)].push_back(ms);
    }
  }
  sender.join();

  const int64_t total_sent = progress.sent();
  for (int64_t i = 0; i < n; ++i) {
    if (seen[static_cast<size_t>(i)] != 0) continue;
    run.tally.Record(i < total_sent ? LostTo(read_error)
                     : send_error.ok() ? LostTo(read_error)
                                       : LostTo(send_error));
  }
  late_ms.resize(static_cast<size_t>(total_sent));
  run.late_ms = std::move(late_ms);
  double depth_sum = 0;
  for (int64_t i = 0; i < total_sent; ++i) depth_sum += depth[i];
  run.mean_queue_depth =
      total_sent > 0 ? depth_sum / static_cast<double>(total_sent) : 0;
  run.elapsed_s = Ms(start, last_reply) / 1000;
  return run;
}

ClosedRun RunClosed(uint16_t port, const std::vector<WireRequest>& requests,
                    int64_t outstanding, double seconds, int groups,
                    const ReplyCheck& check, SpanLog* spans) {
  // Send time of each request by id, for the latency of its reply.
  constexpr int64_t kTimed = 1 << 20;
  const std::unique_ptr<std::atomic<int64_t>[]> sent_ns(
      new std::atomic<int64_t>[kTimed]);
  Client client = ConnectOrThrow(port);
  std::counting_semaphore<> slots(static_cast<std::ptrdiff_t>(outstanding));
  SendProgress progress;
  std::atomic<bool> stop{false};
  emaf::Status send_error = emaf::Status::Ok();  // read after join
  const size_t size = requests.size();
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));

  double depth_sum = 0;  // read after join
  std::thread sender([&] {
    for (int64_t i = 0;; ++i) {
      slots.acquire();
      if (stop.load(std::memory_order_relaxed) || Clock::now() >= end) break;
      depth_sum += SchedulerQueueDepth();
      const WireRequest& request = requests[static_cast<size_t>(i) % size];
      if (i < kTimed) {
        sent_ns[i].store(Clock::now().time_since_epoch().count(),
                         std::memory_order_release);
      }
      emaf::Result<uint64_t> id = [&] {
        Span span(spans, "wire.send", static_cast<uint64_t>(i + 1));
        return client.SendForecastRequest(*request.tenant, *request.window);
      }();
      if (!id.ok()) {
        send_error = id.status();
        break;
      }
      progress.Sent(i + 1);
    }
    progress.Done();
  });

  ClosedRun run;
  run.group_latency_ms.resize(static_cast<size_t>(groups));
  std::vector<std::vector<double>> window_ms(kClosedWindows);  // ok replies
  int64_t received = 0;
  emaf::Status read_error = emaf::Status::Ok();
  while (progress.WaitForMore(received)) {
    emaf::Result<Frame> reply = client.ReadFrame();
    if (!reply.ok()) {
      read_error = reply.status();
      stop.store(true, std::memory_order_relaxed);
      slots.release(static_cast<std::ptrdiff_t>(outstanding));
      break;
    }
    ++received;
    const Clock::time_point now = Clock::now();
    const uint64_t id = reply.value().request_id;
    Outcome outcome = Outcome::kOtherCode;
    if (id >= 1) {
      Span span(spans, "wire.reply", id);
      outcome = check(requests[(id - 1) % size], reply.value());
    }
    run.tally.Record(outcome);
    if (outcome == Outcome::kOk && id <= static_cast<uint64_t>(kTimed)) {
      const Clock::time_point sent_at(
          Clock::duration(sent_ns[id - 1].load(std::memory_order_acquire)));
      const double ms = Ms(sent_at, now);
      run.latency_ms.push_back(ms);
      run.group_latency_ms[static_cast<size_t>(
                               requests[(id - 1) % size].group)]
          .push_back(ms);
    }
    const double at_ms = Ms(start, now);
    const int window =
        static_cast<int>(at_ms / (seconds * 1000) * kClosedWindows);
    if (outcome == Outcome::kOk && window < kClosedWindows) {
      window_ms[static_cast<size_t>(window)].push_back(at_ms);
    }
    slots.release();
  }
  sender.join();
  run.elapsed_s = MsSince(start) / 1000;
  // Replies per second within each window, from its first to its last
  // correct reply.
  std::vector<double> rates;
  for (const std::vector<double>& at : window_ms) {
    if (at.size() >= 2 && at.back() > at.front()) {
      rates.push_back(static_cast<double>(at.size() - 1) * 1000 /
                      (at.back() - at.front()));
    }
  }
  run.throughput_per_s = Median(std::move(rates));
  const int64_t total_sent = progress.sent();
  run.mean_queue_depth =
      total_sent > 0 ? depth_sum / static_cast<double>(total_sent) : 0;
  run.tally.attempted = total_sent + (send_error.ok() ? 0 : 1);
  for (int64_t i = received; i < total_sent; ++i) {
    run.tally.Record(LostTo(read_error));
  }
  if (!send_error.ok()) run.tally.Record(LostTo(send_error));
  return run;
}

}  // namespace emafbench
