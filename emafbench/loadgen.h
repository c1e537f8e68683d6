// Wire load generator: one sender thread and one reader (the caller) on a
// fresh serve::Client connection per phase.
//
//   RunPaced  — open loop. Request i is due at start + i / rate and its
//               latency is timed from that due time, so a stall shows up
//               as queueing delay of the requests behind it; the sender's
//               lateness against the schedule is reported too.
//   RunClosed — closed loop with a fixed number of requests outstanding;
//               reports correct replies per second and, timed from each
//               actual send, the latency (with one outstanding: the
//               latency of an otherwise idle server, back to back).
//
// Every reply is classified by `check`; a request that never got a reply
// takes the outcome of the error that ended the phase.

#ifndef EMAFBENCH_LOADGEN_H_
#define EMAFBENCH_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness.h"
#include "serve/protocol.h"
#include "tensor/tensor.h"

namespace emafbench {

struct WireRequest {
  const std::string* tenant = nullptr;
  const emaf::tensor::Tensor* window = nullptr;
  int group = 0;         // latency bucket (the model family)
  int key = 0;           // expected-output key (the snapshot file)
  int window_index = 0;  // which of the key's windows
};

// Classifies one reply to `request`.
using ReplyCheck =
    std::function<Outcome(const WireRequest& request,
                          const emaf::serve::Frame& reply)>;

struct PacedRun {
  Tally tally;
  std::vector<double> latency_ms;                     // correct replies
  std::vector<std::vector<double>> group_latency_ms;  // by request.group
  std::vector<double> late_ms;                        // per sent request
  double mean_queue_depth = 0;  // scheduler queue seen at each send
  double elapsed_s = 0;
};

PacedRun RunPaced(uint16_t port, const std::vector<WireRequest>& requests,
                  double rate, int groups, const ReplyCheck& check,
                  SpanLog* spans);

struct ClosedRun {
  Tally tally;
  std::vector<double> latency_ms;                     // correct replies
  std::vector<std::vector<double>> group_latency_ms;  // by request.group
  double mean_queue_depth = 0;  // scheduler queue seen at each send
  double elapsed_s = 0;
  // Correct replies per second: the median over kClosedWindows equal
  // windows of the sending time, so a short stall of the machine moves
  // one window, not the figure.
  double throughput_per_s = 0;
};
inline constexpr int kClosedWindows = 12;

// Cycles through `requests` for `seconds` with `outstanding` in flight.
// Latency is timed from each request's actual send.
ClosedRun RunClosed(uint16_t port, const std::vector<WireRequest>& requests,
                    int64_t outstanding, double seconds, int groups,
                    const ReplyCheck& check, SpanLog* spans);

// The standard check: a forecast reply must equal `expected` bit for bit;
// an error reply is classified by its status code.
Outcome CheckForecast(const emaf::serve::Frame& reply,
                      const std::vector<double>& expected);

}  // namespace emafbench

#endif  // EMAFBENCH_LOADGEN_H_
