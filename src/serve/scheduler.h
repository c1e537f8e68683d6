// RequestScheduler: bounded admission and deterministic micro-batching in
// front of the ModelStore (DESIGN.md, "Model store & scheduler").
//
// Requests enter through Submit(), which either enqueues them (returning a
// RequestTicket the caller later reads the result from) or — when the
// admission queue is full — rejects them immediately with kUnavailable.
// That is the backpressure contract: a saturated server sheds load at the
// door instead of growing its queue without bound.
//
// Batching is driven by a *virtual clock*: Submit stamps each request with
// the clock's current tick, and Pump() closes a micro-batch when it is
// full (`max_batch` requests) or when the oldest pending request has aged
// `max_delay_ticks`. No wall-clock time enters the decision path, so a
// test driving a ManualClock reproduces the exact same batch boundaries
// every run — and the same boundaries at any thread-pool size, because a
// closed batch executes with one request per pre-sized slot (bitwise
// identical results at 1, 2 or 8 threads). Requests for the same
// individual inside one batch coalesce on the store's single-flight cold
// load, so a burst for one tenant costs one disk read.
//
// The scheduler never self-dispatches: the owner (a server loop, a bench
// replay, a test) calls Pump() on its own cadence, or Flush() to drain
// everything regardless of age.
//
// Every request executes through its model's compiled-plan cache
// (ModelHandle::plans()); the cache itself falls back to the module path
// when a plan cannot compile or fails at execution.
//
// Deadlines: a request may carry `deadline_ticks` (relative to its
// arrival tick; 0 = none). Pump sheds already-expired requests at
// batch-close time, *before* any store lookup or forward pass, completing
// their tickets with kDeadlineExceeded — doomed work never burns a
// forward. A second check at batch-entry (inside Execute / the shared
// ExecuteForecast) catches requests that expire between close and slot
// start.
//
// Instrumentation: serve.scheduler.submitted_total / rejected_total /
// batches_total / executed_total / failed_total / expired_total
// (counters), serve.scheduler.queue_depth (gauge),
// serve.scheduler.batch_size (histogram).

#ifndef EMAF_SERVE_SCHEDULER_H_
#define EMAF_SERVE_SCHEDULER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "serve/clock.h"
#include "serve/forecast_op.h"
#include "serve/model_store.h"
#include "tensor/arena.h"
#include "tensor/tensor.h"

namespace emaf::serve {

struct SchedulerOptions {
  // Admission bound: Submit rejects with kUnavailable once this many
  // requests are pending. <= 0 means unbounded (no backpressure), for
  // callers that hand it complete batches.
  int64_t max_queue = 256;
  // A batch closes as soon as it holds this many requests. Clamped >= 1.
  int64_t max_batch = 8;
  // A non-full batch closes once its oldest request is this many virtual
  // ticks old. 0 = every Pump() drains whatever is pending.
  uint64_t max_delay_ticks = 1;
};

// Completion slot for one submitted request. Tickets are cheap to copy;
// result() is valid once done() — with a synchronous Pump/Flush driver,
// that is immediately after the call that dispatched the request.
class RequestTicket {
 public:
  RequestTicket() = default;

  bool valid() const { return slot_ != nullptr; }
  bool done() const;
  // The forecast or the per-request error. Checked failure unless done().
  const Result<tensor::Tensor>& result() const;

 private:
  friend class RequestScheduler;
  struct Slot;
  explicit RequestTicket(std::shared_ptr<Slot> slot);

  std::shared_ptr<Slot> slot_;
};

class RequestScheduler {
 public:
  // `store`, `arena` and `clock` must outlive the scheduler; `arena` may
  // be null (requests then run on the plain heap).
  RequestScheduler(ModelStore* store, tensor::InferenceArena* arena,
                   const SchedulerOptions& options, const VirtualClock* clock);

  RequestScheduler(const RequestScheduler&) = delete;
  RequestScheduler& operator=(const RequestScheduler&) = delete;

  // Enqueues one request, stamped with the clock's current tick.
  // kUnavailable when the queue is at max_queue (backpressure — the
  // request is NOT queued; the caller retries later or sheds load).
  Result<RequestTicket> Submit(const ForecastRequest& request);

  // Closes every batch due at the current tick (full batches plus an aged
  // head) and executes them on the global ThreadPool, blocking until they
  // finish. Returns the number of requests executed.
  int64_t Pump();
  // As Pump, but closes everything pending regardless of age.
  int64_t Flush();

  int64_t queue_depth() const;

  struct Stats {
    uint64_t submitted = 0;  // accepted into the queue
    uint64_t rejected = 0;   // refused with kUnavailable (queue full)
    uint64_t batches = 0;    // micro-batches dispatched
    uint64_t executed = 0;   // requests completed (ok or error)
    // Of `executed`, how many completed with an error status (store load
    // failure or forecast error). Before this counter existed a tenant
    // failing inside a batch was indistinguishable from success in the
    // stats, even though its peers were served — the fault-injection
    // server test pins both halves of that contract.
    uint64_t failed = 0;
    // Requests whose deadline elapsed before a forward pass ran: shed at
    // batch-close or caught at batch-entry, completed with
    // kDeadlineExceeded. Disjoint from `failed`; shed requests are not
    // counted in `executed` (they were never dispatched into a batch).
    uint64_t expired = 0;
  };
  Stats stats() const;

 private:
  struct Pending {
    ForecastRequest request;
    std::shared_ptr<RequestTicket::Slot> slot;
    uint64_t arrival = 0;
    // Absolute expiry tick (arrival + deadline_ticks, saturating);
    // kNoExpiry when the request carries no deadline.
    uint64_t expiry = ~uint64_t{0};
  };
  using Batch = std::vector<Pending>;

  // Pops all closable batches off the queue (under the lock), shedding
  // expired requests (completed with kDeadlineExceeded) as a side effect.
  std::vector<Batch> CloseBatches(bool flush);
  // Runs one batch: per-request store lookup + forecast into its slot.
  void Execute(Batch* batch);

  ModelStore* store_;
  tensor::InferenceArena* arena_;
  SchedulerOptions options_;
  const VirtualClock* clock_;

  mutable std::mutex mu_;
  std::deque<Pending> pending_;

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> executed_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> expired_{0};
};

}  // namespace emaf::serve

#endif  // EMAF_SERVE_SCHEDULER_H_
