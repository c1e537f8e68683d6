#include "serve/scheduler.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/check.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/thread_pool.h"

namespace emaf::serve {

namespace {

constexpr uint64_t kNoExpiry = ~uint64_t{0};

// Batch-size histogram buckets: powers of two up to the practical batch
// ceiling (micro-batches are small by design).
[[maybe_unused]] const std::vector<double>& BatchSizeBounds() {
  static const std::vector<double> bounds = {1, 2, 4, 8, 16, 32, 64, 128, 256};
  return bounds;
}

// Absolute expiry for a request arriving now: arrival + deadline,
// saturating; kNoExpiry when the request carries no deadline.
uint64_t ExpiryTick(uint64_t arrival, uint64_t deadline_ticks) {
  if (deadline_ticks == 0) return kNoExpiry;
  const uint64_t expiry = arrival + deadline_ticks;
  return expiry < arrival ? kNoExpiry : expiry;  // overflow saturates
}

}  // namespace

struct RequestTicket::Slot {
  std::atomic<bool> done{false};
  // Written once by the executing thread before `done` is released;
  // readers check done() (acquire) first.
  std::optional<Result<tensor::Tensor>> result;
};

RequestTicket::RequestTicket(std::shared_ptr<Slot> slot)
    : slot_(std::move(slot)) {}

bool RequestTicket::done() const {
  return slot_ != nullptr && slot_->done.load(std::memory_order_acquire);
}

const Result<tensor::Tensor>& RequestTicket::result() const {
  EMAF_CHECK(done()) << "RequestTicket::result() before the request ran";
  return *slot_->result;
}

RequestScheduler::RequestScheduler(ModelStore* store,
                                   tensor::InferenceArena* arena,
                                   const SchedulerOptions& options,
                                   const VirtualClock* clock)
    : store_(store), arena_(arena), options_(options), clock_(clock) {
  EMAF_CHECK(store_ != nullptr);
  EMAF_CHECK(clock_ != nullptr);
  options_.max_batch = std::max<int64_t>(1, options_.max_batch);
}

Result<RequestTicket> RequestScheduler::Submit(const ForecastRequest& request) {
  std::shared_ptr<RequestTicket::Slot> slot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (options_.max_queue > 0 &&
        static_cast<int64_t>(pending_.size()) >= options_.max_queue) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      EMAF_METRIC_COUNTER_ADD("serve.scheduler.rejected_total", 1);
      return Status::Unavailable(
          StrCat("scheduler queue full (max_queue=", options_.max_queue,
                 "): request for ", request.individual_id, " rejected"));
    }
    slot = std::make_shared<RequestTicket::Slot>();
    const uint64_t arrival = clock_->Ticks();
    pending_.push_back(Pending{request, slot, arrival,
                               ExpiryTick(arrival, request.deadline_ticks)});
    EMAF_METRIC_GAUGE_SET("serve.scheduler.queue_depth",
                          static_cast<double>(pending_.size()));
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  EMAF_METRIC_COUNTER_ADD("serve.scheduler.submitted_total", 1);
  return RequestTicket(std::move(slot));
}

std::vector<RequestScheduler::Batch> RequestScheduler::CloseBatches(
    bool flush) {
  std::vector<Batch> batches;
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t now = clock_->Ticks();
  // Shed expired requests before forming batches: their tickets complete
  // with kDeadlineExceeded right here, they never occupy a batch slot,
  // and the forward pass they would have burned goes to live requests.
  // (Deadlines vary per request, so an expired entry can sit anywhere in
  // the FIFO — scan the whole queue, not just the head.)
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (now > it->expiry) {
      it->slot->result.emplace(Status::DeadlineExceeded(
          StrCat("deadline expired before dispatch for ",
                 it->request.individual_id, ": arrival tick ", it->arrival,
                 ", deadline ", it->request.deadline_ticks,
                 " tick(s), now tick ", now)));
      it->slot->done.store(true, std::memory_order_release);
      expired_.fetch_add(1, std::memory_order_relaxed);
      EMAF_METRIC_COUNTER_ADD("serve.scheduler.expired_total", 1);
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
  while (!pending_.empty()) {
    bool full =
        static_cast<int64_t>(pending_.size()) >= options_.max_batch;
    bool aged = now - pending_.front().arrival >= options_.max_delay_ticks;
    if (!full && !aged && !flush) break;
    size_t take = std::min(pending_.size(),
                           static_cast<size_t>(options_.max_batch));
    Batch batch;
    batch.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(pending_.front()));
      pending_.pop_front();
    }
    batches.push_back(std::move(batch));
  }
  EMAF_METRIC_GAUGE_SET("serve.scheduler.queue_depth",
                        static_cast<double>(pending_.size()));
  return batches;
}

void RequestScheduler::Execute(Batch* batch) {
  batches_.fetch_add(1, std::memory_order_relaxed);
  EMAF_METRIC_COUNTER_ADD("serve.scheduler.batches_total", 1);
  EMAF_METRIC_HISTOGRAM_OBSERVE("serve.scheduler.batch_size",
                                static_cast<double>(batch->size()),
                                BatchSizeBounds());
  // One request per pre-sized slot: any thread schedule writes the same
  // bytes (DESIGN.md, "Parallel execution model"). Same-id requests
  // coalesce on the store's single-flight load rather than being merged
  // here, so per-request errors stay independent.
  common::ThreadPool::Global().ParallelFor(
      0, static_cast<int64_t>(batch->size()), /*grain=*/1,
      [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          Pending& pending = (*batch)[static_cast<size_t>(i)];
          const Deadline deadline{clock_, pending.expiry};
          if (deadline.expired()) {
            // Expired between batch-close and slot start: shed before the
            // store lookup so a doomed request cannot trigger a cold load.
            EMAF_METRIC_COUNTER_ADD("serve.requests_total", 1);
            pending.slot->result.emplace(Status::DeadlineExceeded(
                StrCat("deadline expired at batch entry for ",
                       pending.request.individual_id, ": now tick ",
                       clock_->Ticks(), ", expiry tick ", pending.expiry)));
          } else {
            Result<ModelHandle> handle =
                store_->Get(pending.request.individual_id);
            if (handle.ok()) {
              pending.slot->result.emplace(ExecuteForecast(
                  handle.value().get(), pending.request.individual_id,
                  pending.request.window, arena_, handle.value().plans(),
                  deadline));
            } else {
              // Count the failed request so serve.requests_total covers
              // every admitted request, executed or degraded.
              EMAF_METRIC_COUNTER_ADD("serve.requests_total", 1);
              pending.slot->result.emplace(handle.status());
            }
          }
          if (!pending.slot->result->ok()) {
            if (pending.slot->result->status().code() ==
                StatusCode::kDeadlineExceeded) {
              expired_.fetch_add(1, std::memory_order_relaxed);
              EMAF_METRIC_COUNTER_ADD("serve.scheduler.expired_total", 1);
            } else {
              failed_.fetch_add(1, std::memory_order_relaxed);
              EMAF_METRIC_COUNTER_ADD("serve.scheduler.failed_total", 1);
            }
          }
          pending.slot->done.store(true, std::memory_order_release);
        }
      });
  executed_.fetch_add(batch->size(), std::memory_order_relaxed);
  EMAF_METRIC_COUNTER_ADD("serve.scheduler.executed_total",
                          static_cast<uint64_t>(batch->size()));
}

int64_t RequestScheduler::Pump() {
  std::vector<Batch> batches = CloseBatches(/*flush=*/false);
  int64_t executed = 0;
  for (Batch& batch : batches) {
    Execute(&batch);
    executed += static_cast<int64_t>(batch.size());
  }
  return executed;
}

int64_t RequestScheduler::Flush() {
  std::vector<Batch> batches = CloseBatches(/*flush=*/true);
  int64_t executed = 0;
  for (Batch& batch : batches) {
    Execute(&batch);
    executed += static_cast<int64_t>(batch.size());
  }
  return executed;
}

int64_t RequestScheduler::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(pending_.size());
}

RequestScheduler::Stats RequestScheduler::stats() const {
  Stats stats;
  stats.submitted = submitted_.load(std::memory_order_relaxed);
  stats.rejected = rejected_.load(std::memory_order_relaxed);
  stats.batches = batches_.load(std::memory_order_relaxed);
  stats.executed = executed_.load(std::memory_order_relaxed);
  stats.failed = failed_.load(std::memory_order_relaxed);
  stats.expired = expired_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace emaf::serve
