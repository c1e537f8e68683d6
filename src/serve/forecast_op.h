// The one forecast operation every serving path executes — a direct
// in-process call on a ModelStore handle and the scheduler's micro-batch
// path share a single definition of the request contract:
//
//   - metrics: serve.requests_total is bumped and serve.request_seconds
//     observed for every executed request, whichever path ran it;
//   - fault site serve.request/<id> fails exactly this request;
//   - the forward runs inside an ArenaScope on the caller-provided pool
//     and through core::Predict (tape-free, write-free on eval models);
//   - when a plan::PlanCache is supplied, the request executes through a
//     compiled plan instead of the module graph — bitwise-identical bytes
//     (the plan compiler verifies equality before serving; see DESIGN.md
//     "Compiled plans") — with automatic module fallback when the plan
//     cannot compile or fault site plan.execute/<id> fires.
//
// Callers hand in an already-resident model (a pinned ModelStore handle);
// this layer never loads or evicts.

#ifndef EMAF_SERVE_FORECAST_OP_H_
#define EMAF_SERVE_FORECAST_OP_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "models/forecaster.h"
#include "plan/plan_cache.h"
#include "serve/clock.h"
#include "tensor/arena.h"
#include "tensor/tensor.h"

namespace emaf::serve {

struct ForecastRequest {
  std::string individual_id;
  tensor::Tensor window;  // [B, L, V]
  // Relative deadline in virtual-clock ticks from the request's arrival
  // at the scheduler; 0 = no deadline. Expired requests are shed with
  // kDeadlineExceeded before any forward pass runs.
  uint64_t deadline_ticks = 0;
};

// Absolute expiry against a virtual clock, as threaded from the scheduler
// into ExecuteForecast. Default-constructed = no deadline (never expires).
struct Deadline {
  const VirtualClock* clock = nullptr;
  uint64_t expiry_tick = ~uint64_t{0};

  bool expired() const {
    return clock != nullptr && clock->Ticks() > expiry_tick;
  }
};

// One forecast: window [B, L, V] -> [B, V]. `model` must be non-null and
// in eval mode; `arena` may be null to run on the plain heap; `plans`
// null runs the module path unconditionally (plans disabled). The
// deadline is re-checked at entry — before the plan/module branch — so a
// request that expired between batch-close and slot start returns
// kDeadlineExceeded without burning a forward pass. A window that is not
// rank 3 with B >= 1, L == model->input_length() and
// V == model->num_variables() is kInvalidArgument.
Result<tensor::Tensor> ExecuteForecast(models::Forecaster* model,
                                       const std::string& individual_id,
                                       const tensor::Tensor& window,
                                       tensor::InferenceArena* arena,
                                       plan::PlanCache* plans = nullptr,
                                       const Deadline& deadline = {});

}  // namespace emaf::serve

#endif  // EMAF_SERVE_FORECAST_OP_H_
