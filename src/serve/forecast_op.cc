#include "serve/forecast_op.h"

#include "common/fault_injection.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "core/evaluator.h"
#include "plan/interpreter.h"

namespace emaf::serve {

Result<tensor::Tensor> ExecuteForecast(models::Forecaster* model,
                                       const std::string& individual_id,
                                       const tensor::Tensor& window,
                                       tensor::InferenceArena* arena,
                                       plan::PlanCache* plans,
                                       const Deadline& deadline) {
  EMAF_METRIC_SCOPED_TIMER("serve.request_seconds");
  EMAF_METRIC_COUNTER_ADD("serve.requests_total", 1);
  if (deadline.expired()) {
    return Status::DeadlineExceeded(
        StrCat("deadline expired before execution for ", individual_id,
               ": now tick ", deadline.clock->Ticks(), ", expiry tick ",
               deadline.expiry_tick));
  }
  if (EMAF_FAULT_SHOULD_FAIL(StrCat("serve.request/", individual_id))) {
    return Status::Unavailable(
        StrCat("injected fault: serve.request/", individual_id));
  }
  // The forward CHECK-fails on a window it was not built for; refuse one
  // here so a malformed request fails alone instead of aborting the
  // process.
  if (!window.defined() || window.rank() != 3 || window.dim(0) < 1 ||
      window.dim(1) != model->input_length() ||
      window.dim(2) != model->num_variables()) {
    return Status::InvalidArgument(StrCat(
        "forecast window for ", individual_id, ": expected [B >= 1, ",
        model->input_length(), ", ", model->num_variables(), "], got ",
        window.defined() ? window.shape().ToString() : "no tensor"));
  }
  if (plans != nullptr && !plans->disabled()) {
    plan::PlanCache::Acquired acquired = plans->GetOrCompile(model, window);
    if (acquired.hit) {
      EMAF_METRIC_COUNTER_ADD("serve.plan_cache_hits", 1);
    } else {
      EMAF_METRIC_COUNTER_ADD("serve.plan_cache_misses", 1);
    }
    if (acquired.plan != nullptr) {
      if (EMAF_FAULT_SHOULD_FAIL(StrCat("plan.execute/", individual_id))) {
        // Structured per-request failure; this residency of the model
        // permanently falls back to the module path (the conservative
        // reaction to an execution-layer fault), later requests succeed.
        plans->Disable();
        return Status::Internal(
            StrCat("injected fault: plan.execute/", individual_id));
      }
      Result<tensor::Tensor> prediction =
          plan::Execute(*acquired.plan, window, arena);
      if (prediction.ok()) return prediction;
      plans->Disable();  // unexpected execute failure: stop using plans
    }
    // acquired.plan == nullptr (compile failed): module path below.
  }
  tensor::Tensor prediction;
  {
    // Every tensor the forward pass allocates draws from the pool; the
    // buffers return as the intermediates die, so a steady-state request
    // performs zero heap allocation.
    tensor::ArenaScope scope(arena);
    prediction = core::Predict(model, window);
  }
  return prediction;
}

}  // namespace emaf::serve
