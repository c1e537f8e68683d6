#include "serve/inference_engine.h"

#include <map>
#include <optional>
#include <utility>

#include "common/metrics.h"
#include "serve/scheduler.h"

namespace emaf::serve {

namespace {

// hits / (hits + misses), 0 before the first request. Only consumed by
// the metrics gauge, so unused when the build compiles metrics out.
[[maybe_unused]] double HitRate(const tensor::InferenceArena::Stats& stats) {
  uint64_t total = stats.hits + stats.misses;
  if (total == 0) return 0.0;
  return static_cast<double>(stats.hits) / static_cast<double>(total);
}

}  // namespace

// Heap-allocated so the scheduler's pointers into the store/arena/clock
// survive moves of the engine value.
struct InferenceEngine::State {
  EngineOptions options;
  std::optional<ModelStore> store;
  tensor::InferenceArena arena;
  ManualClock clock;
  // Eager mode: one pinned handle per id keeps every model resident and
  // its model() pointer stable. Empty in budgeted mode.
  std::map<std::string, ModelHandle> pinned;
  std::unique_ptr<RequestScheduler> scheduler;

  void UpdateServeGauges() {
    EMAF_METRIC_GAUGE_SET(
        "serve.loaded_models",
        static_cast<double>(store->stats().resident_models));
    EMAF_METRIC_GAUGE_SET("serve.arena_hit_rate", HitRate(arena.stats()));
  }
};

InferenceEngine::InferenceEngine() : state_(std::make_unique<State>()) {}
InferenceEngine::InferenceEngine(InferenceEngine&&) noexcept = default;
InferenceEngine& InferenceEngine::operator=(InferenceEngine&&) noexcept =
    default;
InferenceEngine::~InferenceEngine() = default;

Result<InferenceEngine> InferenceEngine::Load(const std::string& snapshot_dir,
                                              const EngineOptions& options) {
  InferenceEngine engine;
  State& state = *engine.state_;
  state.options = options;

  ModelStoreOptions store_options;
  store_options.extension = options.extension;
  store_options.seed = options.seed;
  store_options.max_resident_models = options.max_resident_models;
  store_options.max_resident_bytes = options.max_resident_bytes;
  store_options.load_dtype = options.inference_dtype;
  Result<ModelStore> store = ModelStore::Open(snapshot_dir, store_options);
  if (!store.ok()) return store.status();
  state.store.emplace(std::move(store).value());

  const bool eager =
      options.max_resident_models <= 0 && options.max_resident_bytes <= 0;
  if (eager) {
    for (const std::string& id : state.store->individual_ids()) {
      Result<ModelHandle> handle = state.store->Get(id);
      if (!handle.ok()) return handle.status();
      state.pinned.emplace(id, std::move(handle).value());
    }
  }
  state.UpdateServeGauges();

  SchedulerOptions scheduler_options;
  scheduler_options.use_compiled_plans = options.use_compiled_plans;
  scheduler_options.max_queue = 0;  // ForecastBatch never rejects
  // One micro-batch per ForecastBatch call: the whole request vector fans
  // out at once, exactly the PR-4 dispatch shape.
  scheduler_options.max_batch = int64_t{1} << 30;
  scheduler_options.max_delay_ticks = 0;
  state.scheduler = std::make_unique<RequestScheduler>(
      &*state.store, &state.arena, scheduler_options, &state.clock);
  return engine;
}

int64_t InferenceEngine::num_models() const {
  return state_->store->num_known_models();
}

std::vector<std::string> InferenceEngine::individual_ids() const {
  return state_->store->individual_ids();
}

models::Forecaster* InferenceEngine::model(const std::string& id) const {
  auto it = state_->pinned.find(id);
  return it == state_->pinned.end() ? nullptr : it->second.get();
}

Result<tensor::Tensor> InferenceEngine::Forecast(
    const std::string& individual_id, const tensor::Tensor& window) {
  Result<ModelHandle> handle = state_->store->Get(individual_id);
  if (!handle.ok()) {
    // Keep serve.requests_total covering every request, including ones
    // that fail before execution (unknown id, budget, load fault).
    EMAF_METRIC_COUNTER_ADD("serve.requests_total", 1);
    return handle.status();
  }
  Result<tensor::Tensor> prediction = ExecuteForecast(
      handle.value().get(), individual_id, window, &state_->arena,
      state_->options.use_compiled_plans ? handle.value().plans() : nullptr);
  state_->UpdateServeGauges();
  return prediction;
}

std::vector<Result<tensor::Tensor>> InferenceEngine::ForecastBatch(
    const std::vector<ForecastRequest>& requests) {
  std::vector<Result<tensor::Tensor>> results(
      requests.size(), Status::Internal("request not executed"));
  if (requests.empty()) return results;
  std::vector<RequestTicket> tickets;
  tickets.reserve(requests.size());
  for (const ForecastRequest& request : requests) {
    Result<RequestTicket> ticket = state_->scheduler->Submit(request);
    // The engine's scheduler queue is unbounded, so Submit cannot reject.
    tickets.push_back(std::move(ticket).value());
  }
  state_->scheduler->Flush();
  for (size_t i = 0; i < tickets.size(); ++i) {
    results[i] = tickets[i].result();
  }
  state_->UpdateServeGauges();
  return results;
}

tensor::InferenceArena::Stats InferenceEngine::arena_stats() const {
  return state_->arena.stats();
}

ModelStore& InferenceEngine::store() { return *state_->store; }
const ModelStore& InferenceEngine::store() const { return *state_->store; }

}  // namespace emaf::serve
