// InferenceEngine: the serving facade (DESIGN.md, "Serving layer" and
// "Model store & scheduler").
//
// Since the model-store split the engine is a thin composition of the two
// serving primitives: a serve::ModelStore owns which models are resident
// (lazy loading, refcounted pins, LRU eviction under a budget) and a
// serve::RequestScheduler owns batching. The engine keeps its own metric
// names (serve.requests_total, serve.request_seconds, serve.loaded_models,
// serve.arena_hit_rate) and fault site serve.request/<id>; a snapshot load
// fails through the store's site serve.store.load/<id>.
//
// Two residency modes, selected by EngineOptions:
//   - eager (default, both budgets unlimited): Load() cold-loads every
//     snapshot up front and pins it resident forever — exactly the PR-4
//     engine. model() returns stable pointers; nothing is ever evicted.
//   - budgeted (a budget set): Load() only lists the directory; models
//     load on first request and the least-recently-used idle ones are
//     evicted when the budget is exceeded. Served bytes are identical to
//     eager mode for any eviction/reload schedule (snapshot round-trips
//     are bit-exact), which the anchor test proves per model family.
//
// Request guarantees (inherited from the PR-4 engine, now enforced in
// serve::ExecuteForecast): tape-free (NoGradGuard), allocation-free at
// steady state (shared InferenceArena), write-free on eval-mode models,
// and batch outputs bitwise identical at any thread count.

#ifndef EMAF_SERVE_INFERENCE_ENGINE_H_
#define EMAF_SERVE_INFERENCE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "models/forecaster.h"
#include "serve/forecast_op.h"
#include "serve/model_store.h"
#include "tensor/arena.h"
#include "tensor/tensor.h"

namespace emaf::serve {

struct EngineOptions {
  // Snapshot filename extension looked for in the directory; the stem is
  // the individual id ("i07.snapshot" serves individual "i07").
  std::string extension = ".snapshot";
  // Seed for model construction. Irrelevant to the forecasts — every
  // weight is overwritten by the snapshot load — but fixed so the engine
  // itself is deterministic.
  uint64_t seed = 0x5e59edULL;
  // Residency budgets, forwarded to the ModelStore. <= 0 = unlimited;
  // both unlimited selects eager mode (load-and-pin-everything, the PR-4
  // behavior). See ModelStoreOptions for the budget semantics.
  int64_t max_resident_models = 0;
  int64_t max_resident_bytes = 0;
  // Execute requests through compiled inference plans (DESIGN.md,
  // "Compiled plans"): the first request per resident model records the
  // forward into a flat instruction plan, later requests interpret it.
  // Served bytes are bitwise identical either way (verified at compile
  // time); off replays the module graph per request.
  bool use_compiled_plans = true;
  // Element type models execute in (DESIGN.md, "Dtype layer & SIMD
  // dispatch"). The default, kF64, is the historical bit-pinned path.
  // kF32 cold-loads residents as f32 (half the memory), runs the f32
  // op/plan kernels (AVX2-dispatched), and converts each request's window
  // and forecast at the engine boundary — the wire stays doubles, at the
  // cost of float rounding in the forecast values.
  tensor::DType inference_dtype = tensor::DType::kF64;
};

class InferenceEngine {
 public:
  // Opens the snapshot directory. Eager mode additionally loads every
  // `<id><extension>` file, sorted by filename, and fails if any snapshot
  // is unreadable (fault site serve.store.load/<id>); budgeted mode
  // defers loading (and load errors) to the first request per id. Fails
  // if the directory is missing or holds no snapshots.
  static Result<InferenceEngine> Load(const std::string& snapshot_dir,
                                      const EngineOptions& options = {});

  InferenceEngine(InferenceEngine&&) noexcept;
  InferenceEngine& operator=(InferenceEngine&&) noexcept;
  ~InferenceEngine();

  // Snapshots known in the directory (all resident in eager mode).
  int64_t num_models() const;
  // Sorted ids of the known individuals.
  std::vector<std::string> individual_ids() const;
  // Eager mode: the pinned model for `id` (stable for the engine's
  // lifetime), nullptr when unknown. Budgeted mode: always nullptr —
  // residency is transient, so callers must go through Forecast, which
  // pins the model for the duration of the request.
  models::Forecaster* model(const std::string& id) const;

  // One forecast: window [B, L, V] -> [B, V]. NotFound for an unknown id;
  // Unavailable when fault site serve.request/<id> fires; in budgeted
  // mode also kResourceExhausted when the budget is exceeded and every
  // resident model is pinned.
  Result<tensor::Tensor> Forecast(const std::string& individual_id,
                                  const tensor::Tensor& window);

  // Runs a batch of requests through the scheduler as one micro-batch on
  // the global ThreadPool. Results align with `requests`; each request
  // computes independently into its own slot, so the output is bitwise
  // identical at any thread count.
  std::vector<Result<tensor::Tensor>> ForecastBatch(
      const std::vector<ForecastRequest>& requests);

  // Buffer-pool statistics of the engine's arena (hit rate, outstanding).
  tensor::InferenceArena::Stats arena_stats() const;

  // The underlying model store — residency stats, EvictIdle, etc.
  ModelStore& store();
  const ModelStore& store() const;

 private:
  InferenceEngine();

  struct State;
  std::unique_ptr<State> state_;
};

}  // namespace emaf::serve

#endif  // EMAF_SERVE_INFERENCE_ENGINE_H_
