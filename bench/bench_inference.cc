// Serving-latency bench: trains all five forecaster families on one
// synthetic individual, snapshots them, opens the directory as a
// serve::ModelStore, and measures per-request forecast latency and heap
// allocations per request with and without the inference arena. The
// "no_arena" pass calls core::Predict directly on the resident models
// (every tensor buffer is a fresh heap allocation); the "arena" pass pins
// the model with ModelStore::Get and runs serve::ExecuteForecast on the
// module path through a shared InferenceArena, which recycles buffers so
// steady-state requests allocate nothing.
//
// A third pass measures the multi-tenant ModelStore under a constrained
// budget: 32 tiny snapshots on disk, 8 resident, a Zipf-ish request mix
// (rank r drawn with probability ~ 1/(r+1)), so the head of the
// distribution stays warm while the tail churns through cold loads and
// evictions. Each request is classified cold/warm by the cold_loads delta
// around it, giving the cold-load vs warm-acquire latency split.
//
// A fourth pass measures compiled inference plans (src/plan/): the same
// requests with ExecuteForecast handed the handle's plan cache
// (ModelHandle::plans()) instead of nullptr. The "arena" pass keeps
// measuring the module path (tape-free core::Predict through the shared
// arena); the "plan" pass replays the recorded op plan and also reports
// how many interpreter instructions each request executed.
//
// Emits BENCH_inference.json (EMAF_BENCH_JSON_DIR, default cwd):
//   {"bench": "inference", ..., "no_arena": {"p50_seconds", "p99_seconds",
//    "allocs_per_request"}, "arena": {...}, "arena_hit_rate",
//    "plan": {"p50_seconds", "p99_seconds", "allocs_per_request",
//     "instructions_per_request"},
//    "store": {"models_on_disk", "max_resident", "requests",
//     "cold": {"p50_seconds", "p99_seconds"}, "warm": {...},
//     "hit_rate", "cold_loads", "evictions"},
//    "dtype": {"f64": {"module": {...}, "plan": {...}},
//     "f32": {"module": {...}, "plan": {...}},
//     "max_abs_error_f32_vs_f64", "plan_p50_speedup_f32_vs_f64"}}
// The dtype section compares stores opened with ModelStoreOptions::
// load_dtype f64 vs f32 over the same snapshots: the four paths run
// interleaved request by request, max_abs_error_f32_vs_f64 is the largest
// forecast-element divergence of the f32 plan path from the f64 plan path
// across the five families, and the speedup field is f64-plan p50 over
// f32-plan p50.
// allocs_per_request comes from the tensor.storage_allocs counter and is
// reported as -1 (like the plan instruction field) when the build
// has metrics compiled out.
//
//   EMAF_BENCH_INFER_REQUESTS  timed requests per pass (default 512)

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/check.h"
#include "common/metrics.h"
#include "core/evaluator.h"
#include "core/trainer.h"
#include "data/generator.h"
#include "graph/construction.h"
#include "models/registry.h"
#include "models/var_forecaster.h"
#include "serve/forecast_op.h"
#include "serve/model_store.h"
#include "tensor/ops.h"

namespace emaf {
namespace {

struct PassStats {
  double p50_seconds = 0.0;
  double p99_seconds = 0.0;
  double allocs_per_request = -1.0;  // -1: metrics compiled out
};

double Quantile(std::vector<double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  size_t index = static_cast<size_t>(q * static_cast<double>(sorted.size()));
  index = std::min(index, sorted.size() - 1);
  return sorted[index];
}

uint64_t StorageAllocs() {
  return obs::Registry::Global()
      .GetCounter("tensor.storage_allocs")
      ->value();
}

std::string PassJson(const PassStats& stats) {
  return StrCat("{\"p50_seconds\": ", stats.p50_seconds,
                ", \"p99_seconds\": ", stats.p99_seconds,
                ", \"allocs_per_request\": ", stats.allocs_per_request, "}");
}

// Runs `requests` forecasts round-robin over the ids, timing each request
// and counting storage allocations across the pass.
template <typename ForecastOnce>
PassStats TimedPass(const std::vector<std::string>& ids, int64_t requests,
                    ForecastOnce forecast) {
  std::vector<double> latencies;
  latencies.reserve(static_cast<size_t>(requests));
  uint64_t allocs_before = StorageAllocs();
  for (int64_t r = 0; r < requests; ++r) {
    const std::string& id = ids[static_cast<size_t>(r) % ids.size()];
    auto start = std::chrono::steady_clock::now();
    forecast(id);
    latencies.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count());
  }
  uint64_t allocs_after = StorageAllocs();
  std::sort(latencies.begin(), latencies.end());
  PassStats stats;
  stats.p50_seconds = Quantile(latencies, 0.5);
  stats.p99_seconds = Quantile(latencies, 0.99);
  if (obs::kMetricsEnabled) {
    stats.allocs_per_request =
        static_cast<double>(allocs_after - allocs_before) /
        static_cast<double>(requests);
  }
  return stats;
}

struct StoreStats {
  double cold_p50 = 0.0, cold_p99 = 0.0;
  double warm_p50 = 0.0, warm_p99 = 0.0;
  double hit_rate = 0.0;
  uint64_t cold_loads = 0;
  uint64_t evictions = 0;
  int64_t models_on_disk = 0;
  int64_t max_resident = 0;
  int64_t requests = 0;
};

// Constrained-budget scenario: many tenants, few residency slots, skewed
// traffic. Models are tiny and untrained — store behavior (lock shards,
// LRU bookkeeping, snapshot reads) is what's being measured, not kernels.
StoreStats RunStoreScenario(int64_t requests) {
  constexpr int64_t kTenants = 32;
  constexpr int64_t kBudget = 8;
  constexpr int64_t kVars = 3;
  constexpr int64_t kSteps = 2;
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "emaf_bench_model_store";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  for (int64_t i = 0; i < kTenants; ++i) {
    models::ModelConfig config;
    config.family = "LSTM";
    config.num_variables = kVars;
    config.input_length = kSteps;
    config.lstm.hidden_units = 4;
    Rng rng(2000 + static_cast<uint64_t>(i));
    std::unique_ptr<models::Forecaster> model =
        models::CreateForecasterOrDie(config, &rng);
    std::string id = StrCat("t", i < 10 ? "0" : "", i);
    Status saved = models::SaveForecasterSnapshot(
        model.get(), config, (dir / (id + ".snapshot")).string());
    EMAF_CHECK(saved.ok()) << saved.ToString();
  }

  serve::ModelStoreOptions options;
  options.max_resident_models = kBudget;
  Result<serve::ModelStore> store =
      serve::ModelStore::Open(dir.string(), options);
  EMAF_CHECK(store.ok()) << store.status().ToString();
  std::vector<std::string> ids = store.value().individual_ids();

  // Zipf-ish CDF over tenant ranks: weight(r) = 1/(r+1).
  std::vector<double> cdf(ids.size());
  double total = 0.0;
  for (size_t r = 0; r < ids.size(); ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    cdf[r] = total;
  }
  for (double& c : cdf) c /= total;

  Rng mix_rng(4242);
  tensor::Tensor window = tensor::Tensor::Uniform(
      tensor::Shape{1, kSteps, kVars}, -1, 1, &mix_rng);
  std::vector<double> cold_latencies;
  std::vector<double> warm_latencies;
  for (int64_t r = 0; r < requests; ++r) {
    double u = mix_rng.Uniform();
    size_t rank = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    rank = std::min(rank, ids.size() - 1);
    uint64_t cold_before = store.value().stats().cold_loads;
    auto start = std::chrono::steady_clock::now();
    Result<serve::ModelHandle> handle = store.value().Get(ids[rank]);
    EMAF_CHECK(handle.ok()) << handle.status().ToString();
    core::Predict(handle.value().get(), window);
    double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    bool cold = store.value().stats().cold_loads != cold_before;
    (cold ? cold_latencies : warm_latencies).push_back(seconds);
  }

  serve::ModelStore::Stats stats = store.value().stats();
  StoreStats result;
  std::sort(cold_latencies.begin(), cold_latencies.end());
  std::sort(warm_latencies.begin(), warm_latencies.end());
  result.cold_p50 = Quantile(cold_latencies, 0.5);
  result.cold_p99 = Quantile(cold_latencies, 0.99);
  result.warm_p50 = Quantile(warm_latencies, 0.5);
  result.warm_p99 = Quantile(warm_latencies, 0.99);
  result.hit_rate = stats.lookups == 0
                        ? 0.0
                        : static_cast<double>(stats.warm_hits) /
                              static_cast<double>(stats.lookups);
  result.cold_loads = stats.cold_loads;
  result.evictions = stats.evictions;
  result.models_on_disk = kTenants;
  result.max_resident = kBudget;
  result.requests = requests;
  std::filesystem::remove_all(dir);
  return result;
}

void Run() {
  bench::BenchScale scale = bench::ReadScale(/*default_epochs=*/5);
  bench::PrintScale("Serving: request latency, arena on/off", scale);
  const int64_t requests = GetEnvInt64("EMAF_BENCH_INFER_REQUESTS", 512);
  const int64_t seq = 5;
  auto wall_start = std::chrono::steady_clock::now();

  // One individual, five snapshots — one per registry family, trained just
  // enough to have non-degenerate weights (latency does not depend on fit
  // quality).
  data::GeneratorConfig gen;
  gen.days = scale.days;
  gen.seed = scale.seed;
  data::Individual person = data::GenerateIndividual(gen, 0);
  data::IndividualSplit split = data::MakeSplit(person, seq);
  graph::GraphBuildOptions graph_options;
  graph_options.metric = graph::GraphMetric::kCorrelation;
  graph::AdjacencyMatrix adj = graph::KeepTopFraction(
      graph::BuildSimilarityGraph(person.observations, graph_options), 0.2);

  std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "emaf_bench_inference";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  core::TrainConfig train;
  train.epochs = scale.epochs;
  for (const char* family : {"LSTM", "VAR", "A3TGCN", "ASTGCN", "MTGNN"}) {
    models::ModelConfig config;
    config.family = family;
    config.num_variables = person.num_variables();
    config.input_length = seq;
    if (config.family != "LSTM" && config.family != "VAR") {
      config.adjacency = adj;
    }
    Rng rng(scale.seed);
    std::unique_ptr<models::Forecaster> model =
        models::CreateForecasterOrDie(config, &rng);
    if (auto* var = dynamic_cast<models::VarForecaster*>(model.get())) {
      var->Fit(split.train.inputs, split.train.targets);
    } else {
      core::TrainForecaster(model.get(), split.train, train);
    }
    std::string path = (dir / (std::string(family) + ".snapshot")).string();
    Status saved = models::SaveForecasterSnapshot(model.get(), config, path);
    EMAF_CHECK(saved.ok()) << saved.ToString();
  }

  // Two stores over the same snapshots: `f64_store` keeps residents in f64
  // (the bit-pinned path), `f32_store` cold-loads them cast to f32, so
  // requests run the f32 kernels and cast window/forecast at the boundary.
  Result<serve::ModelStore> f64_store =
      serve::ModelStore::Open(dir.string());
  EMAF_CHECK(f64_store.ok()) << f64_store.status().ToString();
  serve::ModelStoreOptions f32_options;
  f32_options.load_dtype = tensor::DType::kF32;
  Result<serve::ModelStore> f32_store =
      serve::ModelStore::Open(dir.string(), f32_options);
  EMAF_CHECK(f32_store.ok()) << f32_store.status().ToString();
  std::vector<std::string> ids = f64_store.value().individual_ids();
  Rng window_rng(scale.seed + 1);
  tensor::Tensor window = tensor::Tensor::Uniform(
      tensor::Shape{1, seq, person.num_variables()}, -1, 1, &window_rng);

  // The four timed paths: module vs plan, f64 vs f32. Each has its own
  // arena, so the module path's hit rate is its own.
  struct TimedPath {
    serve::ModelStore* store;
    bool use_plans;
    tensor::InferenceArena arena;
    std::vector<double> latencies;
    uint64_t allocs = 0;
  };
  TimedPath paths[4] = {{&f64_store.value(), false, {}, {}, 0},
                        {&f64_store.value(), true, {}, {}, 0},
                        {&f32_store.value(), false, {}, {}, 0},
                        {&f32_store.value(), true, {}, {}, 0}};
  // One request the way the server runs it: pin the model, then execute
  // it on the path's arena through the plan cache or the module graph.
  auto forecast = [&](TimedPath& path, const std::string& id) {
    Result<serve::ModelHandle> handle = path.store->Get(id);
    EMAF_CHECK(handle.ok()) << handle.status().ToString();
    Result<tensor::Tensor> out = serve::ExecuteForecast(
        handle.value().get(), id, window, &path.arena,
        path.use_plans ? handle.value().plans() : nullptr);
    EMAF_CHECK(out.ok()) << out.status().ToString();
    return std::move(out).value();
  };

  // Warm up every path once per model so lazy first-request work (cold
  // loads, arena cold misses, page faults in fresh weights, plan
  // compilation) stays out of the timings.
  std::map<std::string, serve::ModelHandle> residents;
  for (const std::string& id : ids) {
    Result<serve::ModelHandle> handle = f64_store.value().Get(id);
    EMAF_CHECK(handle.ok()) << handle.status().ToString();
    core::Predict(handle.value().get(), window);
    residents.emplace(id, std::move(handle).value());
    forecast(paths[0], id);
    forecast(paths[1], id);
  }
  double max_abs_error = 0.0;
  for (const std::string& id : ids) {
    forecast(paths[2], id);
    tensor::Tensor f32_compiled = forecast(paths[3], id);
    tensor::Tensor f64_ref = forecast(paths[1], id);
    // Accuracy cost of serving in f32, measured on the wire (both outputs
    // are f64 doubles): the largest per-element divergence from the
    // bit-pinned f64 plan path.
    const double* ref = f64_ref.data();
    const double* got = f32_compiled.data();
    for (int64_t i = 0; i < f64_ref.NumElements(); ++i) {
      max_abs_error = std::max(max_abs_error, std::abs(ref[i] - got[i]));
    }
  }

  PassStats no_arena = TimedPass(ids, requests, [&](const std::string& id) {
    core::Predict(residents.at(id).get(), window);
  });
  // Module vs plan and f64 vs f32, interleaved request by request: all
  // four paths see the same machine-noise profile, so their p50 deltas
  // reflect the execution paths rather than whichever pass a background
  // hiccup landed on.
  for (TimedPath& path : paths) {
    path.latencies.reserve(static_cast<size_t>(requests));
  }
  // Instruction counting brackets only the f64 plan requests — the f32
  // plan path bumps the same process-global counter.
  uint64_t instructions_total = 0;
  for (int64_t r = 0; r < requests; ++r) {
    const std::string& id = ids[static_cast<size_t>(r) % ids.size()];
    for (size_t p = 0; p < 4; ++p) {
      uint64_t allocs = StorageAllocs();
      uint64_t instructions_before =
          p == 1 ? obs::Registry::Global()
                       .GetCounter("plan.instructions_total")
                       ->value()
                 : 0;
      auto start = std::chrono::steady_clock::now();
      forecast(paths[p], id);
      paths[p].latencies.push_back(
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count());
      paths[p].allocs += StorageAllocs() - allocs;
      if (p == 1) {
        instructions_total += obs::Registry::Global()
                                  .GetCounter("plan.instructions_total")
                                  ->value() -
                              instructions_before;
      }
    }
  }
  double instructions_per_request =
      obs::kMetricsEnabled ? static_cast<double>(instructions_total) /
                                 static_cast<double>(requests)
                           : -1.0;
  auto finish_pass = [&](std::vector<double> latencies, uint64_t allocs) {
    std::sort(latencies.begin(), latencies.end());
    PassStats stats;
    stats.p50_seconds = Quantile(latencies, 0.5);
    stats.p99_seconds = Quantile(latencies, 0.99);
    if (obs::kMetricsEnabled) {
      stats.allocs_per_request =
          static_cast<double>(allocs) / static_cast<double>(requests);
    }
    return stats;
  };
  PassStats arena = finish_pass(std::move(paths[0].latencies), paths[0].allocs);
  PassStats plan = finish_pass(std::move(paths[1].latencies), paths[1].allocs);
  PassStats f32_module =
      finish_pass(std::move(paths[2].latencies), paths[2].allocs);
  PassStats f32_plan =
      finish_pass(std::move(paths[3].latencies), paths[3].allocs);
  double plan_speedup =
      f32_plan.p50_seconds > 0 ? plan.p50_seconds / f32_plan.p50_seconds : 0.0;
  tensor::InferenceArena::Stats arena_stats = paths[0].arena.stats();
  double hit_rate =
      arena_stats.hits + arena_stats.misses == 0
          ? 0.0
          : static_cast<double>(arena_stats.hits) /
                static_cast<double>(arena_stats.hits + arena_stats.misses);

  StoreStats store = RunStoreScenario(requests);

  double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  std::string json = StrCat(
      "{\"bench\": \"inference\", \"wall_seconds\": ", wall_seconds,
      ", \"threads\": ", common::ThreadPool::Global().num_threads(),
      ", \"requests\": ", requests, ", \"families\": ", ids.size(),
      ", \"no_arena\": ", PassJson(no_arena),
      ", \"arena\": ", PassJson(arena),
      ", \"arena_hit_rate\": ", hit_rate,
      ", \"plan\": {\"p50_seconds\": ", plan.p50_seconds,
      ", \"p99_seconds\": ", plan.p99_seconds,
      ", \"allocs_per_request\": ", plan.allocs_per_request,
      ", \"instructions_per_request\": ", instructions_per_request, "}",
      ", \"store\": {\"models_on_disk\": ", store.models_on_disk,
      ", \"max_resident\": ", store.max_resident,
      ", \"requests\": ", store.requests,
      ", \"cold\": {\"p50_seconds\": ", store.cold_p50,
      ", \"p99_seconds\": ", store.cold_p99,
      "}, \"warm\": {\"p50_seconds\": ", store.warm_p50,
      ", \"p99_seconds\": ", store.warm_p99,
      "}, \"hit_rate\": ", store.hit_rate,
      ", \"cold_loads\": ", store.cold_loads,
      ", \"evictions\": ", store.evictions, "}",
      ", \"dtype\": {\"f64\": {\"module\": ", PassJson(arena),
      ", \"plan\": ", PassJson(plan),
      "}, \"f32\": {\"module\": ", PassJson(f32_module),
      ", \"plan\": ", PassJson(f32_plan),
      "}, \"max_abs_error_f32_vs_f64\": ", max_abs_error,
      ", \"plan_p50_speedup_f32_vs_f64\": ", plan_speedup,
      ", \"resident_bytes\": {\"f64\": ",
      f64_store.value().stats().resident_bytes,
      ", \"f32\": ", f32_store.value().stats().resident_bytes,
      "}}}");

  std::cout << "requests per pass: " << requests << " across " << ids.size()
            << " families\n"
            << "no arena: p50 " << no_arena.p50_seconds * 1e6 << "us, p99 "
            << no_arena.p99_seconds * 1e6 << "us, allocs/request "
            << no_arena.allocs_per_request << "\n"
            << "arena:    p50 " << arena.p50_seconds * 1e6 << "us, p99 "
            << arena.p99_seconds * 1e6 << "us, allocs/request "
            << arena.allocs_per_request << " (hit rate "
            << FormatFixed(hit_rate, 4) << ")\n"
            << "plan:     p50 " << plan.p50_seconds * 1e6 << "us, p99 "
            << plan.p99_seconds * 1e6 << "us, allocs/request "
            << plan.allocs_per_request << " ("
            << instructions_per_request << " instructions/request)\n"
            << "f32 mod:  p50 " << f32_module.p50_seconds * 1e6 << "us, p99 "
            << f32_module.p99_seconds * 1e6 << "us, allocs/request "
            << f32_module.allocs_per_request << "\n"
            << "f32 plan: p50 " << f32_plan.p50_seconds * 1e6 << "us, p99 "
            << f32_plan.p99_seconds * 1e6 << "us, allocs/request "
            << f32_plan.allocs_per_request << " ("
            << FormatFixed(plan_speedup, 2) << "x f64 plan p50, max |err| "
            << max_abs_error << ")\n"
            << "store (" << store.max_resident << " of "
            << store.models_on_disk << " resident): cold p50 "
            << store.cold_p50 * 1e6 << "us, p99 " << store.cold_p99 * 1e6
            << "us; warm p50 " << store.warm_p50 * 1e6 << "us, p99 "
            << store.warm_p99 * 1e6 << "us; hit rate "
            << FormatFixed(store.hit_rate, 4) << ", " << store.cold_loads
            << " cold loads, " << store.evictions << " evictions\n";
  std::cout << "\n[json] " << json << "\n";

  std::string json_dir = GetEnvString("EMAF_BENCH_JSON_DIR", ".");
  if (json_dir != "-") {
    std::string path = json_dir + "/BENCH_inference.json";
    std::ofstream out(path);
    if (out) {
      out << json << "\n";
    } else {
      std::cout << "[json] failed to write " << path << "\n";
    }
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace emaf

int main() {
  emaf::Run();
  return 0;
}
