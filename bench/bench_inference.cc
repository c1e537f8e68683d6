// f64-vs-f32 serving bench: trains all five forecaster families on one
// synthetic individual, snapshots them, and opens the directory twice as
// a serve::ModelStore — once with residents in f64 (the bit-pinned path)
// and once with ModelStoreOptions::load_dtype f32. Every request runs the
// path RequestScheduler::Execute runs: ModelStore::Get, then
// serve::ExecuteForecast on an InferenceArena with the handle's plan
// cache. The f64 and f32 requests alternate (their order flips every
// round), so both dtypes see the same machine noise.
//
// This is the one comparison emafbench does not make; per-family module
// and plan latency, allocations, kernel rates and store behaviour are
// metrics of its traced run (`emafbench/run.py --trace 1`).
//
// Emits BENCH_inference.json (EMAF_BENCH_JSON_DIR, default cwd):
//   {"bench": "inference", "wall_seconds", "threads",
//    "requests_per_family",
//    "families": {"<family>": {"f64": {"p50_seconds", "p99_seconds"},
//                              "f32": {...},
//                              "max_abs_error_f32_vs_f64"}, ...},
//    "resident_bytes": {"f64", "f32"}}
// max_abs_error_f32_vs_f64 is the largest forecast-element divergence of
// the f32 resident from the f64 one (both answer in f64 on the wire).
//
//   EMAF_BENCH_INFER_REQUESTS  timed requests per family and dtype
//                              (default 200)

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "common/check.h"
#include "core/trainer.h"
#include "data/generator.h"
#include "graph/construction.h"
#include "models/registry.h"
#include "models/var_forecaster.h"
#include "serve/forecast_op.h"
#include "serve/model_store.h"
#include "tensor/arena.h"

namespace emaf {
namespace {

double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  size_t index = static_cast<size_t>(q * static_cast<double>(sorted.size()));
  return sorted[std::min(index, sorted.size() - 1)];
}

// One store opened at one dtype, with the arena its requests run on.
struct Resident {
  const char* name;
  serve::ModelStore store;
  tensor::InferenceArena arena;
};

// One request the way the scheduler runs it: pin the model, then execute
// it on the arena through the handle's plan cache.
tensor::Tensor Forecast(Resident& resident, const std::string& id,
                        const tensor::Tensor& window) {
  Result<serve::ModelHandle> handle = resident.store.Get(id);
  EMAF_CHECK(handle.ok()) << handle.status().ToString();
  Result<tensor::Tensor> out =
      serve::ExecuteForecast(handle.value().get(), id, window,
                             &resident.arena, handle.value().plans());
  EMAF_CHECK(out.ok()) << out.status().ToString();
  return std::move(out).value();
}

void Run() {
  bench::BenchScale scale = bench::ReadScale(/*default_epochs=*/5);
  bench::PrintScale("Serving: f64 vs f32 residents per family", scale);
  const int64_t requests = GetEnvInt64("EMAF_BENCH_INFER_REQUESTS", 200);
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
  const std::vector<std::string> families = {"LSTM", "VAR", "A3TGCN",
                                             "ASTGCN", "MTGNN"};
  for (const std::string& family : families) {
    models::ModelConfig config;
    config.family = family;
    config.num_variables = person.num_variables();
    config.input_length = seq;
    if (family != "LSTM" && family != "VAR") config.adjacency = adj;
    Rng rng(scale.seed);
    std::unique_ptr<models::Forecaster> model =
        models::CreateForecasterOrDie(config, &rng);
    if (auto* var = dynamic_cast<models::VarForecaster*>(model.get())) {
      var->Fit(split.train.inputs, split.train.targets);
    } else {
      core::TrainForecaster(model.get(), split.train, train);
    }
    Status saved = models::SaveForecasterSnapshot(
        model.get(), config, (dir / (family + ".snapshot")).string());
    EMAF_CHECK(saved.ok()) << saved.ToString();
  }

  std::vector<Resident> residents;
  for (tensor::DType dtype : {tensor::DType::kF64, tensor::DType::kF32}) {
    serve::ModelStoreOptions options;
    options.load_dtype = dtype;
    Result<serve::ModelStore> store =
        serve::ModelStore::Open(dir.string(), options);
    EMAF_CHECK(store.ok()) << store.status().ToString();
    residents.push_back({dtype == tensor::DType::kF64 ? "f64" : "f32",
                         std::move(store).value(), {}});
  }
  Rng window_rng(scale.seed + 1);
  tensor::Tensor window = tensor::Tensor::Uniform(
      tensor::Shape{1, seq, person.num_variables()}, -1, 1, &window_rng);

  std::string families_json;
  for (const std::string& family : families) {
    // The first request per dtype is untimed: it takes the cold load, the
    // plan compile and the arena's first misses. Its outputs give the
    // accuracy cost of serving in f32.
    tensor::Tensor f64_out = Forecast(residents[0], family, window);
    tensor::Tensor f32_out = Forecast(residents[1], family, window);
    double max_abs_error = 0.0;
    for (int64_t i = 0; i < f64_out.NumElements(); ++i) {
      max_abs_error = std::max(
          max_abs_error, std::abs(f64_out.data()[i] - f32_out.data()[i]));
    }

    std::vector<double> latencies[2];
    for (int64_t r = 0; r < requests; ++r) {
      for (size_t k = 0; k < 2; ++k) {
        size_t d = (static_cast<size_t>(r) + k) % 2;
        auto start = std::chrono::steady_clock::now();
        Forecast(residents[d], family, window);
        latencies[d].push_back(std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - start)
                                   .count());
      }
    }
    std::cout << family << ":";
    families_json = StrCat(families_json, families_json.empty() ? "" : ", ",
                           "\"", family, "\": {");
    for (size_t d = 0; d < 2; ++d) {
      std::sort(latencies[d].begin(), latencies[d].end());
      const double p50 = Quantile(latencies[d], 0.5);
      const double p99 = Quantile(latencies[d], 0.99);
      std::cout << " " << residents[d].name << " p50 " << p50 * 1e6
                << "us p99 " << p99 * 1e6 << "us;";
      families_json = StrCat(families_json, "\"", residents[d].name,
                             "\": {\"p50_seconds\": ", p50,
                             ", \"p99_seconds\": ", p99, "}, ");
    }
    std::cout << " max |f32 - f64| " << max_abs_error << "\n";
    families_json = StrCat(families_json, "\"max_abs_error_f32_vs_f64\": ",
                           max_abs_error, "}");
  }

  const int64_t f64_bytes = residents[0].store.stats().resident_bytes;
  const int64_t f32_bytes = residents[1].store.stats().resident_bytes;
  std::cout << "resident bytes: f64 " << f64_bytes << ", f32 " << f32_bytes
            << "\n";
  double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  Result<std::string> written = bench::WriteBenchJson(
      "inference",
      StrCat("{\"bench\": \"inference\", \"wall_seconds\": ", wall_seconds,
             ", \"threads\": ", common::ThreadPool::Global().num_threads(),
             ", \"requests_per_family\": ", requests,
             ", \"families\": {", families_json,
             "}, \"resident_bytes\": {\"f64\": ", f64_bytes,
             ", \"f32\": ", f32_bytes, "}}"));
  if (!written.ok()) {
    std::cout << "[json] " << written.status().message() << "\n";
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace emaf

int main() {
  emaf::Run();
  return 0;
}
