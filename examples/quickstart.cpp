// Quickstart: generate one synthetic EMA individual, build a correlation
// graph over the 26 items, train the MTGNN forecaster and the LSTM
// baseline through the model registry, compare their 1-lag test MSE, then
// snapshot the winner and answer a forecast request through the serving
// path (ModelStore + ExecuteForecast).
//
//   ./build/examples/quickstart

#include <filesystem>
#include <iostream>
#include <memory>

#include "core/evaluator.h"
#include "core/trainer.h"
#include "data/dataset.h"
#include "data/generator.h"
#include "graph/construction.h"
#include "models/registry.h"
#include "serve/forecast_op.h"
#include "serve/model_store.h"
#include "tensor/arena.h"
#include "ts/window.h"

int main() {
  using namespace emaf;  // NOLINT: example brevity

  // 1. Data: one synthetic participant (28 days x 8 beeps, 26 EMA items,
  //    Likert-quantized, compliance-thinned, z-scored).
  data::GeneratorConfig gen;
  gen.num_individuals = 1;
  gen.days = 14;  // demo scale; the study protocol is 28 days
  gen.seed = 7;
  data::Individual person = data::GenerateIndividual(gen, /*index=*/0);
  std::cout << "individual " << person.id << ": "
            << person.num_time_points() << " time points x "
            << person.num_variables() << " variables\n";

  // 2. Split: sequential 70/30, windows of the last 5 steps (Seq5).
  const int64_t input_length = 5;
  data::IndividualSplit split = data::MakeSplit(person, input_length);
  std::cout << "train windows: " << split.train.num_windows()
            << ", test windows: " << split.test.num_windows() << "\n";

  // 3. Graph: absolute Pearson correlation between items, built on the
  //    training region, sparsified to the strongest 20% of edges.
  graph::GraphBuildOptions graph_options;
  graph_options.metric = graph::GraphMetric::kCorrelation;
  tensor::Tensor train_region =
      tensor::Slice(person.observations, 0, 0, split.split_row);
  graph::AdjacencyMatrix corr =
      graph::BuildSimilarityGraph(train_region, graph_options);
  graph::AdjacencyMatrix sparse = graph::KeepTopFraction(corr, 0.2);
  std::cout << "graph density after GDT=20%: " << sparse.Density() << "\n";

  // 4. Train MTGNN (graph learning on, correlation prior) and LSTM, both
  //    built through the model registry — the same construction path the
  //    experiment grid and the model store use.
  core::TrainConfig train;
  train.epochs = 40;  // demo scale; the paper trains 300

  Rng rng(123);
  models::ModelConfig mtgnn_config;
  mtgnn_config.family = "MTGNN";
  mtgnn_config.num_variables = person.num_variables();
  mtgnn_config.input_length = input_length;
  mtgnn_config.adjacency = sparse;
  std::unique_ptr<models::Forecaster> mtgnn =
      models::CreateForecasterOrDie(mtgnn_config, &rng);
  core::TrainForecaster(mtgnn.get(), split.train, train);
  double mtgnn_mse = core::EvaluateMse(mtgnn.get(), split.test);

  models::ModelConfig lstm_config;
  lstm_config.family = "LSTM";
  lstm_config.num_variables = person.num_variables();
  lstm_config.input_length = input_length;
  std::unique_ptr<models::Forecaster> lstm =
      models::CreateForecasterOrDie(lstm_config, &rng);
  core::TrainForecaster(lstm.get(), split.train, train);
  double lstm_mse = core::EvaluateMse(lstm.get(), split.test);

  std::cout << "test MSE  MTGNN_CORR: " << mtgnn_mse << "\n";
  std::cout << "test MSE  LSTM:       " << lstm_mse << "\n";

  // 5. Serve: snapshot the trained MTGNN (config embedded) into a
  //    directory, open it as a model store and answer a request through
  //    the model's compiled plan — the tape-free, arena-backed path the
  //    server runs.
  std::filesystem::path snapshot_dir =
      std::filesystem::temp_directory_path() / "emaf_quickstart_snapshots";
  std::filesystem::create_directories(snapshot_dir);
  std::string snapshot = (snapshot_dir / (person.id + ".snapshot")).string();
  Status saved =
      models::SaveForecasterSnapshot(mtgnn.get(), mtgnn_config, snapshot);
  if (!saved.ok()) {
    std::cerr << "snapshot failed: " << saved.ToString() << "\n";
    return 1;
  }

  Result<serve::ModelStore> store =
      serve::ModelStore::Open(snapshot_dir.string());
  if (!store.ok()) {
    std::cerr << "store open failed: " << store.status().ToString() << "\n";
    return 1;
  }
  Result<serve::ModelHandle> handle = store.value().Get(person.id);
  if (!handle.ok()) {
    std::cerr << "model load failed: " << handle.status().ToString() << "\n";
    return 1;
  }
  tensor::Tensor last_window = tensor::Slice(
      split.test.inputs, 0, split.test.num_windows() - 1,
      split.test.num_windows());
  tensor::InferenceArena arena;
  Result<tensor::Tensor> forecast =
      serve::ExecuteForecast(handle.value().get(), person.id, last_window,
                             &arena, handle.value().plans());
  if (!forecast.ok()) {
    std::cerr << "forecast failed: " << forecast.status().ToString() << "\n";
    return 1;
  }
  std::cout << "served 1-step forecast for " << person.id << " ("
            << forecast.value().shape().ToString() << ") from " << snapshot
            << "\n";
  return 0;
}
