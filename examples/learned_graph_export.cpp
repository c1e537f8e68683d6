// Learned-graph workflow (Experiment C, Fig. 2 right branch): train MTGNN
// with graph learning on one participant, checkpoint the model, export its
// learned adjacency, and feed that graph to ASTGCN to see whether the
// learned structure transfers.
//
//   ./build/examples/learned_graph_export [output_dir] [epochs]

#include <cstdlib>
#include <iostream>
#include <memory>

#include "common/string_util.h"
#include "core/evaluator.h"
#include "core/trainer.h"
#include "data/csv.h"
#include "data/generator.h"
#include "graph/construction.h"
#include "graph/metrics.h"
#include "models/mtgnn.h"
#include "models/registry.h"
#include "tensor/ops.h"

int main(int argc, char** argv) {
  using namespace emaf;  // NOLINT: example brevity
  std::string output_dir = argc > 1 ? argv[1] : "/tmp";
  int64_t epochs = argc > 2 ? std::atoll(argv[2]) : 60;
  const int64_t seq = 5;

  data::GeneratorConfig gen;
  gen.days = 14;
  gen.seed = 4;
  data::Individual person = data::GenerateIndividual(gen, 0);
  data::IndividualSplit split = data::MakeSplit(person, seq);

  // Static correlation prior (built on training rows only, GDT 20%).
  graph::GraphBuildOptions options;
  options.metric = graph::GraphMetric::kCorrelation;
  tensor::Tensor train_rows =
      tensor::Slice(person.observations, 0, 0, split.split_row);
  graph::AdjacencyMatrix static_graph = graph::KeepTopFraction(
      graph::BuildSimilarityGraph(train_rows, options), 0.2);

  // 1. Train MTGNN with graph learning initialized from the prior, built
  //    through the model registry (the grid's and the model store's
  //    construction path).
  Rng rng(11);
  models::ModelConfig mtgnn_model_config;
  mtgnn_model_config.family = "MTGNN";
  mtgnn_model_config.num_variables = person.num_variables();
  mtgnn_model_config.input_length = seq;
  mtgnn_model_config.adjacency = static_graph;
  std::unique_ptr<models::Forecaster> mtgnn_forecaster =
      models::CreateForecasterOrDie(mtgnn_model_config, &rng);
  auto* mtgnn = dynamic_cast<models::Mtgnn*>(mtgnn_forecaster.get());
  core::TrainConfig train;
  train.epochs = epochs;
  core::TrainForecaster(mtgnn, split.train, train);
  double mtgnn_mse = core::EvaluateMse(mtgnn, split.test);
  std::cout << "MTGNN test MSE: " << FormatFixed(mtgnn_mse, 3) << "\n";

  // 2. Checkpoint the trained model as a snapshot (embedded config), so
  //    serve::ModelStore can rebuild it without this source file.
  std::string ckpt = output_dir + "/mtgnn_individual0.snapshot";
  Status saved =
      models::SaveForecasterSnapshot(mtgnn, mtgnn_model_config, ckpt);
  std::cout << "snapshot: " << (saved.ok() ? ckpt : saved.ToString())
            << "\n";

  // 3. Export the learned graph and compare to the static prior.
  graph::AdjacencyMatrix learned = mtgnn->CurrentAdjacency();
  graph::AdjacencyMatrix learned_sym = learned;
  learned_sym.Symmetrize();
  learned_sym.ZeroDiagonal();
  std::cout << "learned-vs-static correlation: "
            << FormatFixed(graph::GraphCorrelation(learned_sym, static_graph),
                           3)
            << "  (paper reports ~0.88)\n";
  std::string graph_csv = output_dir + "/learned_graph.csv";
  if (data::SaveAdjacencyCsv(learned, graph_csv).ok()) {
    std::cout << "learned graph exported to " << graph_csv << "\n";
  }

  // 4. Feed the (symmetrized, GDT-matched) learned graph to ASTGCN.
  graph::AdjacencyMatrix learned_sparse =
      graph::KeepTopFraction(learned_sym, 0.2);
  models::ModelConfig ast_model_config;
  ast_model_config.family = "ASTGCN";
  ast_model_config.num_variables = person.num_variables();
  ast_model_config.input_length = seq;

  Rng rng_ast(12);
  ast_model_config.adjacency = static_graph;
  std::unique_ptr<models::Forecaster> astgcn_static =
      models::CreateForecasterOrDie(ast_model_config, &rng_ast);
  core::TrainForecaster(astgcn_static.get(), split.train, train);
  double static_mse = core::EvaluateMse(astgcn_static.get(), split.test);

  Rng rng_ast2(12);  // same init, different graph: isolates the graph effect
  ast_model_config.adjacency = learned_sparse;
  std::unique_ptr<models::Forecaster> astgcn_learned =
      models::CreateForecasterOrDie(ast_model_config, &rng_ast2);
  core::TrainForecaster(astgcn_learned.get(), split.train, train);
  double learned_mse = core::EvaluateMse(astgcn_learned.get(), split.test);

  std::cout << "ASTGCN with static CORR graph:   "
            << FormatFixed(static_mse, 3) << "\n"
            << "ASTGCN with MTGNN-learned graph: "
            << FormatFixed(learned_mse, 3) << "  ("
            << FormatFixed(100.0 * (learned_mse - static_mse) / static_mse, 1)
            << "% change)\n";
  return 0;
}
