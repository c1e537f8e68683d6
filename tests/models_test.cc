#include <memory>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/evaluator.h"
#include "core/trainer.h"
#include "data/generator.h"
#include "graph/construction.h"
#include "models/a3tgcn.h"
#include "models/astgcn.h"
#include "models/forecaster.h"
#include "models/lstm_forecaster.h"
#include "models/mtgnn.h"
#include "tensor/ops.h"

namespace emaf::models {
namespace {

using tensor::Shape;
using tensor::Tensor;

constexpr int64_t kVars = 6;
constexpr int64_t kSteps = 3;

graph::AdjacencyMatrix TestGraph() {
  graph::AdjacencyMatrix adj(kVars);
  for (int64_t i = 0; i + 1 < kVars; ++i) {
    adj.set(i, i + 1, 0.8);
    adj.set(i + 1, i, 0.8);
  }
  return adj;
}

// Small configs so every test runs in milliseconds.
LstmConfig SmallLstm() {
  LstmConfig c;
  c.hidden_units = 8;
  return c;
}
A3tgcnConfig SmallA3() {
  A3tgcnConfig c;
  c.hidden_units = 8;
  return c;
}
AstgcnConfig SmallAst() {
  AstgcnConfig c;
  c.hidden_units = 8;
  c.num_blocks = 2;
  return c;
}
MtgnnConfig SmallMtgnn() {
  MtgnnConfig c;
  c.residual_channels = 8;
  c.conv_channels = 8;
  c.skip_channels = 8;
  c.end_channels = 16;
  c.embedding_dim = 4;
  return c;
}

// Factory helpers used by the parameterized suite.
using ModelFactory =
    std::function<std::unique_ptr<Forecaster>(const graph::AdjacencyMatrix&,
                                              int64_t, Rng*)>;

struct ModelCase {
  std::string name;
  ModelFactory make;
};

std::vector<ModelCase> AllModels() {
  return {
      {"LSTM",
       [](const graph::AdjacencyMatrix& adj, int64_t steps, Rng* rng) {
         return std::make_unique<LstmForecaster>(adj.num_nodes(), steps,
                                                 SmallLstm(), rng);
       }},
      {"A3TGCN",
       [](const graph::AdjacencyMatrix& adj, int64_t steps, Rng* rng) {
         return std::make_unique<A3tgcn>(adj, steps, SmallA3(), rng);
       }},
      {"ASTGCN",
       [](const graph::AdjacencyMatrix& adj, int64_t steps, Rng* rng) {
         return std::make_unique<Astgcn>(adj, steps, SmallAst(), rng);
       }},
      {"MTGNN",
       [](const graph::AdjacencyMatrix& adj, int64_t steps, Rng* rng) {
         return std::make_unique<Mtgnn>(&adj, adj.num_nodes(), steps,
                                        SmallMtgnn(), rng);
       }},
  };
}

class ForecasterTest : public ::testing::TestWithParam<ModelCase> {};

TEST_P(ForecasterTest, OutputShapeIsBatchByVars) {
  Rng rng(1);
  graph::AdjacencyMatrix adj = TestGraph();
  std::unique_ptr<Forecaster> model = GetParam().make(adj, kSteps, &rng);
  Tensor window = Tensor::Zeros(Shape{7, kSteps, kVars});
  EXPECT_EQ(model->Forward(window).shape(), (Shape{7, kVars}));
  EXPECT_EQ(model->num_variables(), kVars);
  EXPECT_EQ(model->input_length(), kSteps);
}

TEST_P(ForecasterTest, SingleStepInputWorks) {
  Rng rng(2);
  graph::AdjacencyMatrix adj = TestGraph();
  std::unique_ptr<Forecaster> model = GetParam().make(adj, 1, &rng);
  Tensor window = Tensor::Zeros(Shape{4, 1, kVars});
  EXPECT_EQ(model->Forward(window).shape(), (Shape{4, kVars}));
}

TEST_P(ForecasterTest, DeterministicInitAndEval) {
  Rng rng_a(3);
  Rng rng_b(3);
  graph::AdjacencyMatrix adj = TestGraph();
  std::unique_ptr<Forecaster> a = GetParam().make(adj, kSteps, &rng_a);
  std::unique_ptr<Forecaster> b = GetParam().make(adj, kSteps, &rng_b);
  a->SetTraining(false);
  b->SetTraining(false);
  Rng data_rng(4);
  Tensor window = Tensor::Uniform(Shape{3, kSteps, kVars}, -1, 1, &data_rng);
  EXPECT_EQ(a->Forward(window).ToVector(), b->Forward(window).ToVector());
  // Eval mode is deterministic run to run (dropout off).
  EXPECT_EQ(a->Forward(window).ToVector(), a->Forward(window).ToVector());
}

TEST_P(ForecasterTest, HasTrainableParameters) {
  Rng rng(5);
  graph::AdjacencyMatrix adj = TestGraph();
  std::unique_ptr<Forecaster> model = GetParam().make(adj, kSteps, &rng);
  EXPECT_GT(model->ParameterCount(), 50);
  for (Tensor* p : model->Parameters()) {
    EXPECT_TRUE(p->requires_grad());
  }
}

TEST_P(ForecasterTest, GradientsReachEveryParameter) {
  Rng rng(6);
  graph::AdjacencyMatrix adj = TestGraph();
  std::unique_ptr<Forecaster> model = GetParam().make(adj, kSteps, &rng);
  model->SetTraining(false);  // dropout off so no parameter is masked out
  Rng data_rng(7);
  Tensor window = Tensor::Uniform(Shape{5, kSteps, kVars}, -1, 1, &data_rng);
  Tensor target = Tensor::Uniform(Shape{5, kVars}, -1, 1, &data_rng);
  tensor::MseLoss(model->Forward(window), target).Backward();
  int64_t with_grad = 0;
  int64_t total = 0;
  for (const nn::NamedParameter& p : model->NamedParameters()) {
    ++total;
    if (p.value->grad().defined()) ++with_grad;
  }
  // All parameters must receive gradients (graph-learner embeddings
  // included).
  EXPECT_EQ(with_grad, total);
}

TEST_P(ForecasterTest, LearnsConstantTarget) {
  // Train on a trivially predictable dataset: loss must drop sharply.
  Rng rng(8);
  graph::AdjacencyMatrix adj = TestGraph();
  std::unique_ptr<Forecaster> model = GetParam().make(adj, kSteps, &rng);
  Rng data_rng(9);
  Tensor inputs = Tensor::Uniform(Shape{12, kSteps, kVars}, -1, 1, &data_rng);
  Tensor targets = Tensor::Full(Shape{12, kVars}, 0.75);
  ts::WindowDataset ds;
  ds.inputs = inputs;
  ds.targets = targets;
  core::TrainConfig config;
  config.epochs = 60;
  core::TrainResult result = core::TrainForecaster(model.get(), ds, config);
  EXPECT_LT(result.final_loss, 0.25 * result.epoch_losses.front());
}

TEST_P(ForecasterTest, WindowShapeIsValidated) {
  Rng rng(10);
  graph::AdjacencyMatrix adj = TestGraph();
  std::unique_ptr<Forecaster> model = GetParam().make(adj, kSteps, &rng);
  EXPECT_DEATH(model->Forward(Tensor::Zeros(Shape{2, kSteps + 1, kVars})), "");
  EXPECT_DEATH(model->Forward(Tensor::Zeros(Shape{2, kSteps, kVars + 2})), "");
  EXPECT_DEATH(model->Forward(Tensor::Zeros(Shape{kSteps, kVars})), "");
}

INSTANTIATE_TEST_SUITE_P(AllModels, ForecasterTest,
                         ::testing::ValuesIn(AllModels()),
                         [](const ::testing::TestParamInfo<ModelCase>& info) {
                           return info.param.name;
                         });

TEST(LstmForecasterTest, Name) {
  Rng rng(11);
  LstmForecaster model(kVars, kSteps, SmallLstm(), &rng);
  EXPECT_EQ(model.name(), "LSTM");
}

TEST(A3tgcnTest, UsesGraphStructure) {
  // Changing the graph must change the (deterministic) output.
  Rng rng_a(12);
  Rng rng_b(12);
  graph::AdjacencyMatrix connected = TestGraph();
  graph::AdjacencyMatrix empty(kVars);
  A3tgcn a(connected, kSteps, SmallA3(), &rng_a);
  A3tgcn b(empty, kSteps, SmallA3(), &rng_b);
  a.SetTraining(false);
  b.SetTraining(false);
  Rng data_rng(13);
  Tensor window = Tensor::Uniform(Shape{2, kSteps, kVars}, -1, 1, &data_rng);
  EXPECT_NE(a.Forward(window).ToVector(), b.Forward(window).ToVector());
}

TEST(AstgcnTest, UsesGraphStructure) {
  Rng rng_a(14);
  Rng rng_b(14);
  graph::AdjacencyMatrix connected = TestGraph();
  graph::AdjacencyMatrix empty(kVars);
  Astgcn a(connected, kSteps, SmallAst(), &rng_a);
  Astgcn b(empty, kSteps, SmallAst(), &rng_b);
  a.SetTraining(false);
  b.SetTraining(false);
  Rng data_rng(15);
  Tensor window = Tensor::Uniform(Shape{2, kSteps, kVars}, -1, 1, &data_rng);
  EXPECT_NE(a.Forward(window).ToVector(), b.Forward(window).ToVector());
}

TEST(MtgnnTest, LearnedAdjacencyHasTopKSparsity) {
  Rng rng(16);
  MtgnnConfig config = SmallMtgnn();
  config.top_k = 2;
  config.static_prior_weight = 0.0;  // learned part only
  Mtgnn model(nullptr, kVars, kSteps, config, &rng);
  graph::AdjacencyMatrix learned = model.CurrentAdjacency();
  EXPECT_TRUE(learned.IsNonNegative());
  for (int64_t i = 0; i < kVars; ++i) {
    int64_t row_edges = 0;
    for (int64_t j = 0; j < kVars; ++j) {
      if (learned.at(i, j) != 0.0) ++row_edges;
    }
    EXPECT_LE(row_edges, 2);
  }
}

TEST(MtgnnTest, StaticPriorContributesToAdjacency) {
  Rng rng(17);
  graph::AdjacencyMatrix prior = TestGraph();
  MtgnnConfig config = SmallMtgnn();
  config.static_prior_weight = 1.0;
  Mtgnn model(&prior, kVars, kSteps, config, &rng);
  graph::AdjacencyMatrix combined = model.CurrentAdjacency();
  // Every prior edge appears in the combined graph.
  for (int64_t i = 0; i < kVars; ++i) {
    for (int64_t j = 0; j < kVars; ++j) {
      if (prior.at(i, j) > 0.0) {
        EXPECT_GT(combined.at(i, j), 0.0);
      }
    }
  }
}

TEST(MtgnnTest, GraphLearningOffUsesStaticGraph) {
  Rng rng(18);
  graph::AdjacencyMatrix prior = TestGraph();
  MtgnnConfig config = SmallMtgnn();
  config.use_graph_learning = false;
  Mtgnn model(&prior, kVars, kSteps, config, &rng);
  graph::AdjacencyMatrix used = model.CurrentAdjacency();
  // Static graph, rescaled to max weight 1.
  graph::AdjacencyMatrix expected = prior;
  expected.NormalizeMaxToOne();
  EXPECT_EQ(used, expected);
}

TEST(MtgnnDeathTest, NoGraphAtAllIsRejected) {
  Rng rng(19);
  MtgnnConfig config = SmallMtgnn();
  config.use_graph_learning = false;
  EXPECT_DEATH(Mtgnn(nullptr, kVars, kSteps, config, &rng), "static graph");
}

TEST(MtgnnTest, TrainingUpdatesLearnedGraph) {
  Rng rng(20);
  MtgnnConfig config = SmallMtgnn();
  config.static_prior_weight = 0.0;
  Mtgnn model(nullptr, kVars, kSteps, config, &rng);
  graph::AdjacencyMatrix before = model.CurrentAdjacency();
  Rng data_rng(21);
  ts::WindowDataset ds;
  ds.inputs = Tensor::Uniform(Shape{10, kSteps, kVars}, -1, 1, &data_rng);
  ds.targets = Tensor::Uniform(Shape{10, kVars}, -1, 1, &data_rng);
  core::TrainConfig tc;
  tc.epochs = 10;
  core::TrainForecaster(&model, ds, tc);
  graph::AdjacencyMatrix after = model.CurrentAdjacency();
  EXPECT_FALSE(before == after);
}

}  // namespace
}  // namespace emaf::models
