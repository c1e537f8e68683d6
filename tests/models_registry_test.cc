// models::registry tests: ModelConfig blob round-trips bit-exactly for all
// five families, CreateForecaster is byte-equivalent to the former inline
// construction sites (same Rng stream), and malformed configs are
// rejected with useful errors.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/adjacency.h"
#include "models/a3tgcn.h"
#include "models/astgcn.h"
#include "models/lstm_forecaster.h"
#include "models/mtgnn.h"
#include "models/registry.h"
#include "models/var_forecaster.h"
#include "tensor/autograd.h"
#include "tensor/ops.h"

namespace emaf::models {
namespace {

using tensor::Shape;
using tensor::Tensor;

constexpr int64_t kVars = 5;
constexpr int64_t kSteps = 3;

graph::AdjacencyMatrix TestGraph() {
  graph::AdjacencyMatrix adj(kVars);
  for (int64_t i = 0; i + 1 < kVars; ++i) {
    // Deliberately irrational-looking weights so adjacency round-tripping
    // is exercised on doubles without short decimal forms.
    adj.set(i, i + 1, 0.1 + static_cast<double>(i) / 3.0);
    adj.set(i + 1, i, 0.7 - static_cast<double>(i) / 7.0);
  }
  return adj;
}

ModelConfig BaseConfig(const std::string& family) {
  ModelConfig config;
  config.family = family;
  config.num_variables = kVars;
  config.input_length = kSteps;
  config.lstm.hidden_units = 8;
  config.a3tgcn.hidden_units = 8;
  config.astgcn.hidden_units = 8;
  config.astgcn.num_blocks = 2;
  config.mtgnn.residual_channels = 8;
  config.mtgnn.conv_channels = 8;
  config.mtgnn.skip_channels = 8;
  config.mtgnn.end_channels = 16;
  config.mtgnn.embedding_dim = 4;
  if (family != "LSTM" && family != "VAR") config.adjacency = TestGraph();
  return config;
}

std::vector<std::string> AllFamilies() {
  return {"LSTM", "VAR", "A3TGCN", "ASTGCN", "MTGNN"};
}

class RegistryFamilyTest : public ::testing::TestWithParam<std::string> {};

TEST_P(RegistryFamilyTest, ConfigBlobRoundTripsBitExactly) {
  ModelConfig config = BaseConfig(GetParam());
  config.lstm.dropout = 1.0 / 3.0;  // not exactly representable in decimal
  config.var.ridge = 0.123456789012345678;
  config.mtgnn.prop_beta = 1.0 / 7.0;
  std::string blob = SerializeModelConfig(config);
  Result<ModelConfig> parsed = ParseModelConfig(blob);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  // Blob equality is the config-equality contract: a second serialization
  // of the parsed config must be byte-identical.
  EXPECT_EQ(SerializeModelConfig(parsed.value()), blob);
}

TEST_P(RegistryFamilyTest, CreateProducesWorkingForecaster) {
  Rng rng(31);
  ModelConfig config = BaseConfig(GetParam());
  Result<std::unique_ptr<Forecaster>> model = CreateForecaster(config, &rng);
  ASSERT_TRUE(model.ok()) << model.status().message();
  EXPECT_EQ(model.value()->name(), GetParam());
  EXPECT_EQ(model.value()->num_variables(), kVars);
  EXPECT_EQ(model.value()->input_length(), kSteps);
  model.value()->SetTraining(false);
  Tensor window = Tensor::Zeros(Shape{4, kSteps, kVars});
  EXPECT_EQ(model.value()->Forward(window).shape(), (Shape{4, kVars}));
}

TEST_P(RegistryFamilyTest, ParsedConfigBuildsByteIdenticalModel) {
  ModelConfig config = BaseConfig(GetParam());
  std::string blob = SerializeModelConfig(config);
  Result<ModelConfig> parsed = ParseModelConfig(blob);
  ASSERT_TRUE(parsed.ok());
  Rng rng_a(32);
  Rng rng_b(32);
  std::unique_ptr<Forecaster> a = CreateForecasterOrDie(config, &rng_a);
  std::unique_ptr<Forecaster> b =
      CreateForecasterOrDie(parsed.value(), &rng_b);
  a->SetTraining(false);
  b->SetTraining(false);
  Rng data_rng(33);
  Tensor window = Tensor::Uniform(Shape{3, kSteps, kVars}, -1, 1, &data_rng);
  // The graph models bake the normalized adjacency operator into constants
  // at construction, so this only holds when the adjacency round-tripped
  // bit-exactly through the blob.
  EXPECT_EQ(a->Forward(window).ToVector(), b->Forward(window).ToVector());
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, RegistryFamilyTest,
                         ::testing::ValuesIn(AllFamilies()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

// --- Registry vs former inline construction ------------------------------

TEST(RegistryEquivalenceTest, LstmMatchesInlineConstruction) {
  ModelConfig config = BaseConfig("LSTM");
  Rng registry_rng(41);
  Rng inline_rng(41);
  std::unique_ptr<Forecaster> from_registry =
      CreateForecasterOrDie(config, &registry_rng);
  LstmForecaster inline_model(kVars, kSteps, config.lstm, &inline_rng);
  from_registry->SetTraining(false);
  inline_model.SetTraining(false);
  Rng data_rng(42);
  Tensor window = Tensor::Uniform(Shape{3, kSteps, kVars}, -1, 1, &data_rng);
  EXPECT_EQ(from_registry->Forward(window).ToVector(),
            inline_model.Forward(window).ToVector());
}

TEST(RegistryEquivalenceTest, MtgnnMatchesInlineConstruction) {
  ModelConfig config = BaseConfig("MTGNN");
  Rng registry_rng(43);
  Rng inline_rng(43);
  std::unique_ptr<Forecaster> from_registry =
      CreateForecasterOrDie(config, &registry_rng);
  graph::AdjacencyMatrix adj = TestGraph();
  Mtgnn inline_model(&adj, kVars, kSteps, config.mtgnn, &inline_rng);
  from_registry->SetTraining(false);
  inline_model.SetTraining(false);
  Rng data_rng(44);
  Tensor window = Tensor::Uniform(Shape{3, kSteps, kVars}, -1, 1, &data_rng);
  EXPECT_EQ(from_registry->Forward(window).ToVector(),
            inline_model.Forward(window).ToVector());
}

// --- VAR adapter ----------------------------------------------------------

TEST(VarForecasterTest, FitPreservesParameterPointers) {
  VarForecaster model(kVars, kSteps, VarConfig{});
  Tensor* before = model.NamedParameters().front().value;
  Rng data_rng(52);
  Tensor inputs = Tensor::Uniform(Shape{10, kSteps, kVars}, -1, 1, &data_rng);
  Tensor targets = Tensor::Uniform(Shape{10, kVars}, -1, 1, &data_rng);
  model.Fit(inputs, targets);
  // Fit must write coefficients in place: serialization and optimizers
  // hold NamedParameters pointers across calls.
  EXPECT_EQ(model.NamedParameters().front().value, before);
}

TEST(VarForecasterTest, UnfitModelForecastsZeros) {
  VarForecaster model(kVars, kSteps, VarConfig{});
  tensor::NoGradGuard guard;
  Tensor out = model.Forward(Tensor::Ones(Shape{2, kSteps, kVars}));
  for (double v : out.ToVector()) EXPECT_EQ(v, 0.0);
}

// --- Error paths ----------------------------------------------------------

TEST(RegistryErrorTest, UnknownFamilyIsRejected) {
  ModelConfig config = BaseConfig("LSTM");
  config.family = "TRANSFORMER";
  Rng rng(61);
  EXPECT_EQ(CreateForecaster(config, &rng).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(RegistryErrorTest, GraphModelsRequireAdjacency) {
  for (const std::string family : {"A3TGCN", "ASTGCN"}) {
    ModelConfig config = BaseConfig(family);
    config.adjacency.reset();
    Rng rng(62);
    EXPECT_EQ(CreateForecaster(config, &rng).status().code(),
              StatusCode::kInvalidArgument)
        << family;
  }
}

TEST(RegistryErrorTest, MtgnnWithoutGraphLearningRequiresAdjacency) {
  ModelConfig config = BaseConfig("MTGNN");
  config.mtgnn.use_graph_learning = false;
  config.adjacency.reset();
  Rng rng(63);
  EXPECT_EQ(CreateForecaster(config, &rng).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(RegistryErrorTest, AdjacencySizeMustMatchNumVariables) {
  ModelConfig config = BaseConfig("A3TGCN");
  config.adjacency = graph::AdjacencyMatrix(kVars + 1);
  Rng rng(64);
  EXPECT_EQ(CreateForecaster(config, &rng).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(RegistryErrorTest, NonPositiveDimensionsAreRejected) {
  ModelConfig config = BaseConfig("LSTM");
  config.input_length = 0;
  Rng rng(65);
  EXPECT_EQ(CreateForecaster(config, &rng).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(RegistryErrorTest, ParseRejectsUnknownKey) {
  std::string blob = SerializeModelConfig(BaseConfig("LSTM"));
  blob += "mystery_knob=1\n";
  EXPECT_EQ(ParseModelConfig(blob).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(RegistryErrorTest, ParseRejectsGarbage) {
  EXPECT_FALSE(ParseModelConfig("not a config").ok());
}

}  // namespace
}  // namespace emaf::models
