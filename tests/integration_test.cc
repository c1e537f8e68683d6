// End-to-end pipeline tests: synthetic cohort -> graphs -> personalized
// training -> evaluation, mirroring the paper's workflow (Fig. 1 / Fig. 2)
// at toy scale.

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/report.h"
#include "data/csv.h"
#include "graph/metrics.h"
#include "nn/serialize.h"
#include "models/mtgnn.h"
#include "models/var_forecaster.h"

namespace emaf {
namespace {

core::ExperimentConfig SmallConfig() {
  core::ExperimentConfig config;
  config.generator.num_individuals = 2;
  config.generator.num_variables = 8;
  config.generator.days = 14;
  config.generator.seed = 31;
  config.train.epochs = 25;
  config.lstm.hidden_units = 8;
  config.a3tgcn.hidden_units = 8;
  config.astgcn.hidden_units = 8;
  config.astgcn.num_blocks = 1;
  config.mtgnn.residual_channels = 8;
  config.mtgnn.conv_channels = 8;
  config.mtgnn.skip_channels = 8;
  config.mtgnn.end_channels = 8;
  config.mtgnn.embedding_dim = 4;
  config.seed = 7;
  return config;
}

TEST(IntegrationTest, MiniExperimentAProducesTable) {
  core::ExperimentConfig config = SmallConfig();
  core::ExperimentRunner runner(data::GenerateCohort(config.generator),
                                config);
  core::TablePrinter table({"Model", "Seq2"});
  for (core::ModelKind model :
       {core::ModelKind::kLstm, core::ModelKind::kMtgnn}) {
    core::CellSpec spec;
    spec.model = model;
    spec.metric = graph::GraphMetric::kCorrelation;
    spec.input_length = 2;
    core::CellResult result = runner.RunCellOrDie(spec);
    table.AddRow({spec.Label(), core::FormatMeanStd(result.stats)});
    EXPECT_TRUE(std::isfinite(result.stats.mean));
    EXPECT_GT(result.stats.mean, 0.0);
    EXPECT_LT(result.stats.mean, 10.0);  // sane scale on z-scored data
  }
  std::string text = table.ToString();
  EXPECT_NE(text.find("LSTM"), std::string::npos);
  EXPECT_NE(text.find("MTGNN_CORR"), std::string::npos);
}

TEST(IntegrationTest, LearnedGraphPipelineExperimentC) {
  core::ExperimentConfig config = SmallConfig();
  core::ExperimentRunner runner(data::GenerateCohort(config.generator),
                                config);
  // Static vs learned comparison, paired per individual.
  core::CellSpec static_spec;
  static_spec.model = core::ModelKind::kAstgcn;
  static_spec.metric = graph::GraphMetric::kCorrelation;
  static_spec.input_length = 2;
  core::CellResult static_result = runner.RunCellOrDie(static_spec);

  core::CellSpec learned_spec = static_spec;
  learned_spec.use_learned_graph = true;
  core::CellResult learned_result = runner.RunCellOrDie(learned_spec);

  double change = core::ExperimentRunner::MeanRelativeChangePercent(
      static_result, learned_result);
  EXPECT_TRUE(std::isfinite(change));
  // The learned and static graphs should be positively related (the paper
  // reports ~0.88 correlation at full scale).
  const core::LearnedGraphSet& learned =
      runner.LearnedGraphsOrDie(graph::GraphMetric::kCorrelation, 0.2, 2);
  EXPECT_GT(learned.mean_static_correlation, 0.0);
}

TEST(IntegrationTest, VarForecasterRunsOnCohortData) {
  core::ExperimentConfig config = SmallConfig();
  data::Cohort cohort = data::GenerateCohort(config.generator);
  const data::Individual& person = cohort.individuals[0];
  data::IndividualSplit split = data::MakeSplit(person, 2);
  models::VarConfig var_config;
  var_config.ridge = 5.0;
  models::VarForecaster var(person.num_variables(), 2, var_config);
  var.Fit(split.train.inputs, split.train.targets);
  double mse = core::EvaluateMse(&var, split.test);
  EXPECT_TRUE(std::isfinite(mse));
  EXPECT_GT(mse, 0.0);
}

TEST(IntegrationTest, CohortCsvRoundTripFeedsPipeline) {
  // Export an individual to CSV, re-import, and verify the splits match.
  core::ExperimentConfig config = SmallConfig();
  data::Cohort cohort = data::GenerateCohort(config.generator);
  std::string path = std::string(::testing::TempDir()) + "/indiv.csv";
  ASSERT_TRUE(data::SaveIndividualCsv(cohort.individuals[0],
                                      cohort.variable_names, path)
                  .ok());
  Result<data::Individual> loaded = data::LoadIndividualCsv("reload", path);
  ASSERT_TRUE(loaded.ok());
  data::IndividualSplit original = data::MakeSplit(cohort.individuals[0], 2);
  data::IndividualSplit reloaded = data::MakeSplit(loaded.value(), 2);
  EXPECT_EQ(original.train.inputs.ToVector(),
            reloaded.train.inputs.ToVector());
  EXPECT_EQ(original.test.targets.ToVector(),
            reloaded.test.targets.ToVector());
}

TEST(IntegrationTest, MtgnnCheckpointRoundTrip) {
  // Train briefly, save, reload into a fresh model, verify identical
  // predictions and identical exported graphs.
  core::ExperimentConfig config = SmallConfig();
  data::Cohort cohort = data::GenerateCohort(config.generator);
  const data::Individual& person = cohort.individuals[0];
  data::IndividualSplit split = data::MakeSplit(person, 2);
  core::ExperimentRunner runner(cohort, config);
  graph::AdjacencyMatrix adj =
      runner.BuildStaticGraph(0, graph::GraphMetric::kCorrelation, 0.4);

  Rng rng_a(1);
  models::Mtgnn model(&adj, person.num_variables(), 2, config.mtgnn, &rng_a);
  core::TrainForecaster(&model, split.train, config.train);
  std::string path = std::string(::testing::TempDir()) + "/mtgnn.ckpt";
  ASSERT_TRUE(nn::SaveParameters(&model, path).ok());

  Rng rng_b(2);
  models::Mtgnn restored(&adj, person.num_variables(), 2, config.mtgnn,
                         &rng_b);
  ASSERT_TRUE(nn::LoadParameters(&restored, path).ok());
  model.SetTraining(false);
  restored.SetTraining(false);
  EXPECT_EQ(model.Forward(split.test.inputs).ToVector(),
            restored.Forward(split.test.inputs).ToVector());
  EXPECT_EQ(model.CurrentAdjacency(), restored.CurrentAdjacency());
}

TEST(IntegrationTest, GraphBuildersRecoverGroundTruthBetterThanRandom) {
  data::GeneratorConfig gen;
  gen.num_variables = 10;
  gen.days = 28;
  gen.seed = 5;
  gen.compliance_mean = 1.0;
  gen.compliance_spread = 0.0;
  double corr_f1 = 0.0;
  double rand_f1 = 0.0;
  Rng rng(77);
  for (int64_t i = 0; i < 4; ++i) {
    data::Individual person = data::GenerateIndividual(gen, i);
    graph::GraphBuildOptions options;
    options.metric = graph::GraphMetric::kCorrelation;
    graph::AdjacencyMatrix corr =
        graph::BuildSimilarityGraph(person.observations, options);
    corr_f1 += graph::ScoreEdgeRecovery(corr, *person.ground_truth_network).f1;
    graph::AdjacencyMatrix random = graph::RandomGraphWithEdgeCount(
        10, person.ground_truth_network->NumUndirectedEdges(), &rng);
    rand_f1 +=
        graph::ScoreEdgeRecovery(random, *person.ground_truth_network).f1;
  }
  EXPECT_GT(corr_f1, rand_f1);
}

}  // namespace
}  // namespace emaf
