#include "layers.h"

#include <algorithm>
#include <cctype>

#include "common/rng.h"
#include "common/string_util.h"
#include "core/evaluator.h"
#include "core/trainer.h"
#include "graph/construction.h"
#include "models/var_forecaster.h"
#include "tensor/ops.h"
#include "ts/window.h"

namespace emafbench {

using emaf::Rng;
using emaf::StrCat;
using emaf::tensor::Shape;
using emaf::tensor::Tensor;

const std::vector<std::string>& Families() {
  static const std::vector<std::string> kFamilies = {"LSTM", "VAR", "A3TGCN",
                                                     "ASTGCN", "MTGNN"};
  return kFamilies;
}

std::string Lower(std::string text) {
  std::transform(text.begin(), text.end(), text.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return text;
}

emaf::models::ModelConfig FamilyConfig(
    const std::string& family, int64_t num_variables, int64_t input_length,
    const emaf::graph::AdjacencyMatrix& adjacency) {
  emaf::models::ModelConfig config;
  config.family = family;
  config.num_variables = num_variables;
  config.input_length = input_length;
  if (family != "LSTM" && family != "VAR") config.adjacency = adjacency;
  return config;
}

std::unique_ptr<emaf::models::Forecaster> TrainFamily(
    const emaf::models::ModelConfig& config,
    const emaf::ts::WindowDataset& train, int64_t epochs, uint64_t seed) {
  Rng rng(seed);
  std::unique_ptr<emaf::models::Forecaster> model =
      emaf::models::CreateForecasterOrDie(config, &rng);
  if (auto* var = dynamic_cast<emaf::models::VarForecaster*>(model.get())) {
    var->Fit(train.inputs, train.targets);
  } else {
    emaf::core::TrainConfig train_config;
    train_config.epochs = epochs;
    emaf::core::TrainForecaster(model.get(), train, train_config);
  }
  return model;
}

void ProbeKernels(const std::string& mode, int64_t batch, double budget_s,
                  SpanLog* spans, Result* result) {
  Span span(spans, StrCat("tensor.probe.", mode), 0);
  constexpr int64_t kV = 26, kL = 5, kC = 32, kHalf = 16, kK = 3;
  Rng rng(17);
  // Graph propagation of the mix-hop layer: [B, C, L, V] x [V, V].
  const Tensor features = Tensor::Uniform(Shape{batch, kC, kL, kV}, -1, 1, &rng);
  const Tensor operator_t = Tensor::Uniform(Shape{kV, kV}, 0, 1, &rng);
  // The width-3 dilated-inception branch on a left-padded window.
  const Tensor padded =
      Tensor::Uniform(Shape{batch, kC, kV, kL + kK - 1}, -1, 1, &rng);
  const Tensor weight = Tensor::Uniform(Shape{kHalf, kC, 1, kK}, -1, 1, &rng);
  const Tensor bias = Tensor::Uniform(Shape{kHalf}, -1, 1, &rng);
  // The layer-norm round trip's axis swap.
  const Tensor hidden = Tensor::Uniform(Shape{batch, kC, kV, kL}, -1, 1, &rng);

  const double share = budget_s / 3;
  const double matmul_us = MedianUs(
      [&] { (void)emaf::tensor::MatMul(features, operator_t); }, 5, share);
  const double conv_us = MedianUs(
      [&] {
        (void)emaf::tensor::Conv2d(padded, weight, bias,
                                   emaf::tensor::Conv2dOptions{});
      },
      5, share);
  const double permute_us = MedianUs(
      [&] { (void)emaf::tensor::Permute(hidden, {0, 1, 3, 2}); }, 5, share);

  const double b = static_cast<double>(batch);
  const double matmul_flops = 2 * b * kC * kL * kV * kV;
  const double matmul_bytes = 8 * (2 * b * kC * kL * kV + kV * kV);
  const double conv_flops = 2 * b * kHalf * kV * kL * kC * kK;
  const double conv_bytes = 8 * (b * kC * kV * (kL + kK - 1) +
                                 kHalf * kC * kK + kHalf + b * kHalf * kV * kL);
  const double permute_bytes = 8 * 2 * b * kC * kV * kL;
  // flops / (us * 1e3) = GFLOP/s; the same for bytes.
  result->Set(StrCat("tensor.matmul_us.", mode), matmul_us);
  result->Set(StrCat("tensor.conv2d_us.", mode), conv_us);
  result->Set(StrCat("tensor.permute_us.", mode), permute_us);
  result->Set(StrCat("tensor.matmul_gflops.", mode),
              matmul_flops / (matmul_us * 1e3));
  result->Set(StrCat("tensor.conv2d_gflops.", mode),
              conv_flops / (conv_us * 1e3));
  result->Set(StrCat("tensor.matmul_gbps.", mode),
              matmul_bytes / (matmul_us * 1e3));
  result->Set(StrCat("tensor.conv2d_gbps.", mode),
              conv_bytes / (conv_us * 1e3));
  result->Set(StrCat("tensor.permute_gbps.", mode),
              permute_bytes / (permute_us * 1e3));
  result->Detail(StrCat("kernels.", mode),
                 StrCat("batch=", batch, " matmul_flops=", matmul_flops,
                        " matmul_bytes=", matmul_bytes,
                        " conv2d_flops=", conv_flops,
                        " conv2d_bytes=", conv_bytes,
                        " permute_bytes=", permute_bytes));
}

void ProbeTraining(const emaf::data::Individual& person, int64_t input_length,
                   int64_t epochs, uint64_t seed, SpanLog* spans,
                   Result* result) {
  const emaf::data::IndividualSplit split =
      emaf::data::MakeSplit(person, input_length);
  emaf::graph::GraphBuildOptions options;
  const emaf::graph::AdjacencyMatrix adjacency = emaf::graph::KeepTopFraction(
      emaf::graph::BuildSimilarityGraph(person.observations, options), 0.2);
  std::unique_ptr<emaf::models::Forecaster> mtgnn;
  for (const std::string& family : Families()) {
    const emaf::models::ModelConfig config = FamilyConfig(
        family, person.num_variables(), input_length, adjacency);
    const Clock::time_point start = Clock::now();
    std::unique_ptr<emaf::models::Forecaster> model;
    {
      Span span(spans, "core.train", 0);
      model = TrainFamily(config, split.train, epochs, seed);
    }
    // VAR fits in closed form: its "epoch" is the whole fit.
    const double per_epoch =
        MsSince(start) / static_cast<double>(family == "VAR" ? 1 : epochs);
    result->Set(StrCat("core.train_epoch_ms.", Lower(family)), per_epoch);
    if (family == "MTGNN") mtgnn = std::move(model);
  }
  Span span(spans, "core.evaluate", 0);
  result->Set("core.evaluate_ms",
              MedianUs([&] { (void)emaf::core::EvaluateMse(mtgnn.get(), split.test); },
                       5, 0.2) /
                  1000);
}

void ProbeGraphBuilds(const emaf::data::Individual& person, int64_t dtw_window,
                      double budget_s, SpanLog* spans, Result* result) {
  const Tensor& data = person.observations;
  const int64_t rows = emaf::ts::SequentialSplitIndex(data.dim(0), 0.7);
  const Tensor train = emaf::tensor::Slice(data, 0, 0, rows);
  const std::pair<emaf::graph::GraphMetric, const char*> kMetrics[] = {
      {emaf::graph::GraphMetric::kEuclidean, "euc"},
      {emaf::graph::GraphMetric::kDtw, "dtw"},
      {emaf::graph::GraphMetric::kKnn, "knn"},
      {emaf::graph::GraphMetric::kCorrelation, "corr"}};
  for (const auto& [metric, name] : kMetrics) {
    emaf::graph::GraphBuildOptions options;
    options.metric = metric;
    options.dtw_window = dtw_window;
    Span span(spans, "graph.build", 0);
    result->Set(StrCat("graph.build_ms.", name),
                MedianUs([&] {
                  (void)emaf::graph::BuildSimilarityGraph(train, options);
                }, 3, budget_s / 4) / 1000);
  }
}

}  // namespace emafbench
