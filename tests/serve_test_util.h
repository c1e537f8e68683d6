// Shared fixture helpers for the serving-layer suites: build a directory
// of tiny *untrained* LSTM snapshots — construction is
// deterministic per id, and byte-identity assertions don't care about fit
// quality — plus the ground-truth predictions a correctly served model
// must reproduce byte for byte, and serve one request in process.

#ifndef EMAF_TESTS_SERVE_TEST_UTIL_H_
#define EMAF_TESTS_SERVE_TEST_UTIL_H_

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/evaluator.h"
#include "models/registry.h"
#include "serve/forecast_op.h"
#include "serve/model_store.h"
#include "tensor/arena.h"
#include "tensor/tensor.h"

namespace emaf::serve::testutil {

inline constexpr int64_t kTinyVars = 3;
inline constexpr int64_t kTinySteps = 2;

inline models::ModelConfig TinyLstmConfig() {
  models::ModelConfig config;
  config.family = "LSTM";
  config.num_variables = kTinyVars;
  config.input_length = kTinySteps;
  config.lstm.hidden_units = 4;
  return config;
}

// A fixed request window [1, kTinySteps, kTinyVars].
inline tensor::Tensor TinyWindow() {
  Rng rng(20240806);
  return tensor::Tensor::Uniform(
      tensor::Shape{1, kTinySteps, kTinyVars}, -1, 1, &rng);
}

// Writes one tiny snapshot per id into `dir` (created fresh) and returns
// the prediction bytes each id must serve for TinyWindow().
inline std::map<std::string, std::vector<double>> MakeTinySnapshotDir(
    const std::string& dir, const std::vector<std::string>& ids) {
  namespace fs = std::filesystem;
  fs::remove_all(dir);
  EXPECT_TRUE(fs::create_directories(dir));
  tensor::Tensor window = TinyWindow();
  std::map<std::string, std::vector<double>> expected;
  uint64_t seed = 1000;
  for (const std::string& id : ids) {
    models::ModelConfig config = TinyLstmConfig();
    Rng rng(seed++);
    std::unique_ptr<models::Forecaster> model =
        models::CreateForecasterOrDie(config, &rng);
    expected[id] = core::Predict(model.get(), window).ToVector();
    Status saved = models::SaveForecasterSnapshot(
        model.get(), config, dir + "/" + id + ".snapshot");
    EXPECT_TRUE(saved.ok()) << saved.ToString();
  }
  return expected;
}

// One in-process request the way the server's scheduler runs it: pin the
// model, then execute it through its compiled-plan cache or, with
// `use_plans` off, the module path. `arena` may be null.
inline Result<tensor::Tensor> Serve(ModelStore* store,
                                    tensor::InferenceArena* arena,
                                    const std::string& id,
                                    const tensor::Tensor& window,
                                    bool use_plans = true) {
  Result<ModelHandle> handle = store->Get(id);
  if (!handle.ok()) return handle.status();
  return ExecuteForecast(handle.value().get(), id, window, arena,
                         use_plans ? handle.value().plans() : nullptr);
}

}  // namespace emaf::serve::testutil

#endif  // EMAF_TESTS_SERVE_TEST_UTIL_H_
