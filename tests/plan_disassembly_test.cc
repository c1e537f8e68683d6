// Golden IR gate for compiled plans: the text disassembly of a seeded
// LSTM plan and a seeded MTGNN plan must match tests/golden/plan_lstm.txt
// and tests/golden/plan_mtgnn.txt BYTE FOR BYTE. Instruction selection,
// constant folding, dead-code elimination and register/release assignment
// all land in these bytes, so compiler drift is a reviewable diff instead of
// a silent perf (or correctness) change.
//
// Updating after an intentional compiler change:
//   ./plan_disassembly_test --update-golden
// or EMAF_UPDATE_GOLDEN=1, then commit the rewritten files.

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/adjacency.h"
#include "models/registry.h"
#include "plan/disassembler.h"
#include "plan/recorder.h"
#include "tensor/tensor.h"

namespace emaf::plan {

bool update_golden = false;  // set by main() below

namespace {

using tensor::Shape;
using tensor::Tensor;

#ifndef EMAF_GOLDEN_DIR
#error "tests/CMakeLists.txt must define EMAF_GOLDEN_DIR"
#endif

std::string GoldenPath(const std::string& name) {
  return std::string(EMAF_GOLDEN_DIR) + "/plan_" + name + ".txt";
}

std::string ReadGolden(const std::string& name) {
  std::ifstream in(GoldenPath(name), std::ios::binary);
  if (!in.is_open()) return "";
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Same tiny geometry the serving tests use (5 variables, 3 steps), fixed
// forever: these plans exist to pin the compiler, not the models.
models::ModelConfig GoldenConfig(const std::string& family) {
  models::ModelConfig config;
  config.family = family;
  config.num_variables = 5;
  config.input_length = 3;
  config.lstm.hidden_units = 8;
  config.mtgnn.residual_channels = 8;
  config.mtgnn.conv_channels = 8;
  config.mtgnn.skip_channels = 8;
  config.mtgnn.end_channels = 16;
  config.mtgnn.embedding_dim = 4;
  if (family == "MTGNN") {
    graph::AdjacencyMatrix adjacency(5);
    for (int64_t i = 0; i + 1 < 5; ++i) {
      adjacency.set(i, i + 1, 0.1 + static_cast<double>(i) / 3.0);
      adjacency.set(i + 1, i, 0.7 - static_cast<double>(i) / 7.0);
    }
    config.adjacency = adjacency;
  }
  return config;
}

void CheckGolden(const std::string& family, const std::string& name) {
  models::ModelConfig config = GoldenConfig(family);
  Rng rng(2024);
  std::unique_ptr<models::Forecaster> model =
      models::CreateForecasterOrDie(config, &rng);
  model->SetTraining(false);
  Rng window_rng(20240806);
  Tensor window = Tensor::Uniform(Shape{2, 3, 5}, -1, 1, &window_rng);

  Result<std::shared_ptr<const Plan>> compiled = Compile(model.get(), window);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  std::string text = Disassemble(*compiled.value());

  if (update_golden) {
    std::ofstream out(GoldenPath(name), std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.is_open()) << "cannot write " << GoldenPath(name);
    out << text;
    ASSERT_TRUE(out.good());
    std::cout << "[golden] rewrote " << GoldenPath(name) << "\n";
  }
  std::string golden = ReadGolden(name);
  ASSERT_FALSE(golden.empty())
      << "missing " << GoldenPath(name)
      << " — run ./plan_disassembly_test --update-golden and commit it";
  EXPECT_EQ(text, golden) << family
                          << " plan disassembly diverged from golden file";
}

TEST(PlanDisassembly, LstmMatchesGolden) { CheckGolden("LSTM", "lstm"); }

TEST(PlanDisassembly, MtgnnMatchesGolden) { CheckGolden("MTGNN", "mtgnn"); }

// Compiling the same model twice must produce identical text — the
// disassembly (and thus the golden gate) is deterministic by design.
TEST(PlanDisassembly, Deterministic) {
  models::ModelConfig config = GoldenConfig("LSTM");
  Rng rng(2024);
  std::unique_ptr<models::Forecaster> model =
      models::CreateForecasterOrDie(config, &rng);
  model->SetTraining(false);
  Rng window_rng(20240806);
  Tensor window = Tensor::Uniform(Shape{2, 3, 5}, -1, 1, &window_rng);
  Result<std::shared_ptr<const Plan>> first = Compile(model.get(), window);
  Result<std::shared_ptr<const Plan>> second = Compile(model.get(), window);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(Disassemble(*first.value()), Disassemble(*second.value()));
}

}  // namespace
}  // namespace emaf::plan

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--update-golden") == 0) {
      emaf::plan::update_golden = true;
    }
  }
  const char* env = std::getenv("EMAF_UPDATE_GOLDEN");
  if (env != nullptr && std::string(env) == "1") {
    emaf::plan::update_golden = true;
  }
  return RUN_ALL_TESTS();
}
