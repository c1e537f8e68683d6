#include <memory>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/evaluator.h"
#include "models/var_forecaster.h"
#include "tensor/ops.h"

namespace emaf::models {
namespace {

using tensor::Shape;
using tensor::Tensor;

TEST(SolveSpdTest, SolvesKnownSystem) {
  // A = [[4, 1], [1, 3]], b = [[1], [2]] -> x = [1/11, 7/11].
  Tensor a = Tensor::FromVector(Shape{2, 2}, {4, 1, 1, 3});
  Tensor b = Tensor::FromVector(Shape{2, 1}, {1, 2});
  Tensor x = SolveSpd(a, b);
  EXPECT_NEAR(x.At({0, 0}), 1.0 / 11.0, 1e-12);
  EXPECT_NEAR(x.At({1, 0}), 7.0 / 11.0, 1e-12);
}

TEST(SolveSpdTest, IdentitySystem) {
  Tensor b = Tensor::FromVector(Shape{3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor x = SolveSpd(Tensor::Eye(3), b);
  EXPECT_EQ(x.ToVector(), b.ToVector());
}

TEST(SolveSpdTest, MultipleRightHandSides) {
  Rng rng(1);
  // Build an SPD matrix A = M M^T + I.
  Tensor m = Tensor::Uniform(Shape{4, 4}, -1, 1, &rng);
  Tensor a = tensor::Add(tensor::MatMul(m, tensor::TransposeLast2(m)),
                         Tensor::Eye(4));
  Tensor b = Tensor::Uniform(Shape{4, 3}, -1, 1, &rng);
  Tensor x = SolveSpd(a, b);
  Tensor reconstructed = tensor::MatMul(a, x);
  for (int64_t i = 0; i < b.NumElements(); ++i) {
    EXPECT_NEAR(reconstructed.data()[i], b.data()[i], 1e-9);
  }
}

TEST(SolveSpdDeathTest, NonPositiveDefinite) {
  Tensor a = Tensor::FromVector(Shape{2, 2}, {1, 2, 2, 1});  // eigenvalue -1
  Tensor b = Tensor::Zeros(Shape{2, 1});
  EXPECT_DEATH(SolveSpd(a, b), "positive definite");
}

// Fits a VAR on inputs [B, L, V] -> targets [B, V] with the given ridge.
std::unique_ptr<VarForecaster> FitVar(const Tensor& inputs,
                                      const Tensor& targets, double ridge) {
  VarConfig config;
  config.ridge = ridge;
  auto var = std::make_unique<VarForecaster>(inputs.dim(2), inputs.dim(1),
                                             config);
  var->Fit(inputs, targets);
  return var;
}

TEST(VarForecasterTest, RecoversExactLinearSystem) {
  // Targets generated by a known linear map of the flattened window.
  Rng rng(2);
  int64_t batch = 40;
  int64_t steps = 2;
  int64_t vars = 3;
  Tensor inputs = Tensor::Uniform(Shape{batch, steps, vars}, -1, 1, &rng);
  Tensor coeff = Tensor::Uniform(Shape{steps * vars, vars}, -1, 1, &rng);
  Tensor flat = tensor::Reshape(inputs, Shape{batch, steps * vars});
  Tensor targets = tensor::AddScalar(tensor::MatMul(flat, coeff), 0.5);

  // Nearly unregularized.
  std::unique_ptr<VarForecaster> var = FitVar(inputs, targets, 1e-8);
  Tensor pred = core::Predict(var.get(), inputs);
  EXPECT_LT(core::MseBetween(pred, targets), 1e-10);
}

TEST(VarForecasterTest, InterceptOnlyForConstantTargets) {
  Rng rng(3);
  Tensor inputs = Tensor::Uniform(Shape{30, 1, 2}, -1, 1, &rng);
  Tensor targets = Tensor::Full(Shape{30, 2}, 3.0);
  // Heavy ridge still fits via the free intercept.
  std::unique_ptr<VarForecaster> var = FitVar(inputs, targets, 10.0);
  Tensor pred = core::Predict(var.get(), inputs);
  EXPECT_LT(core::MseBetween(pred, targets), 1e-4);
}

TEST(VarForecasterTest, RidgeShrinksCoefficients) {
  Rng rng(4);
  Tensor inputs = Tensor::Uniform(Shape{20, 1, 3}, -1, 1, &rng);
  Tensor targets = Tensor::Uniform(Shape{20, 3}, -1, 1, &rng);
  std::unique_ptr<VarForecaster> weak = FitVar(inputs, targets, 1e-6);
  std::unique_ptr<VarForecaster> strong = FitVar(inputs, targets, 1000.0);
  auto norm = [](const Tensor& t) {
    // Exclude the intercept row.
    double total = 0.0;
    for (int64_t f = 0; f + 1 < t.dim(0); ++f) {
      for (int64_t v = 0; v < t.dim(1); ++v) {
        total += t.At({f, v}) * t.At({f, v});
      }
    }
    return total;
  };
  EXPECT_LT(norm(strong->coefficients()), 0.1 * norm(weak->coefficients()));
}

TEST(VarForecasterTest, FitAndForecastValidateShape) {
  Rng rng(5);
  Tensor inputs = Tensor::Uniform(Shape{10, 2, 3}, -1, 1, &rng);
  Tensor targets = Tensor::Uniform(Shape{10, 3}, -1, 1, &rng);
  std::unique_ptr<VarForecaster> var = FitVar(inputs, targets, 1.0);
  EXPECT_DEATH(core::Predict(var.get(), Tensor::Zeros(Shape{5, 3, 3})), "");
  EXPECT_DEATH(core::Predict(var.get(), Tensor::Zeros(Shape{5, 2, 4})), "");
  EXPECT_DEATH(var->Fit(inputs, Tensor::Zeros(Shape{10, 4})), "");
}

}  // namespace
}  // namespace emaf::models
