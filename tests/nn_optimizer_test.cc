#include <cmath>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "nn/optimizer.h"
#include "tensor/ops.h"

namespace emaf::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;

// Minimizes f(x) = sum((x - target)^2) and returns the final x.
template <typename MakeOptimizer>
Tensor Minimize(MakeOptimizer make, int steps) {
  Tensor x = Tensor::Full(Shape{3}, 5.0).SetRequiresGrad(true);
  Tensor target = Tensor::FromVector(Shape{3}, {1.0, -2.0, 0.5});
  auto optimizer = make(std::vector<Tensor*>{&x});
  for (int i = 0; i < steps; ++i) {
    optimizer->ZeroGrad();
    Tensor diff = tensor::Sub(x, target);
    tensor::Sum(tensor::Mul(diff, diff)).Backward();
    optimizer->Step();
  }
  return x.Clone();
}

TEST(SgdTest, ConvergesOnQuadratic) {
  Tensor x = Minimize(
      [](std::vector<Tensor*> p) {
        SgdOptions options;
        options.lr = 0.1;
        return std::make_unique<Sgd>(p, options);
      },
      200);
  EXPECT_NEAR(x.At({0}), 1.0, 1e-6);
  EXPECT_NEAR(x.At({1}), -2.0, 1e-6);
  EXPECT_NEAR(x.At({2}), 0.5, 1e-6);
}

TEST(SgdTest, MomentumAccelerates) {
  auto dist_after = [](double momentum) {
    Tensor x = Minimize(
        [momentum](std::vector<Tensor*> p) {
          SgdOptions options;
          options.lr = 0.01;
          options.momentum = momentum;
          return std::make_unique<Sgd>(p, options);
        },
        30);
    Tensor target = Tensor::FromVector(Shape{3}, {1.0, -2.0, 0.5});
    double total = 0.0;
    for (int64_t i = 0; i < 3; ++i) {
      double d = x.At({i}) - target.At({i});
      total += d * d;
    }
    return total;
  };
  EXPECT_LT(dist_after(0.9), dist_after(0.0));
}

TEST(SgdTest, SingleStepMatchesHandComputation) {
  Tensor x = Tensor::FromVector(Shape{1}, {2.0}).SetRequiresGrad(true);
  SgdOptions options;
  options.lr = 0.5;
  Sgd sgd({&x}, options);
  tensor::Sum(tensor::Mul(x, x)).Backward();  // grad = 2x = 4
  sgd.Step();
  EXPECT_DOUBLE_EQ(x.item(), 2.0 - 0.5 * 4.0);
}

TEST(SgdTest, WeightDecayShrinks) {
  Tensor x = Tensor::FromVector(Shape{1}, {1.0}).SetRequiresGrad(true);
  SgdOptions options;
  options.lr = 0.1;
  options.weight_decay = 1.0;
  Sgd sgd({&x}, options);
  // Loss contributing zero gradient: only decay acts.
  Tensor zero = tensor::Mul(x, Tensor::Zeros(Shape{1}));
  tensor::Sum(zero).Backward();
  sgd.Step();
  EXPECT_NEAR(x.item(), 0.9, 1e-12);
}

TEST(SgdTest, SkipsParametersWithoutGrad) {
  Tensor x = Tensor::FromVector(Shape{1}, {3.0}).SetRequiresGrad(true);
  SgdOptions options;
  Sgd sgd({&x}, options);
  sgd.Step();  // no backward happened
  EXPECT_DOUBLE_EQ(x.item(), 3.0);
}

TEST(AdamTest, ConvergesOnQuadratic) {
  Tensor x = Minimize(
      [](std::vector<Tensor*> p) {
        AdamOptions options;
        options.lr = 0.1;
        return std::make_unique<Adam>(p, options);
      },
      400);
  EXPECT_NEAR(x.At({0}), 1.0, 1e-3);
  EXPECT_NEAR(x.At({1}), -2.0, 1e-3);
  EXPECT_NEAR(x.At({2}), 0.5, 1e-3);
}

TEST(AdamTest, FirstStepIsLearningRateSized) {
  // Adam's bias correction makes the very first update ~ lr * sign(grad).
  Tensor x = Tensor::FromVector(Shape{1}, {10.0}).SetRequiresGrad(true);
  AdamOptions options;
  options.lr = 0.01;
  Adam adam({&x}, options);
  tensor::Sum(tensor::Mul(x, x)).Backward();
  adam.Step();
  EXPECT_NEAR(x.item(), 10.0 - 0.01, 1e-6);
}

TEST(AdamTest, ZeroGradClearsAccumulation) {
  Tensor x = Tensor::FromVector(Shape{1}, {1.0}).SetRequiresGrad(true);
  AdamOptions options;
  Adam adam({&x}, options);
  tensor::Sum(x.Detach().SetRequiresGrad(false).Clone()).Backward();
  adam.ZeroGrad();
  EXPECT_FALSE(x.grad().defined());
}

TEST(ClipGradNormTest, ScalesDownLargeGradients) {
  Tensor x = Tensor::FromVector(Shape{2}, {0.0, 0.0}).SetRequiresGrad(true);
  Tensor w = Tensor::FromVector(Shape{2}, {3.0, 4.0});
  tensor::Sum(tensor::Mul(x, w)).Backward();  // grad = (3, 4), norm 5
  double norm = ClipGradNorm({&x}, 1.0);
  EXPECT_NEAR(norm, 5.0, 1e-12);
  Tensor g = x.grad();
  EXPECT_NEAR(g.At({0}), 0.6, 1e-9);
  EXPECT_NEAR(g.At({1}), 0.8, 1e-9);
}

TEST(ClipGradNormTest, LeavesSmallGradientsAlone) {
  Tensor x = Tensor::FromVector(Shape{2}, {0.0, 0.0}).SetRequiresGrad(true);
  Tensor w = Tensor::FromVector(Shape{2}, {0.3, 0.4});
  tensor::Sum(tensor::Mul(x, w)).Backward();
  double norm = ClipGradNorm({&x}, 1.0);
  EXPECT_NEAR(norm, 0.5, 1e-12);
  EXPECT_NEAR(x.grad().At({0}), 0.3, 1e-12);
}

std::string HexFloat(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

// Each square is rounded before it is added: a contracted
// fma(g1, g1, g0 * g0) would give 0x1.0104e6083468fp+1 here.
TEST(GlobalGradNormTest, RoundsEachSquareBeforeAdding) {
  Tensor x = Tensor::FromVector(Shape{2}, {0.0, 0.0}).SetRequiresGrad(true);
  Tensor w = Tensor::FromVector(Shape{2}, {0x1.e17ap-1, 0x1.c62e591p+0});
  tensor::Sum(tensor::Mul(x, w)).Backward();  // grad = w exactly
  EXPECT_EQ(HexFloat(GlobalGradNorm({&x})), "0x1.0104e6083468ep+1");
  EXPECT_EQ(HexFloat(ClipGradNorm({&x}, 10.0)), "0x1.0104e6083468ep+1");
}

TEST(OptimizerDeathTest, RejectsNonGradParameters) {
  Tensor x = Tensor::Zeros(Shape{1});
  SgdOptions options;
  EXPECT_DEATH(Sgd({&x}, options), "grad");
}

}  // namespace
}  // namespace emaf::nn
