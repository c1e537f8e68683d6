#include <gtest/gtest.h>

#include "common/rng.h"
#include "tensor/grad_check.h"
#include "tensor/ops.h"

namespace emaf::tensor {
namespace {

TEST(ReshapeTest, PreservesValuesSharesStorage) {
  Tensor a = Tensor::FromVector(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Reshape(a, Shape{3, 2});
  EXPECT_EQ(b.ToVector(), a.ToVector());
  b.data()[0] = 100;
  EXPECT_EQ(a.At({0, 0}), 100);  // view semantics
}

TEST(ReshapeDeathTest, ElementCountMustMatch) {
  Tensor a = Tensor::Zeros(Shape{2, 3});
  EXPECT_DEATH(Reshape(a, Shape{7}), "reshape");
}

TEST(ReshapeTest, GradFlowsThrough) {
  Tensor x = Tensor::FromVector(Shape{2, 2}, {1, 2, 3, 4}).SetRequiresGrad(true);
  Sum(Mul(Reshape(x, Shape{4}), Tensor::FromVector(Shape{4}, {1, 2, 3, 4})))
      .Backward();
  EXPECT_EQ(x.grad().ToVector(), (std::vector<double>{1, 2, 3, 4}));
  EXPECT_EQ(x.grad().shape(), (Shape{2, 2}));
}

TEST(PermuteTest, TransposesMatrix) {
  Tensor a = Tensor::FromVector(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor t = Permute(a, {1, 0});
  EXPECT_EQ(t.shape(), (Shape{3, 2}));
  EXPECT_EQ(t.ToVector(), (std::vector<double>{1, 4, 2, 5, 3, 6}));
}

TEST(PermuteTest, ThreeAxisRotation) {
  Tensor a = Tensor::Arange(24);
  a = Reshape(a, Shape{2, 3, 4});
  Tensor p = Permute(a, {2, 0, 1});
  EXPECT_EQ(p.shape(), (Shape{4, 2, 3}));
  EXPECT_EQ(p.At({1, 0, 2}), a.At({0, 2, 1}));
  EXPECT_EQ(p.At({3, 1, 0}), a.At({1, 0, 3}));
}

TEST(PermuteTest, NegativeAxes) {
  Tensor a = Tensor::Zeros(Shape{2, 3, 4});
  Tensor p = Permute(a, {-1, 0, 1});
  EXPECT_EQ(p.shape(), (Shape{4, 2, 3}));
}

TEST(PermuteDeathTest, DuplicateAxis) {
  Tensor a = Tensor::Zeros(Shape{2, 3});
  EXPECT_DEATH(Permute(a, {0, 0}), "duplicate");
}

TEST(PermuteTest, RoundTripGrad) {
  Rng rng(7);
  Tensor x = Tensor::Uniform(Shape{2, 3, 4}, -1, 1, &rng);
  Tensor w = Tensor::Uniform(Shape{4, 2, 3}, -1, 1, &rng);
  GradCheckResult r = CheckGradients(
      [&](const std::vector<Tensor>& in) {
        return Sum(Mul(Permute(in[0], {2, 0, 1}), w));
      },
      {x});
  EXPECT_TRUE(r.ok) << r.max_error;
}

TEST(TransposeTest, SwapsTwoAxes) {
  Tensor a = Tensor::Zeros(Shape{2, 3, 4});
  EXPECT_EQ(Transpose(a, 0, 2).shape(), (Shape{4, 3, 2}));
  EXPECT_EQ(TransposeLast2(a).shape(), (Shape{2, 4, 3}));
}

TEST(SqueezeUnsqueezeTest, Shapes) {
  Tensor a = Tensor::Zeros(Shape{2, 1, 3});
  EXPECT_EQ(Squeeze(a, 1).shape(), (Shape{2, 3}));
  EXPECT_EQ(Unsqueeze(a, 0).shape(), (Shape{1, 2, 1, 3}));
  EXPECT_EQ(Unsqueeze(a, 3).shape(), (Shape{2, 1, 3, 1}));
  EXPECT_EQ(Unsqueeze(a, -1).shape(), (Shape{2, 1, 3, 1}));
}

TEST(SqueezeDeathTest, NonUnitAxis) {
  Tensor a = Tensor::Zeros(Shape{2, 3});
  EXPECT_DEATH(Squeeze(a, 1), "non-unit");
}

TEST(SliceTest, MiddleOfAxis) {
  Tensor a = Tensor::FromVector(Shape{4}, {0, 1, 2, 3});
  EXPECT_EQ(Slice(a, 0, 1, 3).ToVector(), (std::vector<double>{1, 2}));
}

TEST(SliceTest, InnerAxis) {
  Tensor a = Tensor::FromVector(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor s = Slice(a, 1, 0, 2);
  EXPECT_EQ(s.shape(), (Shape{2, 2}));
  EXPECT_EQ(s.ToVector(), (std::vector<double>{1, 2, 4, 5}));
}

TEST(SliceTest, NegativeIndices) {
  Tensor a = Tensor::FromVector(Shape{4}, {0, 1, 2, 3});
  EXPECT_EQ(Slice(a, 0, -2, 4).ToVector(), (std::vector<double>{2, 3}));
}

TEST(SliceTest, GradScattersIntoRegion) {
  Tensor x = Tensor::Zeros(Shape{4}).SetRequiresGrad(true);
  Sum(Slice(x, 0, 1, 3)).Backward();
  EXPECT_EQ(x.grad().ToVector(), (std::vector<double>{0, 1, 1, 0}));
}

TEST(SelectTest, DropsAxis) {
  Tensor a = Tensor::FromVector(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor row = Select(a, 0, 1);
  EXPECT_EQ(row.shape(), (Shape{3}));
  EXPECT_EQ(row.ToVector(), (std::vector<double>{4, 5, 6}));
  Tensor col = Select(a, 1, -1);
  EXPECT_EQ(col.ToVector(), (std::vector<double>{3, 6}));
}

TEST(CatTest, FirstAxis) {
  Tensor a = Tensor::FromVector(Shape{1, 2}, {1, 2});
  Tensor b = Tensor::FromVector(Shape{2, 2}, {3, 4, 5, 6});
  Tensor c = Cat({a, b}, 0);
  EXPECT_EQ(c.shape(), (Shape{3, 2}));
  EXPECT_EQ(c.ToVector(), (std::vector<double>{1, 2, 3, 4, 5, 6}));
}

TEST(CatTest, InnerAxis) {
  Tensor a = Tensor::FromVector(Shape{2, 1}, {1, 2});
  Tensor b = Tensor::FromVector(Shape{2, 2}, {3, 4, 5, 6});
  Tensor c = Cat({a, b}, 1);
  EXPECT_EQ(c.shape(), (Shape{2, 3}));
  EXPECT_EQ(c.ToVector(), (std::vector<double>{1, 3, 4, 2, 5, 6}));
}

TEST(CatDeathTest, MismatchedShapes) {
  Tensor a = Tensor::Zeros(Shape{2, 2});
  Tensor b = Tensor::Zeros(Shape{3, 3});
  EXPECT_DEATH(Cat({a, b}, 0), "");
}

TEST(CatTest, GradSplitsBack) {
  Tensor a = Tensor::Zeros(Shape{2}).SetRequiresGrad(true);
  Tensor b = Tensor::Zeros(Shape{3}).SetRequiresGrad(true);
  Tensor weights = Tensor::FromVector(Shape{5}, {1, 2, 3, 4, 5});
  Sum(Mul(Cat({a, b}, 0), weights)).Backward();
  EXPECT_EQ(a.grad().ToVector(), (std::vector<double>{1, 2}));
  EXPECT_EQ(b.grad().ToVector(), (std::vector<double>{3, 4, 5}));
}

TEST(StackTest, NewAxis) {
  Tensor a = Tensor::FromVector(Shape{2}, {1, 2});
  Tensor b = Tensor::FromVector(Shape{2}, {3, 4});
  Tensor s0 = Stack({a, b}, 0);
  EXPECT_EQ(s0.shape(), (Shape{2, 2}));
  EXPECT_EQ(s0.ToVector(), (std::vector<double>{1, 2, 3, 4}));
  Tensor s1 = Stack({a, b}, 1);
  EXPECT_EQ(s1.shape(), (Shape{2, 2}));
  EXPECT_EQ(s1.ToVector(), (std::vector<double>{1, 3, 2, 4}));
}

TEST(PadTest, ZeroPads) {
  Tensor a = Tensor::FromVector(Shape{1, 2}, {1, 2});
  Tensor p = Pad(a, {{0, 1}, {2, 0}});
  EXPECT_EQ(p.shape(), (Shape{2, 4}));
  EXPECT_EQ(p.ToVector(), (std::vector<double>{0, 0, 1, 2, 0, 0, 0, 0}));
}

TEST(PadTest, NoPaddingIsIdentity) {
  Tensor a = Tensor::FromVector(Shape{2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(Pad(a, {{0, 0}, {0, 0}}).ToVector(), a.ToVector());
}

TEST(PadTest, GradSlicesInterior) {
  Tensor x = Tensor::Zeros(Shape{2}).SetRequiresGrad(true);
  Tensor padded = Pad(x, {{1, 1}});
  Sum(Mul(padded, Tensor::FromVector(Shape{4}, {10, 1, 2, 10}))).Backward();
  EXPECT_EQ(x.grad().ToVector(), (std::vector<double>{1, 2}));
}

TEST(PadTest, GradOfPaddingSomeAxesOnly) {
  // MTGNN's causal pad: only the last axis is padded. Also no padding at
  // all, where the gradient passes straight through.
  Rng rng(3);
  Tensor x = Tensor::Uniform(Shape{2, 3, 2, 4}, -1, 1, &rng);
  Tensor w = Tensor::Uniform(Shape{2, 3, 2, 6}, -1, 1, &rng);
  EXPECT_TRUE(CheckGradients(
                  [w](const std::vector<Tensor>& in) {
                    return Sum(Mul(Pad(in[0], {{0, 0}, {0, 0}, {0, 0}, {2, 0}}),
                                   w));
                  },
                  {x})
                  .ok);
  EXPECT_TRUE(CheckGradients(
                  [](const std::vector<Tensor>& in) {
                    Tensor p = Pad(in[0], {{0, 0}, {0, 0}, {0, 0}, {0, 0}});
                    return Sum(Mul(p, Exp(in[0])));
                  },
                  {x})
                  .ok);
}

TEST(BroadcastToTest, ExpandsValues) {
  Tensor a = Tensor::FromVector(Shape{1, 2}, {1, 2});
  Tensor b = BroadcastTo(a, Shape{3, 2});
  EXPECT_EQ(b.ToVector(), (std::vector<double>{1, 2, 1, 2, 1, 2}));
}

TEST(BroadcastToTest, GradSumsBack) {
  Tensor x = Tensor::FromVector(Shape{2}, {0, 0}).SetRequiresGrad(true);
  Sum(BroadcastTo(x, Shape{3, 2})).Backward();
  EXPECT_EQ(x.grad().ToVector(), (std::vector<double>{3, 3}));
}

TEST(ShapeOpsGradTest, ComposedPipeline) {
  Rng rng(11);
  Tensor x = Tensor::Uniform(Shape{2, 3, 4}, -1, 1, &rng);
  GradCheckResult r = CheckGradients(
      [](const std::vector<Tensor>& in) {
        Tensor t = Permute(in[0], {1, 0, 2});   // [3, 2, 4]
        t = Slice(t, 2, 1, 3);                  // [3, 2, 2]
        t = Reshape(t, Shape{3, 4});
        t = Cat({t, t}, 1);                     // [3, 8]
        return Sum(Mul(t, t));
      },
      {x});
  EXPECT_TRUE(r.ok) << r.max_error;
}

}  // namespace
}  // namespace emaf::tensor
