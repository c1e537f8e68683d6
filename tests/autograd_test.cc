#include <gtest/gtest.h>

#include "common/rng.h"
#include "tensor/autograd.h"
#include "tensor/grad_check.h"
#include "tensor/ops.h"

namespace emaf::tensor {
namespace {

TEST(AutogradTest, SimpleChainRule) {
  // y = (2x)^2 -> dy/dx = 8x.
  Tensor x = Tensor::FromVector(Shape{2}, {1.0, 3.0}).SetRequiresGrad(true);
  Tensor y = Mul(MulScalar(x, 2.0), MulScalar(x, 2.0));
  Sum(y).Backward();
  EXPECT_EQ(x.grad().ToVector(), (std::vector<double>{8, 24}));
}

TEST(AutogradTest, DiamondGraphAccumulates) {
  // z = x*x + x*x uses x through two paths.
  Tensor x = Tensor::FromVector(Shape{1}, {3.0}).SetRequiresGrad(true);
  Tensor a = Mul(x, x);
  Tensor b = Mul(x, x);
  Sum(Add(a, b)).Backward();
  EXPECT_EQ(x.grad().item(), 12.0);  // 2 * 2x
}

TEST(AutogradTest, SharedSubexpression) {
  Tensor x = Tensor::FromVector(Shape{1}, {2.0}).SetRequiresGrad(true);
  Tensor shared = Mul(x, x);           // x^2
  Tensor y = Mul(shared, shared);      // x^4 -> dy/dx = 4 x^3 = 32
  Sum(y).Backward();
  EXPECT_EQ(x.grad().item(), 32.0);
}

TEST(AutogradTest, BackwardAccumulatesAcrossCalls) {
  Tensor x = Tensor::FromVector(Shape{1}, {5.0}).SetRequiresGrad(true);
  Sum(Mul(x, x)).Backward();
  EXPECT_EQ(x.grad().item(), 10.0);
  Sum(Mul(x, x)).Backward();
  EXPECT_EQ(x.grad().item(), 20.0);  // += semantics
  x.ZeroGrad();
  EXPECT_FALSE(x.grad().defined());
}

TEST(AutogradTest, NoGradGuardDisablesRecording) {
  Tensor x = Tensor::Ones(Shape{2}).SetRequiresGrad(true);
  NoGradGuard guard;
  Tensor y = Mul(x, x);
  EXPECT_FALSE(y.TracksGrad());
}

TEST(AutogradTest, NoGradGuardNests) {
  Tensor x = Tensor::Ones(Shape{2}).SetRequiresGrad(true);
  {
    NoGradGuard outer;
    {
      NoGradGuard inner;
      EXPECT_FALSE(GradModeEnabled());
    }
    EXPECT_FALSE(GradModeEnabled());
  }
  EXPECT_TRUE(GradModeEnabled());
  EXPECT_TRUE(Mul(x, x).TracksGrad());
}

TEST(AutogradTest, DetachBlocksGradient) {
  Tensor x = Tensor::FromVector(Shape{1}, {3.0}).SetRequiresGrad(true);
  Tensor y = Mul(x.Detach(), x);  // only one path tracked
  Sum(y).Backward();
  EXPECT_EQ(x.grad().item(), 3.0);  // d/dx (c * x) = c = 3
}

TEST(AutogradTest, ConstantsGetNoGradient) {
  Tensor x = Tensor::Ones(Shape{2}).SetRequiresGrad(true);
  Tensor c = Tensor::Full(Shape{2}, 2.0);
  Sum(Mul(x, c)).Backward();
  EXPECT_TRUE(x.grad().defined());
  EXPECT_FALSE(c.grad().defined());
}

TEST(AutogradTest, LongChainDepth) {
  Tensor x = Tensor::FromVector(Shape{1}, {1.0}).SetRequiresGrad(true);
  Tensor y = x;
  for (int i = 0; i < 100; ++i) y = MulScalar(y, 1.01);
  Sum(y).Backward();
  EXPECT_NEAR(x.grad().item(), std::pow(1.01, 100), 1e-9);
}

TEST(AutogradTest, WideFanOut) {
  Tensor x = Tensor::FromVector(Shape{1}, {2.0}).SetRequiresGrad(true);
  std::vector<Tensor> branches;
  for (int i = 0; i < 50; ++i) branches.push_back(Mul(x, x));
  Sum(Cat(branches, 0)).Backward();
  EXPECT_NEAR(x.grad().item(), 50 * 4.0, 1e-9);
}

TEST(AutogradDeathTest, BackwardNeedsSingleElement) {
  Tensor x = Tensor::Ones(Shape{3}).SetRequiresGrad(true);
  Tensor y = Mul(x, x);
  EXPECT_DEATH(y.Backward(), "single-element");
}

TEST(AutogradTest, BackwardOnGraphlessLeafIsNoOp) {
  Tensor x = Tensor::FromScalar(2.0).SetRequiresGrad(true);
  x.Backward();
  ASSERT_TRUE(x.grad().defined());
  EXPECT_EQ(x.grad().item(), 1.0);
}

TEST(AutogradTest, MixedTrackedUntrackedBranch) {
  Tensor x = Tensor::FromVector(Shape{1}, {2.0}).SetRequiresGrad(true);
  Tensor frozen = Tensor::FromVector(Shape{1}, {4.0});
  Tensor y = Add(Mul(x, frozen), Mul(frozen, frozen));
  Sum(y).Backward();
  EXPECT_EQ(x.grad().item(), 4.0);
}

// ---- Gradient ownership --------------------------------------------------
//
// A backward may hand the same buffer to several inputs (Add returns `g`
// for both operands when no broadcast needs reducing), and Reshape/SumDims
// return views of `g`; the tape adopts a gradient only when nothing else
// references it. These cases check the values (exactly, and against
// finite differences) and that no two gradients end up sharing storage.

bool SharesStorage(const Tensor& a, const Tensor& b) {
  return a.raw_data() == b.raw_data();
}

std::vector<Tensor> RandomInputs(uint64_t seed, std::vector<Shape> shapes) {
  Rng rng(seed);
  std::vector<Tensor> inputs;
  for (const Shape& shape : shapes) {
    inputs.push_back(Tensor::Uniform(shape, 0.5, 1.5, &rng));
  }
  return inputs;
}

TEST(GradOwnershipTest, SelfAddDoublesTheGradient) {
  Tensor x = Tensor::FromVector(Shape{3}, {1, 2, 3}).SetRequiresGrad(true);
  Sum(Add(x, x)).Backward();
  EXPECT_EQ(x.grad().ToVector(), (std::vector<double>{2, 2, 2}));
  EXPECT_TRUE(CheckGradients(
                  [](const std::vector<Tensor>& in) {
                    return Sum(Mul(Add(in[0], in[0]), in[0]));
                  },
                  RandomInputs(1, {Shape{2, 3}}))
                  .ok);
}

TEST(GradOwnershipTest, AddOperandsGetSeparateBuffers) {
  // Both operands receive the very tensor `g` from Add's backward.
  Tensor a = Tensor::FromVector(Shape{2}, {1, 2}).SetRequiresGrad(true);
  Tensor b = Tensor::FromVector(Shape{2}, {3, 4}).SetRequiresGrad(true);
  Tensor w = Tensor::FromVector(Shape{2}, {5, 7});
  Sum(Mul(Add(a, b), w)).Backward();
  EXPECT_EQ(a.grad().ToVector(), (std::vector<double>{5, 7}));
  EXPECT_EQ(b.grad().ToVector(), (std::vector<double>{5, 7}));
  EXPECT_FALSE(SharesStorage(a.grad(), b.grad()));
  // Writing one gradient must leave the other alone.
  a.grad().data()[0] = 100.0;
  EXPECT_EQ(b.grad().ToVector(), (std::vector<double>{5, 7}));
  EXPECT_TRUE(CheckGradients(
                  [](const std::vector<Tensor>& in) {
                    return Sum(Mul(Add(in[0], in[1]), in[2]));
                  },
                  RandomInputs(2, {Shape{2, 3}, Shape{2, 3}, Shape{2, 3}}))
                  .ok);
}

TEST(GradOwnershipTest, LeafReachedByTwoPaths) {
  Tensor x = Tensor::FromVector(Shape{2}, {0.5, 2.0}).SetRequiresGrad(true);
  // d/dx [x + 3x] = 4 along two AddScalar/MulScalar paths that both pass
  // `g` straight through.
  Sum(Add(AddScalar(x, 1.0), MulScalar(x, 3.0))).Backward();
  EXPECT_EQ(x.grad().ToVector(), (std::vector<double>{4, 4}));
  EXPECT_TRUE(CheckGradients(
                  [](const std::vector<Tensor>& in) {
                    Tensor x = in[0];
                    return Sum(Mul(Exp(x), AddScalar(Sum(x, {}, false), 1.0)));
                  },
                  RandomInputs(3, {Shape{3, 2}}))
                  .ok);
}

TEST(GradOwnershipTest, ReshapeAndSumDimsViewGradients) {
  EXPECT_TRUE(CheckGradients(
                  [](const std::vector<Tensor>& in) {
                    Tensor r = Reshape(in[0], Shape{3, 4});
                    return Sum(Mul(r, Reshape(in[1], Shape{3, 4})));
                  },
                  RandomInputs(4, {Shape{2, 6}, Shape{12}}))
                  .ok);
  EXPECT_TRUE(CheckGradients(
                  [](const std::vector<Tensor>& in) {
                    Tensor s = Sum(in[0], {1}, /*keepdim=*/false);  // [2, 4]
                    Tensor t = Sum(in[0], {0, 2}, /*keepdim=*/true);
                    return Add(Sum(Mul(s, s)), Sum(Mul(t, t)));
                  },
                  RandomInputs(5, {Shape{2, 3, 4}}))
                  .ok);
  // Summing over a size-1 axis keeps the shape, so the gradient is `g`
  // itself, viewed.
  EXPECT_TRUE(CheckGradients(
                  [](const std::vector<Tensor>& in) {
                    Tensor s = Sum(in[0], {1}, /*keepdim=*/true);
                    return Sum(Mul(s, Exp(s)));
                  },
                  RandomInputs(6, {Shape{3, 1}}))
                  .ok);
  Tensor x = Tensor::FromVector(Shape{2, 2}, {1, 2, 3, 4}).SetRequiresGrad(true);
  Tensor y = Reshape(x, Shape{4});
  Sum(MulScalar(y, 2.0)).Backward();
  EXPECT_EQ(x.grad().ToVector(), (std::vector<double>{2, 2, 2, 2}));
  EXPECT_EQ(x.grad().shape(), x.shape());
  EXPECT_FALSE(SharesStorage(x.grad(), x));
}

TEST(GradOwnershipTest, SameShapeSubNegatesOnlyItsOwnBuffer) {
  Tensor a = Tensor::FromVector(Shape{2}, {1, 2}).SetRequiresGrad(true);
  Tensor b = Tensor::FromVector(Shape{2}, {3, 4}).SetRequiresGrad(true);
  Tensor w = Tensor::FromVector(Shape{2}, {5, 7});
  Sum(Mul(Sub(a, b), w)).Backward();
  EXPECT_EQ(a.grad().ToVector(), (std::vector<double>{5, 7}));
  EXPECT_EQ(b.grad().ToVector(), (std::vector<double>{-5, -7}));
  Tensor x = Tensor::FromVector(Shape{2}, {1, 2}).SetRequiresGrad(true);
  Sum(Mul(Sub(x, x), w)).Backward();
  EXPECT_EQ(x.grad().ToVector(), (std::vector<double>{0, 0}));
  EXPECT_TRUE(CheckGradients(
                  [](const std::vector<Tensor>& in) {
                    Tensor d = Sub(Mul(in[0], in[1]), in[1]);
                    return Sum(Mul(d, Add(d, in[0])));
                  },
                  RandomInputs(7, {Shape{2, 3}, Shape{2, 3}}))
                  .ok);
}

TEST(GradOwnershipTest, SecondBackwardAddsIntoAnAdoptedGrad) {
  // The first sweep's gradient (a fresh buffer from Sum's backward) is
  // adopted as .grad; the second adds into it.
  Tensor x = Tensor::FromVector(Shape{3}, {1, 2, 3}).SetRequiresGrad(true);
  Sum(AddScalar(x, 1.0)).Backward();
  Tensor first = x.grad().Clone();
  Sum(Mul(x, x)).Backward();
  EXPECT_EQ(first.ToVector(), (std::vector<double>{1, 1, 1}));
  EXPECT_EQ(x.grad().ToVector(), (std::vector<double>{3, 5, 7}));
  Sum(AddScalar(x, 1.0)).Backward();
  EXPECT_EQ(x.grad().ToVector(), (std::vector<double>{4, 6, 8}));
}

TEST(GradOwnershipTest, LeafGradNeverSharesASavedTensor) {
  // Each op below saves a tensor for its backward (its input, its output,
  // or a view of either); the test holds them all and checks .grad owns a
  // buffer of its own.
  Tensor x = Tensor::FromVector(Shape{2, 2}, {0.1, 0.2, 0.3, 0.4})
                 .SetRequiresGrad(true);
  Tensor viewed = Reshape(x, Shape{4});
  Tensor e = Exp(viewed);
  Tensor s = Sigmoid(x);
  Tensor summed = Sum(x, {0}, /*keepdim=*/true);
  Tensor loss = Add(Add(Sum(Mul(e, viewed)), Sum(Mul(s, x))), Sum(summed));
  loss.Backward();
  for (const Tensor& saved : {x, viewed, e, s, summed, loss}) {
    EXPECT_FALSE(SharesStorage(x.grad(), saved));
  }
  // The root as its own leaf: the seed gradient becomes .grad.
  Tensor leaf = Tensor::FromScalar(2.0).SetRequiresGrad(true);
  leaf.Backward();
  EXPECT_FALSE(SharesStorage(leaf.grad(), leaf));
  EXPECT_EQ(leaf.grad().item(), 1.0);
}

TEST(GradCheckTest, AcceptsCorrectGradient) {
  Rng rng(1);
  Tensor x = Tensor::Uniform(Shape{3}, -1, 1, &rng);
  GradCheckResult r = CheckGradients(
      [](const std::vector<Tensor>& in) { return Sum(Mul(in[0], in[0])); },
      {x});
  EXPECT_TRUE(r.ok);
  EXPECT_LT(r.max_error, 1e-7);
}

TEST(GradCheckTest, CatchesWrongGradient) {
  // Relu at exactly 0: analytic subgradient is 0 but the central finite
  // difference is 0.5, so the checker must flag the discrepancy.
  Tensor x = Tensor::FromVector(Shape{1}, {0.0});
  GradCheckResult r = CheckGradients(
      [](const std::vector<Tensor>& in) { return Sum(Relu(in[0])); }, {x},
      1e-4, 1e-3);
  EXPECT_FALSE(r.ok);
  EXPECT_NEAR(r.max_error, 0.5, 1e-6);
}

}  // namespace
}  // namespace emaf::tensor
