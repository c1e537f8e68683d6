// Randomized property tests over the tensor layer: algebraic identities
// and round-trips checked across fuzzed shapes (deterministic seeds).

#include <algorithm>
#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "tensor/grad_check.h"
#include "tensor/op_common.h"
#include "tensor/ops.h"
#include "tensor/simd.h"

namespace emaf::tensor {
namespace {

Shape RandomShape(Rng* rng, int64_t max_rank = 4, int64_t max_dim = 5) {
  int64_t rank = rng->UniformInt(1, max_rank);
  std::vector<int64_t> dims;
  for (int64_t i = 0; i < rank; ++i) dims.push_back(rng->UniformInt(1, max_dim));
  return Shape(dims);
}

// Shape broadcast-compatible with `to`: some axes shrunk to 1, possibly
// with leading axes dropped.
Shape RandomBroadcastableTo(const Shape& to, Rng* rng) {
  int64_t drop = rng->UniformInt(0, to.rank() - 1);
  std::vector<int64_t> dims;
  for (int64_t i = drop; i < to.rank(); ++i) {
    dims.push_back(rng->Bernoulli(0.4) ? 1 : to.dim(i));
  }
  return Shape(dims);
}

class SeededPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SeededPropertyTest, AddCommutesAndSubInverts) {
  Rng rng(1000 + GetParam());
  Shape shape = RandomShape(&rng);
  Tensor a = Tensor::Uniform(shape, -3, 3, &rng);
  Tensor b = Tensor::Uniform(RandomBroadcastableTo(shape, &rng), -3, 3, &rng);
  Tensor ab = Add(a, b);
  Tensor ba = Add(b, a);
  ASSERT_EQ(ab.shape(), ba.shape());
  for (int64_t i = 0; i < ab.NumElements(); ++i) {
    EXPECT_DOUBLE_EQ(ab.data()[i], ba.data()[i]);
  }
  // (a + b) - b == broadcast(a).
  Tensor back = Sub(ab, b);
  Tensor expected = BroadcastTo(a, ab.shape());
  for (int64_t i = 0; i < back.NumElements(); ++i) {
    EXPECT_NEAR(back.data()[i], expected.data()[i], 1e-12);
  }
}

TEST_P(SeededPropertyTest, MulDistributesOverAdd) {
  Rng rng(2000 + GetParam());
  Shape shape = RandomShape(&rng);
  Tensor a = Tensor::Uniform(shape, -2, 2, &rng);
  Tensor b = Tensor::Uniform(shape, -2, 2, &rng);
  Tensor c = Tensor::Uniform(RandomBroadcastableTo(shape, &rng), -2, 2, &rng);
  Tensor lhs = Mul(c, Add(a, b));
  Tensor rhs = Add(Mul(c, a), Mul(c, b));
  for (int64_t i = 0; i < lhs.NumElements(); ++i) {
    EXPECT_NEAR(lhs.data()[i], rhs.data()[i], 1e-10);
  }
}

TEST_P(SeededPropertyTest, SumMatchesAxisByAxisReduction) {
  Rng rng(3000 + GetParam());
  Shape shape = RandomShape(&rng, 4, 4);
  Tensor x = Tensor::Uniform(shape, -2, 2, &rng);
  // Sum over all axes one at a time equals Sum(x).
  Tensor step = x;
  for (int64_t i = 0; i < shape.rank(); ++i) {
    step = Sum(step, {0}, /*keepdim=*/false);
  }
  EXPECT_NEAR(step.item(), Sum(x).item(), 1e-9);
}

TEST_P(SeededPropertyTest, PermuteRoundTripIsIdentity) {
  Rng rng(4000 + GetParam());
  Shape shape = RandomShape(&rng, 4, 4);
  Tensor x = Tensor::Uniform(shape, -2, 2, &rng);
  std::vector<int64_t> perm(shape.rank());
  for (int64_t i = 0; i < shape.rank(); ++i) perm[i] = i;
  rng.Shuffle(&perm);
  std::vector<int64_t> inverse(perm.size());
  for (size_t i = 0; i < perm.size(); ++i) {
    inverse[static_cast<size_t>(perm[i])] = static_cast<int64_t>(i);
  }
  Tensor round_trip = Permute(Permute(x, perm), inverse);
  EXPECT_EQ(round_trip.ToVector(), x.ToVector());
}

TEST_P(SeededPropertyTest, CatOfSlicesReassembles) {
  Rng rng(5000 + GetParam());
  Shape shape = RandomShape(&rng, 3, 6);
  Tensor x = Tensor::Uniform(shape, -2, 2, &rng);
  int64_t axis = rng.UniformInt(0, shape.rank() - 1);
  int64_t d = shape.dim(axis);
  if (d < 2) return;
  int64_t cut = rng.UniformInt(1, d - 1);
  Tensor reassembled =
      Cat({Slice(x, axis, 0, cut), Slice(x, axis, cut, d)}, axis);
  EXPECT_EQ(reassembled.ToVector(), x.ToVector());
}

TEST_P(SeededPropertyTest, MatMulAssociativity) {
  Rng rng(6000 + GetParam());
  int64_t m = rng.UniformInt(1, 5);
  int64_t k = rng.UniformInt(1, 5);
  int64_t l = rng.UniformInt(1, 5);
  int64_t n = rng.UniformInt(1, 5);
  Tensor a = Tensor::Uniform(Shape{m, k}, -2, 2, &rng);
  Tensor b = Tensor::Uniform(Shape{k, l}, -2, 2, &rng);
  Tensor c = Tensor::Uniform(Shape{l, n}, -2, 2, &rng);
  Tensor left = MatMul(MatMul(a, b), c);
  Tensor right = MatMul(a, MatMul(b, c));
  for (int64_t i = 0; i < left.NumElements(); ++i) {
    EXPECT_NEAR(left.data()[i], right.data()[i], 1e-9);
  }
}

TEST_P(SeededPropertyTest, MatMulTransposeIdentity) {
  // (A B)^T == B^T A^T.
  Rng rng(7000 + GetParam());
  int64_t m = rng.UniformInt(1, 6);
  int64_t k = rng.UniformInt(1, 6);
  int64_t n = rng.UniformInt(1, 6);
  Tensor a = Tensor::Uniform(Shape{m, k}, -2, 2, &rng);
  Tensor b = Tensor::Uniform(Shape{k, n}, -2, 2, &rng);
  Tensor lhs = TransposeLast2(MatMul(a, b));
  Tensor rhs = MatMul(TransposeLast2(b), TransposeLast2(a));
  for (int64_t i = 0; i < lhs.NumElements(); ++i) {
    EXPECT_NEAR(lhs.data()[i], rhs.data()[i], 1e-10);
  }
}

TEST_P(SeededPropertyTest, SoftmaxPreservesOrderAndNormalizes) {
  Rng rng(8000 + GetParam());
  int64_t n = rng.UniformInt(2, 8);
  Tensor x = Tensor::Uniform(Shape{1, n}, -4, 4, &rng);
  Tensor y = Softmax(x, 1);
  double total = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    total += y.At({0, i});
    EXPECT_GT(y.At({0, i}), 0.0);
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      if (x.At({0, i}) < x.At({0, j})) {
        EXPECT_LT(y.At({0, i}), y.At({0, j}));
      }
    }
  }
}

TEST_P(SeededPropertyTest, GradientOfRandomCompositePipeline) {
  // Fuzzed composite of elementwise + reduce + shape ops must pass the
  // finite-difference check.
  Rng rng(9000 + GetParam());
  Shape shape = RandomShape(&rng, 3, 4);
  Tensor x = Tensor::Uniform(shape, 0.2, 1.8, &rng);
  int64_t variant = GetParam() % 4;
  GradCheckResult r = CheckGradients(
      [variant](const std::vector<Tensor>& in) {
        Tensor t = in[0];
        switch (variant) {
          case 0:
            t = Mul(Sigmoid(t), Tanh(t));
            break;
          case 1:
            t = Exp(MulScalar(Log(t), 0.5));
            break;
          case 2:
            t = Div(t, AddScalar(Sqrt(t), 1.0));
            break;
          default:
            t = Relu(AddScalar(t, -1.0));
            break;
        }
        return Mean(Mul(t, t));
      },
      {x}, 1e-6, 1e-5);
  EXPECT_TRUE(r.ok) << "variant " << variant << " err " << r.max_error;
}

TEST_P(SeededPropertyTest, TopKMaskKeepsExactlyKPerSlice) {
  Rng rng(10000 + GetParam());
  int64_t rows = rng.UniformInt(1, 6);
  int64_t cols = rng.UniformInt(2, 8);
  int64_t k = rng.UniformInt(1, cols);
  Tensor x = Tensor::Uniform(Shape{rows, cols}, -5, 5, &rng);
  Tensor mask = TopKMask(x, k, 1);
  for (int64_t r = 0; r < rows; ++r) {
    int64_t kept = 0;
    double min_kept = 1e300;
    double max_dropped = -1e300;
    for (int64_t c = 0; c < cols; ++c) {
      if (mask.At({r, c}) == 1.0) {
        ++kept;
        min_kept = std::min(min_kept, x.At({r, c}));
      } else {
        max_dropped = std::max(max_dropped, x.At({r, c}));
      }
    }
    EXPECT_EQ(kept, k);
    if (k < cols) {
      EXPECT_GE(min_kept, max_dropped);
    }
  }
}

// Pins the global ThreadPool to `n` threads for one test body.
struct ScopedThreads {
  explicit ScopedThreads(int64_t n) {
    common::ThreadPool::SetGlobalNumThreads(n);
  }
  ~ScopedThreads() { common::ThreadPool::SetGlobalNumThreads(1); }
};

void ExpectBitwiseEqual(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<size_t>(a.NumElements()) * sizeof(Scalar)),
            0);
}

TEST_P(SeededPropertyTest, ParallelMatMulMatchesSerialKernelAcrossShapes) {
  // Fuzzed sizes straddle kMatMulParallelMinFlops, so both the serial
  // fallback and the row/column partitions are exercised; either way the
  // 8-thread result must be bitwise the serial kernel's.
  Rng rng(11000 + GetParam());
  int64_t m = rng.UniformInt(1, 128);
  int64_t k = rng.UniformInt(1, 64);
  int64_t n = rng.UniformInt(1, 64);
  Tensor a = Tensor::Uniform(Shape{m, k}, -2, 2, &rng);
  Tensor b = Tensor::Uniform(Shape{k, n}, -2, 2, &rng);
  Tensor reference = Tensor::Zeros(Shape{m, n});
  simd::MatMulF64(a.data(), b.data(), reference.data(), m, k, n, n);
  ScopedThreads threads(8);
  ExpectBitwiseEqual(MatMul(a, b), reference);
}

TEST_P(SeededPropertyTest, ParallelBatchedMatMulMatchesSerialKernel) {
  Rng rng(12000 + GetParam());
  int64_t batch = rng.UniformInt(1, 8);
  int64_t m = rng.UniformInt(1, 48);
  int64_t k = rng.UniformInt(1, 32);
  int64_t n = rng.UniformInt(1, 32);
  Tensor a = Tensor::Uniform(Shape{batch, m, k}, -2, 2, &rng);
  Tensor b = Tensor::Uniform(Shape{batch, k, n}, -2, 2, &rng);
  Tensor reference = Tensor::Zeros(Shape{batch, m, n});
  for (int64_t i = 0; i < batch; ++i) {
    simd::MatMulF64(a.data() + i * m * k, b.data() + i * k * n,
                    reference.data() + i * m * n, m, k, n, n);
  }
  ScopedThreads threads(8);
  ExpectBitwiseEqual(MatMul(a, b), reference);
}

TEST_P(SeededPropertyTest, ParallelConvMatchesSerialRunAcrossShapes) {
  Rng rng(13000 + GetParam());
  int64_t batch = rng.UniformInt(1, 8);
  int64_t cin = rng.UniformInt(1, 4);
  int64_t hw = rng.UniformInt(4, 14);
  int64_t cout = rng.UniformInt(1, 8);
  int64_t kernel = rng.UniformInt(1, 3);
  Conv2dOptions options;
  options.pad_h = rng.UniformInt(0, 1);
  options.pad_w = rng.UniformInt(0, 1);
  Tensor input = Tensor::Uniform(Shape{batch, cin, hw, hw}, -2, 2, &rng);
  Tensor weight =
      Tensor::Uniform(Shape{cout, cin, kernel, kernel}, -2, 2, &rng);
  Tensor bias = Tensor::Uniform(Shape{cout}, -2, 2, &rng);
  Tensor serial = Conv2d(input, weight, bias, options);
  ScopedThreads threads(8);
  ExpectBitwiseEqual(Conv2d(input, weight, bias, options), serial);
}

TEST_P(SeededPropertyTest, ParallelMatMulPassesGradCheck) {
  // 64*16*128 madds sits above the parallel threshold: the finite
  // differences run against the multi-threaded forward/backward.
  Rng rng(14000 + GetParam());
  Tensor a = Tensor::Uniform(Shape{64, 16}, -1, 1, &rng);
  Tensor b = Tensor::Uniform(Shape{16, 128}, -1, 1, &rng);
  ScopedThreads threads(8);
  GradCheckResult r = CheckGradients(
      [b](const std::vector<Tensor>& in) { return Mean(MatMul(in[0], b)); },
      {a}, 1e-6, 1e-5);
  EXPECT_TRUE(r.ok) << "err " << r.max_error;
}

TEST_P(SeededPropertyTest, ParallelConvPassesWeightGradCheck) {
  // Batch x im2col size large enough that the batch loop and the conv
  // matmul both take their parallel paths under the finite differences.
  Rng rng(15000 + GetParam());
  Tensor input = Tensor::Uniform(Shape{8, 2, 12, 12}, -1, 1, &rng);
  Tensor weight = Tensor::Uniform(Shape{8, 2, 3, 3}, -1, 1, &rng);
  Tensor bias = Tensor::Uniform(Shape{8}, -1, 1, &rng);
  Conv2dOptions options;
  options.pad_h = 1;
  options.pad_w = 1;
  ScopedThreads threads(8);
  GradCheckResult r = CheckGradients(
      [input, bias, options](const std::vector<Tensor>& in) {
        return Mean(Conv2d(input, in[0], bias, options));
      },
      {weight}, 1e-6, 1e-5);
  EXPECT_TRUE(r.ok) << "err " << r.max_error;
}

// ---- Strided walkers against a per-element reference ----------------------
//
// The reference visits every element of `dims` in row-major order and
// rebuilds each operand's offset from the unravelled multi-index, one
// element at a time. The library's walkers (MapBinary's broadcast path,
// SumTo, Permute and BroadcastTo's copy) must give the same bytes.

// Offset under `strides` of row-major element `flat` of `shape`: the
// multi-index is peeled off axis by axis from the last.
int64_t OffsetOf(int64_t flat, const Shape& shape,
                 const std::vector<int64_t>& strides) {
  int64_t offset = 0;
  for (int64_t axis = shape.rank() - 1; axis >= 0; --axis) {
    offset += flat % shape.dim(axis) * strides[axis];
    flat /= shape.dim(axis);
  }
  return offset;
}

// Values spread over many binades, so that any reordering of a sum shows
// in the low bits.
Tensor SpreadValues(const Shape& shape, Rng* rng) {
  Tensor t = Tensor::Uniform(shape, -1, 1, rng);
  Scalar* d = t.data();
  for (int64_t i = 0; i < t.NumElements(); ++i) {
    d[i] = std::ldexp(d[i], static_cast<int>(rng->UniformInt(-20, 20)));
  }
  return t;
}

// A random shape of rank 1-`max_rank` over dims {1, ..., 6} plus the
// occasional long axis, so that runs both split and merge.
Shape RandomWalkShape(Rng* rng, int64_t max_rank) {
  const int64_t rank = rng->UniformInt(1, max_rank);
  std::vector<int64_t> dims;
  for (int64_t i = 0; i < rank; ++i) {
    dims.push_back(rng->Bernoulli(0.1) ? rng->UniformInt(17, 33)
                                       : rng->UniformInt(1, 6));
  }
  return Shape(dims);
}

// `to` with random axes set to 1 and random leading axes dropped; a
// rank-0 scalar one time in eight.
Shape RandomOperandOf(const Shape& to, Rng* rng) {
  if (rng->Bernoulli(0.125)) return Shape{};
  std::vector<int64_t> dims;
  for (int64_t i = rng->UniformInt(0, to.rank() - 1); i < to.rank(); ++i) {
    dims.push_back(rng->Bernoulli(0.4) ? 1 : to.dim(i));
  }
  return Shape(dims);
}

Tensor ReferenceMapBinary(const Tensor& a, const Tensor& b,
                          Scalar (*f)(Scalar, Scalar)) {
  Shape out_shape = BroadcastShapes(a.shape(), b.shape());
  std::vector<int64_t> a_strides = BroadcastStrides(a.shape(), out_shape);
  std::vector<int64_t> b_strides = BroadcastStrides(b.shape(), out_shape);
  Tensor out = Tensor::Zeros(out_shape);
  for (int64_t i = 0; i < out.NumElements(); ++i) {
    out.data()[i] = f(a.data()[OffsetOf(i, out_shape, a_strides)],
                      b.data()[OffsetOf(i, out_shape, b_strides)]);
  }
  return out;
}

Tensor ReferenceSumTo(const Tensor& x, const Shape& target) {
  std::vector<int64_t> t_strides = BroadcastStrides(target, x.shape());
  Tensor out = Tensor::Zeros(target);
  for (int64_t i = 0; i < x.NumElements(); ++i) {
    out.data()[OffsetOf(i, x.shape(), t_strides)] += x.data()[i];
  }
  return out;
}

// Copy of `x` into `out_shape` reading through `in_strides`.
Tensor ReferenceGather(const Tensor& x, const Shape& out_shape,
                       const std::vector<int64_t>& in_strides) {
  Tensor out = Tensor::Zeros(out_shape);
  for (int64_t i = 0; i < out.NumElements(); ++i) {
    out.data()[i] = x.data()[OffsetOf(i, out_shape, in_strides)];
  }
  return out;
}

TEST_P(SeededPropertyTest, MapBinaryBroadcastMatchesPerElementWalk) {
  Rng rng(16000 + GetParam());
  for (int trial = 0; trial < 40; ++trial) {
    Shape full = RandomWalkShape(&rng, 5);
    Tensor a = SpreadValues(RandomOperandOf(full, &rng), &rng);
    Tensor b = SpreadValues(RandomOperandOf(full, &rng), &rng);
    SCOPED_TRACE(a.shape().ToString() + " op " + b.shape().ToString());
    ExpectBitwiseEqual(
        Sub(a, b), ReferenceMapBinary(a, b, [](Scalar x, Scalar y) {
          return x - y;
        }));
    ExpectBitwiseEqual(
        Div(b, a), ReferenceMapBinary(b, a, [](Scalar x, Scalar y) {
          return x / y;
        }));
    auto skew = [](Scalar x, Scalar y) { return 3.0 * x - y * y; };
    ExpectBitwiseEqual(internal::MapBinary(a, b, skew),
                       ReferenceMapBinary(a, b, skew));
  }
}

TEST_P(SeededPropertyTest, SumToMatchesPerElementWalkForEveryTarget) {
  Rng rng(17000 + GetParam());
  Shape shape = RandomWalkShape(&rng, 4);
  Tensor x = SpreadValues(shape, &rng);
  const int64_t rank = shape.rank();
  // Every broadcast-compatible target: drop any number of leading axes,
  // then keep or collapse each remaining axis.
  for (int64_t drop = 0; drop <= rank; ++drop) {
    for (int64_t mask = 0; mask < (int64_t{1} << (rank - drop)); ++mask) {
      std::vector<int64_t> dims;
      for (int64_t axis = drop; axis < rank; ++axis) {
        dims.push_back((mask >> (axis - drop)) & 1 ? 1 : shape.dim(axis));
      }
      Shape target(dims);
      SCOPED_TRACE(shape.ToString() + " -> " + target.ToString());
      ExpectBitwiseEqual(internal::SumTo(x, target), ReferenceSumTo(x, target));
    }
  }
}

TEST_P(SeededPropertyTest, PermuteAndBroadcastToMatchPerElementWalkAtTileEdges) {
  // Dims straddle the 16-wide copy tiles; every rank-4 permutation.
  Rng rng(18000 + GetParam());
  const int64_t edges[] = {1, 15, 16, 17};
  std::vector<int64_t> dims;
  for (int i = 0; i < 4; ++i) dims.push_back(edges[rng.UniformInt(0, 3)]);
  Shape shape(dims);
  Tensor x = SpreadValues(shape, &rng);
  std::vector<int64_t> x_strides = shape.Strides();
  std::vector<int64_t> perm = {0, 1, 2, 3};
  int permutations = 0;
  do {
    ++permutations;
    std::vector<int64_t> out_dims;
    std::vector<int64_t> in_strides;
    for (int64_t p : perm) {
      out_dims.push_back(shape.dim(p));
      in_strides.push_back(x_strides[p]);
    }
    Shape out_shape(out_dims);
    SCOPED_TRACE(shape.ToString() + " -> " + out_shape.ToString());
    ExpectBitwiseEqual(Permute(x, perm),
                       ReferenceGather(x, out_shape, in_strides));
    Tensor source = SpreadValues(RandomOperandOf(out_shape, &rng), &rng);
    ExpectBitwiseEqual(
        BroadcastTo(source, out_shape),
        ReferenceGather(source, out_shape,
                        BroadcastStrides(source.shape(), out_shape)));
  } while (std::next_permutation(perm.begin(), perm.end()));
  EXPECT_EQ(permutations, 24);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededPropertyTest,
                         ::testing::Range(0, 12));

}  // namespace
}  // namespace emaf::tensor
