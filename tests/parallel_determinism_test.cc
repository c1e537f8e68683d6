// Serial-run == parallel-run, bit for bit.
//
// The parallel execution model (DESIGN.md) promises that thread count is
// invisible in results: kernels partition output at serial-schedule
// boundaries and the experiment grid seeds every (cell, individual,
// repeat) task from its own RNG stream into a pre-sized slot. This suite
// holds that contract to exact double equality at 1, 2, and 8 threads,
// above and below the serial-fallback size thresholds.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/experiment.h"
#include "core/report.h"
#include "tensor/op_common.h"
#include "tensor/ops.h"

namespace emaf {
namespace {

using tensor::Shape;
using tensor::Tensor;

// Exact bit-pattern equality (stricter than ==: distinguishes -0.0, NaN).
void ExpectBitwiseEqual(const Tensor& a, const Tensor& b,
                        const std::string& what) {
  ASSERT_TRUE(a.defined());
  ASSERT_TRUE(b.defined());
  ASSERT_EQ(a.shape(), b.shape()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<size_t>(a.NumElements()) *
                            sizeof(tensor::Scalar)),
            0)
      << what << " differs between serial and parallel run";
}

// Runs `fn` with the global pool at `threads` and returns its tensors.
template <typename Fn>
std::vector<Tensor> AtThreads(int64_t threads, Fn fn) {
  common::ThreadPool::SetGlobalNumThreads(threads);
  std::vector<Tensor> out = fn();
  common::ThreadPool::SetGlobalNumThreads(1);
  return out;
}

template <typename Fn>
void ExpectThreadCountInvisible(Fn fn, const std::string& what) {
  std::vector<Tensor> serial = AtThreads(1, fn);
  for (int64_t threads : {2, 8}) {
    std::vector<Tensor> parallel = AtThreads(threads, fn);
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      ExpectBitwiseEqual(serial[i], parallel[i],
                         what + " output " + std::to_string(i) +
                             " at threads=" + std::to_string(threads));
    }
  }
}

// --- Kernels ---------------------------------------------------------------

// Forward + both gradients of a matmul of the given size.
std::vector<Tensor> MatMulForwardBackward(int64_t m, int64_t k, int64_t n) {
  Rng rng(123);
  Tensor a = Tensor::Uniform(Shape{m, k}, -1, 1, &rng).SetRequiresGrad(true);
  Tensor b = Tensor::Uniform(Shape{k, n}, -1, 1, &rng).SetRequiresGrad(true);
  Tensor out = MatMul(a, b);
  Sum(out).Backward();
  return {out, a.grad(), b.grad()};
}

TEST(ParallelDeterminismTest, MatMulAboveThresholdBitwiseEqual) {
  // 96*64*64 madds is above kMatMulParallelMinFlops: the parallel row
  // partition actually engages.
  ASSERT_GE(96 * 64 * 64, tensor::internal::kMatMulParallelMinFlops);
  ExpectThreadCountInvisible([] { return MatMulForwardBackward(96, 64, 64); },
                             "matmul(96x64x64)");
  // Row count not a multiple of the 4-row block: the sub-4 remainder must
  // land in the final chunk exactly as in the serial sweep.
  ExpectThreadCountInvisible([] { return MatMulForwardBackward(99, 64, 64); },
                             "matmul(99x64x64)");
}

TEST(ParallelDeterminismTest, MatMulColumnSplitBitwiseEqual) {
  // Fewer 4-row blocks than two per thread: ParallelMatMul splits columns
  // at kernel tiles instead of rows. The conv weight-gradient shape, and a
  // single row block.
  ExpectThreadCountInvisible(
      [] { return MatMulForwardBackward(16, 2990, 96); }, "matmul(16x2990x96)");
  ExpectThreadCountInvisible(
      [] { return MatMulForwardBackward(4, 598, 160); }, "matmul(4x598x160)");
}

TEST(ParallelDeterminismTest, MatMulBelowThresholdBitwiseEqual) {
  ASSERT_LT(5 * 6 * 7, tensor::internal::kMatMulParallelMinFlops);
  ExpectThreadCountInvisible([] { return MatMulForwardBackward(5, 6, 7); },
                             "matmul(5x6x7)");
}

TEST(ParallelDeterminismTest, BatchedMatMulBitwiseEqual) {
  auto fn = [] {
    Rng rng(321);
    Tensor a = Tensor::Uniform(Shape{8, 32, 32}, -1, 1, &rng)
                   .SetRequiresGrad(true);
    Tensor b = Tensor::Uniform(Shape{8, 32, 32}, -1, 1, &rng)
                   .SetRequiresGrad(true);
    Tensor out = MatMul(a, b);
    Sum(out).Backward();
    return std::vector<Tensor>{out, a.grad(), b.grad()};
  };
  ExpectThreadCountInvisible(fn, "batched matmul(8x32x32x32)");
}

std::vector<Tensor> ConvForwardBackward(const Shape& input_shape,
                                        const Shape& weight_shape,
                                        const tensor::Conv2dOptions& options) {
  Rng rng(777);
  Tensor input =
      Tensor::Uniform(input_shape, -1, 1, &rng).SetRequiresGrad(true);
  Tensor weight =
      Tensor::Uniform(weight_shape, -1, 1, &rng).SetRequiresGrad(true);
  Tensor bias = Tensor::Uniform(Shape{weight_shape.dim(0)}, -1, 1, &rng)
                    .SetRequiresGrad(true);
  Tensor out = Conv2d(input, weight, bias, options);
  Sum(out).Backward();
  return {out, input.grad(), weight.grad(), bias.grad()};
}

// Square input and kernel, padding 1.
std::vector<Tensor> ConvForwardBackward(int64_t batch, int64_t cin,
                                        int64_t hw, int64_t cout,
                                        int64_t kernel) {
  tensor::Conv2dOptions options;
  options.pad_h = 1;
  options.pad_w = 1;
  return ConvForwardBackward(Shape{batch, cin, hw, hw},
                             Shape{cout, cin, kernel, kernel}, options);
}

TEST(ParallelDeterminismTest, ConvAboveThresholdBitwiseEqual) {
  // im2col is 8*16*16 rows x 36 cols, well above the serial-fallback
  // threshold, and the implied matmul exceeds the flop threshold too.
  ExpectThreadCountInvisible([] { return ConvForwardBackward(8, 4, 16, 8, 3); },
                             "conv(8x4x16x16, 8 filters)");
}

TEST(ParallelDeterminismTest, ConvAtMtgnnShapeBitwiseEqual) {
  // MTGNN's temporal convolution: [23, 32, 26, 7] input, 1x3 kernel. Its
  // weight gradient is a [O, 2990] x [2990, 96] matmul, which at O = 16
  // has too few row blocks and runs column-split.
  for (int64_t cout : {16, 32}) {
    ExpectThreadCountInvisible(
        [cout] {
          return ConvForwardBackward(Shape{23, 32, 26, 7},
                                     Shape{cout, 32, 1, 3},
                                     tensor::Conv2dOptions{});
        },
        "conv(23x32x26x7, " + std::to_string(cout) + " 1x3 filters)");
  }
}

TEST(ParallelDeterminismTest, ConvBelowThresholdBitwiseEqual) {
  ExpectThreadCountInvisible([] { return ConvForwardBackward(2, 2, 5, 3, 3); },
                             "conv(2x2x5x5, 3 filters)");
}

// --- Experiment grid -------------------------------------------------------

core::ExperimentConfig SmallConfig() {
  core::ExperimentConfig config;
  config.generator.num_individuals = 4;
  config.generator.num_variables = 8;
  config.generator.days = 7;
  config.generator.seed = 99;
  config.train.epochs = 3;
  config.knn_k = 3;
  config.seed = 99;
  return config;
}

// 4 individuals x {LSTM, A3TGCN} x {Seq1, Seq5}.
std::vector<core::CellSpec> SmallGrid() {
  std::vector<core::CellSpec> grid;
  for (core::ModelKind model :
       {core::ModelKind::kLstm, core::ModelKind::kA3tgcn}) {
    for (int64_t seq : {int64_t{1}, int64_t{5}}) {
      core::CellSpec spec;
      spec.model = model;
      spec.metric = graph::GraphMetric::kCorrelation;
      spec.gdt = 0.4;
      spec.input_length = seq;
      grid.push_back(spec);
    }
  }
  return grid;
}

std::vector<core::CellResult> RunGrid(int64_t threads) {
  common::ThreadPool::SetGlobalNumThreads(threads);
  core::ExperimentConfig config = SmallConfig();
  data::Cohort cohort = data::GenerateCohort(config.generator);
  core::ExperimentRunner runner(std::move(cohort), config);
  std::vector<core::CellResult> results;
  for (const core::CellSpec& spec : SmallGrid()) {
    results.push_back(runner.RunCellOrDie(spec));
  }
  common::ThreadPool::SetGlobalNumThreads(1);
  return results;
}

TEST(ParallelDeterminismTest, ExperimentGridBitwiseEqualAcrossThreadCounts) {
  std::vector<core::CellResult> serial = RunGrid(1);
  for (int64_t threads : {2, 8}) {
    std::vector<core::CellResult> parallel = RunGrid(threads);
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t c = 0; c < serial.size(); ++c) {
      SCOPED_TRACE(serial[c].spec.Label() + " seq" +
                   std::to_string(serial[c].spec.input_length) +
                   " at threads=" + std::to_string(threads));
      ASSERT_EQ(serial[c].per_individual_mse.size(),
                parallel[c].per_individual_mse.size());
      for (size_t i = 0; i < serial[c].per_individual_mse.size(); ++i) {
        // Bitwise: the doubles must be identical, not merely close.
        EXPECT_EQ(std::memcmp(&serial[c].per_individual_mse[i],
                              &parallel[c].per_individual_mse[i],
                              sizeof(double)),
                  0)
            << "individual " << i << ": " << serial[c].per_individual_mse[i]
            << " vs " << parallel[c].per_individual_mse[i];
      }
      // Report rows (the paper-table cell strings) must match too.
      EXPECT_EQ(core::FormatMeanStd(serial[c].stats),
                core::FormatMeanStd(parallel[c].stats));
      EXPECT_EQ(serial[c].stats.count, parallel[c].stats.count);
    }
  }
}

// Observability must be numerics-neutral: the experiment CSV is byte-for-
// byte the same whether metrics/tracing actively record or not, at 1 and
// 2 threads. Within one binary this compares recording-on vs recording-
// off; across builds, golden_regression_test pins the -DEMAF_METRICS=ON
// and =OFF binaries to the same checked-in CSV bytes, closing the loop.
TEST(ParallelDeterminismTest, ObservabilityIsNumericsNeutral) {
  auto grid_csv = [](int64_t threads, bool observed) {
    if (observed) {
      obs::Registry::Global().Reset();
      obs::Trace::Enable(std::string(::testing::TempDir()) +
                         "/determinism_trace.json");
    }
    std::vector<core::CellResult> results = RunGrid(threads);
    if (observed) {
      EXPECT_TRUE(obs::Trace::Flush().ok());
      obs::Trace::Disable();
    }
    std::string csv;
    for (const core::CellResult& cell : results) {
      csv += cell.spec.Label() + "," + core::FormatMeanStd(cell.stats);
      for (double mse : cell.per_individual_mse) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), ",%.17g", mse);
        csv += buf;
      }
      csv += "\n";
    }
    return csv;
  };
  for (int64_t threads : {int64_t{1}, int64_t{2}}) {
    std::string plain = grid_csv(threads, false);
    std::string observed = grid_csv(threads, true);
    EXPECT_EQ(plain, observed)
        << "metrics/trace recording changed numerics at threads=" << threads;
  }
  // And when compiled in, recording did actually happen side-band.
  if (obs::kMetricsEnabled) {
    EXPECT_GT(obs::Registry::Global()
                  .Snapshot()
                  .counters.at("experiment.cells_total"),
              0u);
  }
}

TEST(ParallelDeterminismTest, LearnedGraphCellBitwiseEqual) {
  auto run = [](int64_t threads) {
    common::ThreadPool::SetGlobalNumThreads(threads);
    core::ExperimentConfig config = SmallConfig();
    config.generator.num_individuals = 2;
    data::Cohort cohort = data::GenerateCohort(config.generator);
    core::ExperimentRunner runner(std::move(cohort), config);
    core::CellSpec spec;
    spec.model = core::ModelKind::kA3tgcn;
    spec.metric = graph::GraphMetric::kCorrelation;
    spec.gdt = 0.4;
    spec.input_length = 2;
    spec.use_learned_graph = true;  // exercises parallel LearnedGraphs()
    core::CellResult result = runner.RunCellOrDie(spec);
    common::ThreadPool::SetGlobalNumThreads(1);
    return result;
  };
  core::CellResult serial = run(1);
  for (int64_t threads : {2, 8}) {
    core::CellResult parallel = run(threads);
    ASSERT_EQ(serial.per_individual_mse.size(),
              parallel.per_individual_mse.size());
    for (size_t i = 0; i < serial.per_individual_mse.size(); ++i) {
      EXPECT_EQ(serial.per_individual_mse[i], parallel.per_individual_mse[i])
          << "individual " << i << " at threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace emaf
