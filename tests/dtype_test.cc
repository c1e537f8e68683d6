// Dtype layer tests (DESIGN.md, "Dtype layer & SIMD dispatch").
//
// Four invariants, each load-bearing for the f32 serving path:
//   1. SIMD-vs-scalar — both arms of the f32 matmul kernel produce
//      bitwise identical bytes (the dispatch decision must be unobservable);
//   2. accuracy — casting a model to f32 moves its forecast by float
//      rounding only, for every model family;
//   3. plan-vs-module, within dtype — a compiled f32 plan reproduces the
//      f32 module forward bitwise at 1/2/8 pool threads and on either
//      dispatch arm, and an f32 plan rejects f64 input;
//   4. serving — a ModelStore with load_dtype=kF32 halves resident bytes,
//      keeps the wire f64, and serves forecasts within float rounding of
//      the f64 store.

#include <unistd.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "graph/adjacency.h"
#include "models/registry.h"
#include "plan/interpreter.h"
#include "plan/recorder.h"
#include "serve/model_store.h"
#include "serve_test_util.h"
#include "tensor/autograd.h"
#include "tensor/dtype.h"
#include "tensor/ops.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"

namespace emaf {
namespace {

using serve::testutil::Serve;
using tensor::DType;
using tensor::Shape;
using tensor::Tensor;

constexpr int64_t kVars = 5;
constexpr int64_t kSteps = 3;

models::ModelConfig FamilyConfig(const std::string& family) {
  models::ModelConfig config;
  config.family = family;
  config.num_variables = kVars;
  config.input_length = kSteps;
  config.lstm.hidden_units = 8;
  config.a3tgcn.hidden_units = 8;
  config.astgcn.hidden_units = 8;
  config.astgcn.num_blocks = 2;
  config.mtgnn.residual_channels = 8;
  config.mtgnn.conv_channels = 8;
  config.mtgnn.skip_channels = 8;
  config.mtgnn.end_channels = 16;
  config.mtgnn.embedding_dim = 4;
  if (family != "LSTM" && family != "VAR") {
    graph::AdjacencyMatrix adj(kVars);
    for (int64_t i = 0; i + 1 < kVars; ++i) {
      adj.set(i, i + 1, 0.1 + static_cast<double>(i) / 3.0);
      adj.set(i + 1, i, 0.7 - static_cast<double>(i) / 7.0);
    }
    config.adjacency = adj;
  }
  return config;
}

void ExpectBitwiseEqual(const Tensor& a, const Tensor& b,
                        const std::string& context) {
  ASSERT_EQ(a.dtype(), b.dtype()) << context;
  ASSERT_EQ(a.shape(), b.shape()) << context;
  EXPECT_EQ(std::memcmp(a.raw_data(), b.raw_data(),
                        static_cast<size_t>(a.byte_size())),
            0)
      << context;
}

// Restores the dispatch arm (and thread count) no matter how a test exits,
// so a failing assertion cannot leak a forced-scalar process state into
// later suites.
class DispatchGuard {
 public:
  DispatchGuard() : was_enabled_(tensor::simd::Enabled()) {}
  ~DispatchGuard() {
    tensor::simd::SetEnabledForTest(was_enabled_);
    common::ThreadPool::SetGlobalNumThreads(1);
  }

 private:
  bool was_enabled_;
};

// --- Tensor-level cast semantics --------------------------------------------

TEST(DtypeTest, CastRoundTripAndSharing) {
  Rng rng(3);
  Tensor x = Tensor::Uniform(Shape{4, 7}, -2, 2, &rng);
  ASSERT_EQ(x.dtype(), DType::kF64);
  EXPECT_EQ(x.byte_size(), 4 * 7 * int64_t{8});

  // Matching cast is free: same storage, not a copy.
  Tensor same = x.CastTo(DType::kF64);
  EXPECT_EQ(same.raw_data(), x.raw_data());

  Tensor f32 = x.CastTo(DType::kF32);
  EXPECT_EQ(f32.dtype(), DType::kF32);
  EXPECT_EQ(f32.byte_size(), 4 * 7 * int64_t{4});
  const double* xd = x.data();
  const float* f = f32.data<float>();
  for (int64_t i = 0; i < x.NumElements(); ++i) {
    EXPECT_EQ(f[i], static_cast<float>(xd[i]));
  }

  // Round-tripping back to f64 is exact for values that started as f64
  // only up to float rounding; widening the f32 values back is exact.
  Tensor back = f32.CastTo(DType::kF64);
  const double* bd = back.data();
  for (int64_t i = 0; i < x.NumElements(); ++i) {
    EXPECT_EQ(bd[i], static_cast<double>(f[i]));
  }
}

// --- SIMD vs scalar: kernel-level bitwise equality --------------------------

std::vector<float> RandomFloats(int64_t n, Rng* rng) {
  std::vector<float> v(static_cast<size_t>(n));
  Tensor t = Tensor::Uniform(Shape{n}, -3.0, 3.0, rng);
  const double* d = t.data();
  for (int64_t i = 0; i < n; ++i) v[static_cast<size_t>(i)] = static_cast<float>(d[i]);
  return v;
}

TEST(SimdDispatchTest, MatMulBitwiseAcrossArms) {
  DispatchGuard guard;
  Rng rng(11);
  for (int64_t m : {1, 2, 5}) {
    for (int64_t k : {1, 7, 24}) {
      for (int64_t n : {1, 8, 13, 33}) {
        std::vector<float> a = RandomFloats(m * k, &rng);
        std::vector<float> b = RandomFloats(k * n, &rng);
        std::vector<float> c_simd(static_cast<size_t>(m * n), 0.0f);
        std::vector<float> c_scalar(static_cast<size_t>(m * n), 0.0f);
        tensor::simd::SetEnabledForTest(true);
        tensor::simd::MatMulF32(a.data(), b.data(), c_simd.data(), m, k, n, n);
        tensor::simd::SetEnabledForTest(false);
        tensor::simd::MatMulF32(a.data(), b.data(), c_scalar.data(), m, k, n,
                                n);
        EXPECT_EQ(std::memcmp(c_simd.data(), c_scalar.data(),
                              c_simd.size() * sizeof(float)),
                  0)
            << "m=" << m << " k=" << k << " n=" << n;
      }
    }
  }
}

// The f64 kernel's byte contract spelled out: one fma chain per element in
// ascending k, skipping kk when every A value of the element's aligned
// 4-row group is zero (for a remainder row, when its own value is).
std::vector<double> ReferenceMatMulF64(const std::vector<double>& a,
                                       const std::vector<double>& b,
                                       std::vector<double> c, int64_t m,
                                       int64_t k, int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    const int64_t lo = i < m / 4 * 4 ? i / 4 * 4 : i;
    const int64_t hi = i < m / 4 * 4 ? lo + 4 : i + 1;
    for (int64_t kk = 0; kk < k; ++kk) {
      bool skip = true;
      for (int64_t r = lo; r < hi; ++r) skip = skip && a[r * k + kk] == 0.0;
      if (skip) continue;
      for (int64_t j = 0; j < n; ++j) {
        c[i * n + j] = std::fma(a[i * k + kk], b[kk * n + j], c[i * n + j]);
      }
    }
  }
  return c;
}

TEST(SimdDispatchTest, MatMulF64BitwiseAcrossArms) {
  DispatchGuard guard;
  Rng rng(17);
  // x86's default NaN, the one 0 * Inf produces: with a single NaN bit
  // pattern in play the result bytes do not depend on which NaN operand
  // an FMA instruction propagates.
  const double nan = std::bit_cast<double>(uint64_t{0xFFF8000000000000});
  const double inf = std::numeric_limits<double>::infinity();
  for (int64_t m : {1, 3, 4, 5, 8, 9}) {
    for (int64_t k : {1, 7, 26}) {
      for (int64_t n : {1, 3, 4, 5, 12, 13, 26, 33, 96}) {
        // A: per 4-row group (or remainder row) and kk, all rows zero,
        // some rows zero (either sign), or none.
        std::vector<double> a(static_cast<size_t>(m * k));
        for (int64_t g = 0; g < m; g += 4) {
          const int64_t rows = g + 4 <= m ? 4 : 1;
          for (int64_t i = g; i < m && i < g + 4; i += rows) {
            for (int64_t kk = 0; kk < k; ++kk) {
              const int64_t pattern = rng.UniformInt(0, 2);
              for (int64_t r = i; r < i + rows; ++r) {
                const bool zero =
                    pattern == 0 || (pattern == 1 && rng.Bernoulli(0.5));
                a[static_cast<size_t>(r * k + kk)] =
                    zero ? (rng.Bernoulli(0.5) ? 0.0 : -0.0)
                         : rng.Uniform(-2.0, 2.0);
              }
            }
          }
        }
        // B and the partial sum C: mostly finite, with Inf, NaN and -0.0.
        auto special = [&](int64_t count) {
          std::vector<double> v(static_cast<size_t>(count));
          for (double& x : v) {
            const int64_t pick = rng.UniformInt(0, 15);
            x = pick == 0 ? inf : pick == 1 ? -inf : pick == 2 ? nan
                : pick == 3 ? -0.0 : rng.Uniform(-3.0, 3.0);
          }
          return v;
        };
        const std::vector<double> b = special(k * n);
        const std::vector<double> c0 = special(m * n);
        std::vector<double> c_simd = c0;
        std::vector<double> c_scalar = c0;
        tensor::simd::SetEnabledForTest(true);
        tensor::simd::MatMulF64(a.data(), b.data(), c_simd.data(), m, k, n, n);
        tensor::simd::SetEnabledForTest(false);
        tensor::simd::MatMulF64(a.data(), b.data(), c_scalar.data(), m, k, n,
                                n);
        const std::vector<double> reference =
            ReferenceMatMulF64(a, b, c0, m, k, n);
        const size_t bytes = c0.size() * sizeof(double);
        EXPECT_EQ(std::memcmp(c_simd.data(), c_scalar.data(), bytes), 0)
            << "arms differ at m=" << m << " k=" << k << " n=" << n;
        EXPECT_EQ(std::memcmp(c_scalar.data(), reference.data(), bytes), 0)
            << "scalar arm vs reference at m=" << m << " k=" << k
            << " n=" << n;
      }
    }
  }
}

// --- Per-family f32 accuracy and bitwise plan equivalence -------------------

class DtypeFamilyTest : public ::testing::TestWithParam<std::string> {};

// Casting a model to f32 perturbs its forecast by float rounding only:
// bounded relative to the f64 output scale, far beyond any training-level
// signal but far from garbage. This is the accuracy contract
// ModelStoreOptions::load_dtype documents.
TEST_P(DtypeFamilyTest, F32ForecastWithinFloatRoundingOfF64) {
  models::ModelConfig config = FamilyConfig(GetParam());
  Rng rng(21);
  std::unique_ptr<models::Forecaster> model =
      models::CreateForecasterOrDie(config, &rng);
  model->SetTraining(false);
  tensor::NoGradGuard no_grad;

  Rng data_rng(22);
  Tensor window = Tensor::Uniform(Shape{3, kSteps, kVars}, -1, 1, &data_rng);
  Tensor f64_out = model->Forward(window);

  model->CastTo(DType::kF32);
  EXPECT_EQ(model->dtype(), DType::kF32);
  Tensor f32_out = model->Forward(window.CastTo(DType::kF32));
  ASSERT_EQ(f32_out.dtype(), DType::kF32);
  ASSERT_EQ(f32_out.shape(), f64_out.shape());

  const double* ref = f64_out.data();
  const float* got = f32_out.data<float>();
  double max_abs_ref = 0.0;
  double max_abs_err = 0.0;
  for (int64_t i = 0; i < f64_out.NumElements(); ++i) {
    max_abs_ref = std::max(max_abs_ref, std::abs(ref[i]));
    max_abs_err =
        std::max(max_abs_err, std::abs(ref[i] - static_cast<double>(got[i])));
  }
  EXPECT_LE(max_abs_err, 1e-3 * (1.0 + max_abs_ref))
      << GetParam() << ": max|f64 - f32| = " << max_abs_err
      << " at output scale " << max_abs_ref;
}

// A plan compiled from an f32 forward replays it bitwise — at 1/2/8 pool
// threads and on both dispatch arms. Same anchor the f64 path has had
// since the plan layer landed, now per dtype.
TEST_P(DtypeFamilyTest, F32PlanMatchesModuleBitwiseAcrossThreadsAndArms) {
  DispatchGuard guard;
  models::ModelConfig config = FamilyConfig(GetParam());
  Rng rng(31);
  std::unique_ptr<models::Forecaster> model =
      models::CreateForecasterOrDie(config, &rng);
  model->SetTraining(false);
  model->CastTo(DType::kF32);
  tensor::NoGradGuard no_grad;

  Rng data_rng(32);
  Tensor window =
      Tensor::Uniform(Shape{2, kSteps, kVars}, -1, 1, &data_rng)
          .CastTo(DType::kF32);

  Result<std::shared_ptr<const plan::Plan>> compiled =
      plan::Compile(model.get(), window);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_EQ(compiled.value()->dtype, DType::kF32);

  // The f32 plan refuses f64 input rather than silently reinterpreting.
  Tensor f64_window = window.CastTo(DType::kF64);
  Result<Tensor> wrong = plan::Execute(*compiled.value(), f64_window, nullptr);
  EXPECT_EQ(wrong.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(wrong.status().message().find("f64"), std::string::npos)
      << wrong.status().message();

  for (bool simd_arm : {true, false}) {
    tensor::simd::SetEnabledForTest(simd_arm);
    Tensor module_out = model->Forward(window);
    for (int64_t threads : {1, 2, 8}) {
      common::ThreadPool::SetGlobalNumThreads(threads);
      Result<Tensor> plan_out = plan::Execute(*compiled.value(), window, nullptr);
      ASSERT_TRUE(plan_out.ok()) << plan_out.status().ToString();
      ExpectBitwiseEqual(module_out, plan_out.value(),
                         GetParam() + " simd=" + (simd_arm ? "on" : "off") +
                             " threads=" + std::to_string(threads));
    }
    common::ThreadPool::SetGlobalNumThreads(1);
  }
}

// The whole f32 forward — module path, not just kernels — lands on
// identical bytes whichever dispatch arm ran it.
TEST_P(DtypeFamilyTest, F32ModuleForwardBitwiseAcrossArms) {
  DispatchGuard guard;
  models::ModelConfig config = FamilyConfig(GetParam());
  Rng rng(41);
  std::unique_ptr<models::Forecaster> model =
      models::CreateForecasterOrDie(config, &rng);
  model->SetTraining(false);
  model->CastTo(DType::kF32);
  tensor::NoGradGuard no_grad;

  Rng data_rng(42);
  Tensor window =
      Tensor::Uniform(Shape{2, kSteps, kVars}, -1, 1, &data_rng)
          .CastTo(DType::kF32);

  tensor::simd::SetEnabledForTest(true);
  Tensor simd_out = model->Forward(window);
  tensor::simd::SetEnabledForTest(false);
  Tensor scalar_out = model->Forward(window);
  ExpectBitwiseEqual(simd_out, scalar_out, GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, DtypeFamilyTest,
                         ::testing::Values("LSTM", "VAR", "A3TGCN", "ASTGCN",
                                           "MTGNN"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

// --- Store-level f32 serving ------------------------------------------------

// Opens `dir` with residents cast to `dtype`.
serve::ModelStore OpenStoreOrDie(const std::string& dir, DType dtype) {
  serve::ModelStoreOptions options;
  options.load_dtype = dtype;
  Result<serve::ModelStore> store = serve::ModelStore::Open(dir, options);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return std::move(store).value();
}

class DtypeStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Pid-unique: dtype_test and dtype_test_nosimd run this fixture
    // concurrently under `ctest -j` and must not share the directory.
    dir_ = std::string(::testing::TempDir()) + "/dtype_store_snapshots_" +
           std::to_string(::getpid());
    std::filesystem::remove_all(dir_);
    ASSERT_TRUE(std::filesystem::create_directories(dir_));
    for (const char* spec : {"i00:LSTM", "i01:MTGNN"}) {
      std::string id(spec, 3);
      models::ModelConfig config = FamilyConfig(spec + 4);
      Rng rng(std::hash<std::string>{}(id));
      std::unique_ptr<models::Forecaster> model =
          models::CreateForecasterOrDie(config, &rng);
      ASSERT_TRUE(models::SaveForecasterSnapshot(
                      model.get(), config, dir_ + "/" + id + ".snapshot")
                      .ok());
    }
  }

  std::string dir_;
};

TEST_F(DtypeStoreTest, F32StoreHalvesResidentBytesAndKeepsWireF64) {
  serve::ModelStore f64_store = OpenStoreOrDie(dir_, DType::kF64);
  serve::ModelStore f32_store = OpenStoreOrDie(dir_, DType::kF32);
  tensor::InferenceArena arena;

  Rng data_rng(55);
  Tensor window = Tensor::Uniform(Shape{1, kSteps, kVars}, -1, 1, &data_rng);
  for (const std::string& id : f64_store.individual_ids()) {
    Result<Tensor> ref = Serve(&f64_store, &arena, id, window);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    Result<Tensor> got = Serve(&f32_store, &arena, id, window);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    // The wire dtype never changes: f64 in, f64 out, whatever the
    // resident dtype.
    ASSERT_EQ(got.value().dtype(), DType::kF64);
    ASSERT_EQ(got.value().shape(), ref.value().shape());
    const double* r = ref.value().data();
    const double* g = got.value().data();
    for (int64_t i = 0; i < ref.value().NumElements(); ++i) {
      EXPECT_NEAR(r[i], g[i], 1e-3 * (1.0 + std::abs(r[i]))) << id;
    }
  }

  // Residency accounting reflects the real in-memory element width: with
  // every model resident, the f32 store holds exactly half the parameter
  // bytes of the f64 store.
  int64_t f64_bytes = f64_store.stats().resident_bytes;
  int64_t f32_bytes = f32_store.stats().resident_bytes;
  ASSERT_GT(f64_bytes, 0);
  EXPECT_EQ(f64_store.stats().resident_models, 2);
  EXPECT_EQ(f32_store.stats().resident_models, 2);
  EXPECT_EQ(f32_bytes * 2, f64_bytes);
}

// Repeated f32 forecasts for one id are bitwise identical — determinism
// survives the boundary casts and the plan warm-up.
TEST_F(DtypeStoreTest, F32ForecastsAreDeterministic) {
  serve::ModelStore store = OpenStoreOrDie(dir_, DType::kF32);
  tensor::InferenceArena arena;

  Rng data_rng(66);
  Tensor window = Tensor::Uniform(Shape{1, kSteps, kVars}, -1, 1, &data_rng);
  Result<Tensor> first = Serve(&store, &arena, "i00", window);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  for (int round = 0; round < 3; ++round) {
    Result<Tensor> again = Serve(&store, &arena, "i00", window);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    ExpectBitwiseEqual(first.value(), again.value(),
                       "round " + std::to_string(round));
  }
}

}  // namespace
}  // namespace emaf
