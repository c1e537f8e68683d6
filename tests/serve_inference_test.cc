// End-to-end train -> snapshot -> serve tests: for every model family in
// the paper's Table 2, a ModelStore opened on a snapshot directory and
// served through ExecuteForecast (one request) or the RequestScheduler (a
// batch) reproduces core::Predict's test-set predictions byte-for-byte at
// any thread count, serves steady-state requests without heap allocation
// or tape construction, and exposes metrics and fault sites for the
// observability harness.

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/evaluator.h"
#include "core/trainer.h"
#include "graph/adjacency.h"
#include "models/registry.h"
#include "models/var_forecaster.h"
#include "serve/model_store.h"
#include "serve/scheduler.h"
#include "serve_test_util.h"
#include "tensor/arena.h"
#include "tensor/tensor.h"
#include "ts/window.h"

namespace emaf::serve {
namespace {

using tensor::Shape;
using tensor::Tensor;
using testutil::Serve;

constexpr int64_t kVars = 5;
constexpr int64_t kSteps = 3;

graph::AdjacencyMatrix TestGraph() {
  graph::AdjacencyMatrix adj(kVars);
  for (int64_t i = 0; i + 1 < kVars; ++i) {
    adj.set(i, i + 1, 0.1 + static_cast<double>(i) / 3.0);
    adj.set(i + 1, i, 0.7 - static_cast<double>(i) / 7.0);
  }
  return adj;
}

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
  if (family != "LSTM" && family != "VAR") config.adjacency = TestGraph();
  return config;
}

const std::vector<std::string>& AllFamilies() {
  static const std::vector<std::string> families = {"LSTM", "VAR", "A3TGCN",
                                                    "ASTGCN", "MTGNN"};
  return families;
}

ModelStore OpenOrDie(const std::string& dir,
                     const ModelStoreOptions& options = {}) {
  Result<ModelStore> store = ModelStore::Open(dir, options);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return std::move(store).value();
}

// Trains all five families once, snapshots them into one directory, and
// records the predictions core::Predict makes on a fixed test window — the
// ground truth every serving assertion compares against byte-for-byte.
class ServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    namespace fs = std::filesystem;
    dir_ = new std::string(::testing::TempDir() + "/serve_snapshots");
    fs::remove_all(*dir_);
    ASSERT_TRUE(fs::create_directories(*dir_));

    Rng data_rng(71);
    ts::WindowDataset train;
    train.inputs = Tensor::Uniform(Shape{16, kSteps, kVars}, -1, 1, &data_rng);
    train.targets = Tensor::Uniform(Shape{16, kVars}, -1, 1, &data_rng);
    test_inputs_ = new Tensor(
        Tensor::Uniform(Shape{4, kSteps, kVars}, -1, 1, &data_rng));
    expected_ = new std::map<std::string, std::vector<double>>();

    for (size_t i = 0; i < AllFamilies().size(); ++i) {
      const std::string& family = AllFamilies()[i];
      models::ModelConfig config = FamilyConfig(family);
      Rng model_rng(100 + static_cast<uint64_t>(i));
      std::unique_ptr<models::Forecaster> model =
          models::CreateForecasterOrDie(config, &model_rng);
      if (auto* var = dynamic_cast<models::VarForecaster*>(model.get())) {
        var->Fit(train.inputs, train.targets);
      } else {
        core::TrainConfig train_config;
        train_config.epochs = 10;
        core::TrainForecaster(model.get(), train, train_config);
      }
      (*expected_)[family] =
          core::Predict(model.get(), *test_inputs_).ToVector();
      Status saved = models::SaveForecasterSnapshot(
          model.get(), config, *dir_ + "/" + family + ".snapshot");
      ASSERT_TRUE(saved.ok()) << saved.ToString();
    }
  }

  static void TearDownTestSuite() {
    std::filesystem::remove_all(*dir_);
    delete expected_;
    expected_ = nullptr;
    delete test_inputs_;
    test_inputs_ = nullptr;
    delete dir_;
    dir_ = nullptr;
  }

  static std::string* dir_;
  static Tensor* test_inputs_;
  static std::map<std::string, std::vector<double>>* expected_;
};

std::string* ServeTest::dir_ = nullptr;
Tensor* ServeTest::test_inputs_ = nullptr;
std::map<std::string, std::vector<double>>* ServeTest::expected_ = nullptr;

TEST_F(ServeTest, ListsSnapshotsSortedAndGetReturnsEvalModeModels) {
  ModelStore store = OpenOrDie(*dir_);
  EXPECT_EQ(store.num_known_models(), 5);
  // Ids are snapshot filename stems, sorted.
  EXPECT_EQ(store.individual_ids(),
            (std::vector<std::string>{"A3TGCN", "ASTGCN", "LSTM", "MTGNN",
                                      "VAR"}));
  for (const std::string& family : AllFamilies()) {
    Result<ModelHandle> handle = store.Get(family);
    ASSERT_TRUE(handle.ok()) << family << ": " << handle.status().ToString();
    // Eval mode is set once at load; the request path never writes it.
    EXPECT_FALSE(handle.value()->training()) << family;
  }
}

TEST_F(ServeTest, ForecastMatchesEvaluatorBytesForEveryFamily) {
  ModelStore store = OpenOrDie(*dir_);
  tensor::InferenceArena arena;
  for (const std::string& family : AllFamilies()) {
    Result<Tensor> prediction = Serve(&store, &arena, family, *test_inputs_);
    ASSERT_TRUE(prediction.ok()) << family << ": "
                                 << prediction.status().ToString();
    // Byte-for-byte: the snapshot round-trip (weights as raw doubles,
    // adjacency via FormatExact) must lose nothing.
    EXPECT_EQ(prediction.value().ToVector(), expected_->at(family)) << family;
  }
}

TEST_F(ServeTest, BatchIsByteIdenticalAtOneTwoAndEightThreads) {
  ModelStore store = OpenOrDie(*dir_);
  tensor::InferenceArena arena;
  ManualClock clock;
  // One micro-batch per Flush: the whole request vector fans out at once.
  SchedulerOptions options;
  options.max_queue = 0;
  options.max_batch = int64_t{1} << 30;
  options.max_delay_ticks = 0;
  RequestScheduler scheduler(&store, &arena, options, &clock);
  // Two requests per family so threads genuinely contend on shared models.
  std::vector<ForecastRequest> requests;
  for (const std::string& family : AllFamilies()) {
    requests.push_back({family, *test_inputs_});
    requests.push_back({family, *test_inputs_});
  }
  for (int64_t threads : {1, 2, 8}) {
    common::ThreadPool::SetGlobalNumThreads(threads);
    std::vector<RequestTicket> tickets;
    for (const ForecastRequest& request : requests) {
      Result<RequestTicket> ticket = scheduler.Submit(request);
      ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
      tickets.push_back(ticket.value());
    }
    EXPECT_EQ(scheduler.Flush(), static_cast<int64_t>(requests.size()));
    for (size_t i = 0; i < tickets.size(); ++i) {
      const Result<Tensor>& result = tickets[i].result();
      ASSERT_TRUE(result.ok()) << "threads=" << threads << " request " << i;
      EXPECT_EQ(result.value().ToVector(),
                expected_->at(requests[i].individual_id))
          << "threads=" << threads << " request " << i;
    }
  }
  common::ThreadPool::SetGlobalNumThreads(
      static_cast<int64_t>(std::thread::hardware_concurrency()));
}

TEST_F(ServeTest, SteadyStateRequestsAreHeapAndTapeFree) {
  ModelStore store = OpenOrDie(*dir_);
  tensor::InferenceArena arena;
  for (const std::string& family : AllFamilies()) {
    ASSERT_TRUE(Serve(&store, &arena, family, *test_inputs_).ok());  // warm
  }
  tensor::InferenceArena::Stats warm = arena.stats();
  obs::Registry& registry = obs::Registry::Global();
  uint64_t storage_allocs_before =
      registry.GetCounter("tensor.storage_allocs")->value();
  uint64_t gradfn_allocs_before =
      registry.GetCounter("tensor.gradfn_allocs")->value();
  for (const std::string& family : AllFamilies()) {
    ASSERT_TRUE(Serve(&store, &arena, family, *test_inputs_).ok());
  }
  tensor::InferenceArena::Stats steady = arena.stats();
  // Warm pool: the second pass recycles every buffer (no new misses) and
  // allocates nothing on the heap; NoGradGuard keeps the tape empty.
  EXPECT_EQ(steady.misses, warm.misses);
  EXPECT_GT(steady.hits, warm.hits);
  EXPECT_EQ(registry.GetCounter("tensor.storage_allocs")->value(),
            storage_allocs_before);
  EXPECT_EQ(registry.GetCounter("tensor.gradfn_allocs")->value(),
            gradfn_allocs_before);
}

TEST_F(ServeTest, RequestMetricsAreRecorded) {
  obs::Registry& registry = obs::Registry::Global();
  uint64_t requests_before =
      registry.GetCounter("serve.requests_total")->value();
  ModelStore store = OpenOrDie(*dir_);
  tensor::InferenceArena arena;
  ASSERT_TRUE(Serve(&store, &arena, "LSTM", *test_inputs_).ok());
  ASSERT_TRUE(Serve(&store, &arena, "VAR", *test_inputs_).ok());
  if (obs::kMetricsEnabled) {
    EXPECT_EQ(registry.GetCounter("serve.requests_total")->value(),
              requests_before + 2);
    EXPECT_GE(registry
                  .GetHistogram("serve.request_seconds",
                                obs::DefaultSecondsBounds())
                  ->count(),
              2u);
  }
}

// The anchor for budgeted serving: a 2-of-5 residency budget forces
// continual eviction and reload across a request sweep, yet every
// family's bytes match core::Predict's ground truth at 1, 2 and 8
// threads. The sweep runs once per execution path (compiled plans, then
// the module path); both must serve the same bytes, and with plans the
// continual eviction means every reload compiles against a fresh cache —
// a stale plan surviving eviction would diverge from the reloaded weights
// here.
TEST_F(ServeTest, ConstrainedBudgetSweepIsByteIdenticalToGroundTruth) {
  obs::Registry& registry = obs::Registry::Global();
  for (bool use_plans : {true, false}) {
    uint64_t evictions_before =
        obs::kMetricsEnabled
            ? registry.GetCounter("serve.store.evictions_total")->value()
            : 0;
    uint64_t plan_compiles_before =
        obs::kMetricsEnabled
            ? registry.GetCounter("serve.plan_cache_misses")->value()
            : 0;
    ModelStoreOptions options;
    options.max_resident_models = 2;
    ModelStore store = OpenOrDie(*dir_, options);
    tensor::InferenceArena arena;
    // Open lists without loading.
    EXPECT_EQ(store.num_known_models(), 5);
    EXPECT_EQ(store.stats().cold_loads, 0u);

    for (int64_t threads : {1, 2, 8}) {
      common::ThreadPool::SetGlobalNumThreads(threads);
      for (int round = 0; round < 2; ++round) {
        for (const std::string& family : AllFamilies()) {
          Result<Tensor> prediction =
              Serve(&store, &arena, family, *test_inputs_, use_plans);
          ASSERT_TRUE(prediction.ok())
              << family << " plans=" << use_plans << " threads=" << threads
              << ": " << prediction.status().ToString();
          // An evicted-and-reloaded model must serve the same bytes as one
          // that was never evicted — on either execution path.
          EXPECT_EQ(prediction.value().ToVector(), expected_->at(family))
              << family << " plans=" << use_plans << " threads=" << threads;
        }
      }
    }
    common::ThreadPool::SetGlobalNumThreads(1);

    ModelStore::Stats stats = store.stats();
    EXPECT_LE(stats.resident_models, 2);
    // 5 tenants cycling through 2 slots: the budget provably bound.
    EXPECT_GT(stats.evictions, 0u);
    EXPECT_GT(stats.cold_loads, 5u);  // reloads, not just first loads
    if (obs::kMetricsEnabled) {
      EXPECT_GT(registry.GetCounter("serve.store.evictions_total")->value(),
                evictions_before);
      uint64_t plan_compiles =
          registry.GetCounter("serve.plan_cache_misses")->value();
      if (use_plans) {
        // Each reload recompiles (the plan cache dies with residency).
        EXPECT_GT(plan_compiles, plan_compiles_before);
      } else {
        EXPECT_EQ(plan_compiles, plan_compiles_before);
      }
    }
  }
}

// The plan-invalidation contract, pinned end to end: a compiled plan is
// cached per residency, so evicting a model drops its plan with it, and a
// re-request after the snapshot file changed on disk must serve the NEW
// weights' bytes — a stale plan surviving eviction would keep serving the
// old constants.
TEST(ServePlanLifecycle, EvictionDropsCachedPlanAndReloadServesNewWeights) {
  namespace tu = testutil;
  std::string dir = ::testing::TempDir() + "/plan_lifecycle_snapshots";
  std::map<std::string, std::vector<double>> old_expected =
      tu::MakeTinySnapshotDir(dir, {"alpha"});
  Tensor window = tu::TinyWindow();

  obs::Registry& registry = obs::Registry::Global();
  uint64_t hits_before =
      obs::kMetricsEnabled
          ? registry.GetCounter("serve.plan_cache_hits")->value()
          : 0;

  ModelStoreOptions options;
  options.max_resident_models = 1;
  ModelStore store = OpenOrDie(dir, options);
  tensor::InferenceArena arena;

  // Two requests within one residency: the second reuses the cached plan.
  for (int i = 0; i < 2; ++i) {
    Result<Tensor> served = Serve(&store, &arena, "alpha", window);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    EXPECT_EQ(served.value().ToVector(), old_expected.at("alpha"));
  }
  if (obs::kMetricsEnabled) {
    EXPECT_GT(registry.GetCounter("serve.plan_cache_hits")->value(),
              hits_before);
  }

  // Replace the snapshot on disk with a differently-seeded model.
  models::ModelConfig config = tu::TinyLstmConfig();
  Rng rng(990099);
  std::unique_ptr<models::Forecaster> fresh =
      models::CreateForecasterOrDie(config, &rng);
  std::vector<double> new_expected =
      core::Predict(fresh.get(), window).ToVector();
  ASSERT_NE(new_expected, old_expected.at("alpha"));
  ASSERT_TRUE(models::SaveForecasterSnapshot(fresh.get(), config,
                                             dir + "/alpha.snapshot")
                  .ok());

  // Evict: the residency ends and the plan cache must die with it.
  EXPECT_GE(store.EvictIdle(-1), 1);
  Result<Tensor> reloaded = Serve(&store, &arena, "alpha", window);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded.value().ToVector(), new_expected)
      << "stale plan served the pre-reload weights";
  std::filesystem::remove_all(dir);
}

// The cache holds one plan, for the latest window shape: a new batch size
// compiles and replaces it, and returning to the old size compiles again.
// Every reply stays bitwise the module path's.
TEST(ServePlanLifecycle, WindowShapeChangeRecompilesAndReplacesThePlan) {
  namespace tu = testutil;
  std::string dir = ::testing::TempDir() + "/plan_shape_snapshots";
  tu::MakeTinySnapshotDir(dir, {"alpha"});
  ModelStore store = OpenOrDie(dir);
  tensor::InferenceArena arena;
  Result<ModelHandle> handle = store.Get("alpha");
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();

  Rng rng(4242);
  for (int64_t batch : {1, 3, 1}) {
    Tensor window = Tensor::Uniform(
        Shape{batch, tu::kTinySteps, tu::kTinyVars}, -1, 1, &rng);
    Result<Tensor> served =
        ExecuteForecast(handle.value().get(), "alpha", window, &arena,
                        handle.value().plans());
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    EXPECT_EQ(served.value().ToVector(),
              core::Predict(handle.value().get(), window).ToVector())
        << "batch " << batch;
  }
  EXPECT_EQ(handle.value().plans()->compiles(), 3);
  std::filesystem::remove_all(dir);
}

TEST_F(ServeTest, RequestFaultSiteFailsOnlyTheTargetedIndividual) {
  if (!fault::kFaultInjectionEnabled) GTEST_SKIP();
  ModelStore store = OpenOrDie(*dir_);
  tensor::InferenceArena arena;
  ASSERT_TRUE(fault::Configure("serve.request/LSTM=1", 1).ok());
  EXPECT_EQ(Serve(&store, &arena, "LSTM", *test_inputs_).status().code(),
            StatusCode::kUnavailable);
  // The site is scoped per individual: other ids keep serving.
  EXPECT_TRUE(Serve(&store, &arena, "VAR", *test_inputs_).ok());
  ASSERT_TRUE(fault::Configure("", 0).ok());
}

}  // namespace
}  // namespace emaf::serve
