// ModelStore unit + concurrency + fault suite (ctest labels: store, fast,
// tsan, fault). Covers lazy loading, LRU eviction under model/byte
// budgets, pin semantics (kResourceExhausted only when nothing is
// evictable, and without evicting when one model outgrows the byte
// budget), the v1-snapshot error contract, fault injection on load and
// evict with per-tenant isolation, eviction-then-reload byte identity, a
// model-based check of the LRU against a reference, and an 8-thread
// get/evict/reload hammer (no use-after-evict: handles pin and co-own
// their model).

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "core/evaluator.h"
#include "models/registry.h"
#include "nn/serialize.h"
#include "serve/model_store.h"
#include "serve_test_util.h"
#include "tensor/tensor.h"

namespace emaf::serve {
namespace {

using testutil::MakeTinySnapshotDir;
using testutil::TinyWindow;

const std::vector<std::string>& Ids() {
  static const std::vector<std::string> ids = {"i0", "i1", "i2",
                                               "i3", "i4", "i5"};
  return ids;
}

class ModelStoreTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new std::string(::testing::TempDir() + "/model_store_snapshots");
    expected_ = new std::map<std::string, std::vector<double>>(
        MakeTinySnapshotDir(*dir_, Ids()));
    window_ = new tensor::Tensor(TinyWindow());
  }

  static void TearDownTestSuite() {
    std::filesystem::remove_all(*dir_);
    delete window_;
    window_ = nullptr;
    delete expected_;
    expected_ = nullptr;
    delete dir_;
    dir_ = nullptr;
  }

  static ModelStore OpenOrDie(const ModelStoreOptions& options = {}) {
    Result<ModelStore> store = ModelStore::Open(*dir_, options);
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    return std::move(store).value();
  }

  // Serves one request and checks the bytes against the ground truth.
  static void ExpectServesExact(ModelStore& store, const std::string& id) {
    Result<ModelHandle> handle = store.Get(id);
    ASSERT_TRUE(handle.ok()) << id << ": " << handle.status().ToString();
    EXPECT_EQ(core::Predict(handle.value().get(), *window_).ToVector(),
              expected_->at(id))
        << id;
  }

  static std::string* dir_;
  static std::map<std::string, std::vector<double>>* expected_;
  static tensor::Tensor* window_;
};

std::string* ModelStoreTest::dir_ = nullptr;
std::map<std::string, std::vector<double>>* ModelStoreTest::expected_ =
    nullptr;
tensor::Tensor* ModelStoreTest::window_ = nullptr;

TEST_F(ModelStoreTest, OpenListsWithoutLoading) {
  ModelStore store = OpenOrDie();
  EXPECT_EQ(store.num_known_models(), 6);
  EXPECT_EQ(store.individual_ids(), Ids());
  for (const std::string& id : Ids()) {
    EXPECT_FALSE(store.resident(id)) << id;
  }
  ModelStore::Stats stats = store.stats();
  EXPECT_EQ(stats.cold_loads, 0u);
  EXPECT_EQ(stats.resident_models, 0);
  EXPECT_EQ(stats.resident_bytes, 0);
}

TEST_F(ModelStoreTest, MissingAndEmptyDirectoriesAreNotFound) {
  EXPECT_EQ(ModelStore::Open("/nonexistent/snapshots").status().code(),
            StatusCode::kNotFound);
  std::string empty_dir = ::testing::TempDir() + "/model_store_empty";
  std::filesystem::create_directories(empty_dir);
  EXPECT_EQ(ModelStore::Open(empty_dir).status().code(),
            StatusCode::kNotFound);
}

TEST_F(ModelStoreTest, UnknownIdIsNotFound) {
  ModelStore store = OpenOrDie();
  EXPECT_EQ(store.Get("stranger").status().code(), StatusCode::kNotFound);
}

TEST_F(ModelStoreTest, LazyColdLoadThenWarmHit) {
  ModelStore store = OpenOrDie();
  ExpectServesExact(store, "i0");
  EXPECT_TRUE(store.resident("i0"));
  ModelStore::Stats after_cold = store.stats();
  EXPECT_EQ(after_cold.cold_loads, 1u);
  EXPECT_EQ(after_cold.warm_hits, 0u);
  EXPECT_EQ(after_cold.resident_models, 1);
  EXPECT_GT(after_cold.resident_bytes, 0);

  ExpectServesExact(store, "i0");
  ModelStore::Stats after_warm = store.stats();
  EXPECT_EQ(after_warm.cold_loads, 1u);  // no second disk load
  EXPECT_EQ(after_warm.warm_hits, 1u);
}

TEST_F(ModelStoreTest, EvictsLeastRecentlyUsedIdleModel) {
  ModelStoreOptions options;
  options.max_resident_models = 2;
  ModelStore store = OpenOrDie(options);
  ExpectServesExact(store, "i0");
  ExpectServesExact(store, "i1");
  EXPECT_EQ(store.stats().evictions, 0u);

  // Third load exceeds the budget; i0 is the least recently used.
  ExpectServesExact(store, "i2");
  EXPECT_FALSE(store.resident("i0"));
  EXPECT_TRUE(store.resident("i1"));
  EXPECT_TRUE(store.resident("i2"));
  EXPECT_EQ(store.stats().evictions, 1u);
  EXPECT_EQ(store.stats().resident_models, 2);

  // Touching i1 makes i2 the LRU victim for the next load.
  ExpectServesExact(store, "i1");
  ExpectServesExact(store, "i3");
  EXPECT_TRUE(store.resident("i1"));
  EXPECT_FALSE(store.resident("i2"));
  EXPECT_TRUE(store.resident("i3"));
  EXPECT_EQ(store.stats().evictions, 2u);
}

TEST_F(ModelStoreTest, PinnedModelsAreNeverEvicted) {
  ModelStoreOptions options;
  options.max_resident_models = 1;
  ModelStore store = OpenOrDie(options);
  Result<ModelHandle> pinned = store.Get("i0");
  ASSERT_TRUE(pinned.ok());

  // The only resident model is pinned: nothing evictable, so the budget
  // check must reject rather than evict-in-use or block.
  Result<ModelHandle> second = store.Get("i1");
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(store.stats().exhausted, 1u);
  EXPECT_TRUE(store.resident("i0"));

  // The pinned handle still serves correct bytes after the rejection.
  EXPECT_EQ(core::Predict(pinned.value().get(), *window_).ToVector(),
            expected_->at("i0"));

  // Releasing the pin makes i0 evictable and i1 loadable.
  pinned = Result<ModelHandle>(ModelHandle());
  ExpectServesExact(store, "i1");
  EXPECT_FALSE(store.resident("i0"));
  EXPECT_TRUE(store.resident("i1"));
}

TEST_F(ModelStoreTest, EvictionThenReloadIsByteIdentical) {
  ModelStoreOptions options;
  options.max_resident_models = 1;
  ModelStore constrained = OpenOrDie(options);
  ModelStore never_evicted = OpenOrDie();  // unconstrained reference

  Result<ModelHandle> reference = never_evicted.Get("i0");
  ASSERT_TRUE(reference.ok());
  std::vector<double> reference_bytes =
      core::Predict(reference.value().get(), *window_).ToVector();

  ExpectServesExact(constrained, "i0");
  ExpectServesExact(constrained, "i1");  // evicts i0
  EXPECT_FALSE(constrained.resident("i0"));
  Result<ModelHandle> reloaded = constrained.Get("i0");  // reload from disk
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(constrained.stats().evictions, 2u);
  // A reloaded model forecasts bit-identically to one never evicted.
  EXPECT_EQ(core::Predict(reloaded.value().get(), *window_).ToVector(),
            reference_bytes);
}

TEST_F(ModelStoreTest, ByteBudgetBoundsResidency) {
  int64_t snapshot_bytes = static_cast<int64_t>(
      std::filesystem::file_size(*dir_ + "/i0.snapshot"));
  ASSERT_GT(snapshot_bytes, 0);
  ModelStoreOptions options;
  options.max_resident_bytes = snapshot_bytes + snapshot_bytes / 2;  // one fits
  ModelStore store = OpenOrDie(options);
  ExpectServesExact(store, "i0");
  ExpectServesExact(store, "i1");
  EXPECT_EQ(store.stats().evictions, 1u);
  EXPECT_EQ(store.stats().resident_models, 1);
  EXPECT_LE(store.stats().resident_bytes, options.max_resident_bytes);
}

TEST_F(ModelStoreTest, EvictIdleShedsEverythingUnpinned) {
  ModelStore store = OpenOrDie();
  ExpectServesExact(store, "i0");
  ExpectServesExact(store, "i1");
  ExpectServesExact(store, "i2");
  Result<ModelHandle> pinned = store.Get("i3");
  ASSERT_TRUE(pinned.ok());
  EXPECT_EQ(store.EvictIdle(), 3);  // everything but the pinned one
  EXPECT_EQ(store.stats().resident_models, 1);
  EXPECT_TRUE(store.resident("i3"));
  EXPECT_EQ(store.EvictIdle(), 0);
}

TEST_F(ModelStoreTest, MetricsRecordColdLoadsAndEvictions) {
  if (!obs::kMetricsEnabled) GTEST_SKIP();
  obs::Registry& registry = obs::Registry::Global();
  uint64_t cold_before =
      registry.GetCounter("serve.store.cold_loads_total")->value();
  uint64_t evictions_before =
      registry.GetCounter("serve.store.evictions_total")->value();
  ModelStoreOptions options;
  options.max_resident_models = 1;
  ModelStore store = OpenOrDie(options);
  ExpectServesExact(store, "i0");
  ExpectServesExact(store, "i1");  // evicts i0
  ExpectServesExact(store, "i1");  // warm
  EXPECT_EQ(registry.GetCounter("serve.store.cold_loads_total")->value(),
            cold_before + 2);
  EXPECT_EQ(registry.GetCounter("serve.store.evictions_total")->value(),
            evictions_before + 1);
  EXPECT_EQ(registry.GetGauge("serve.store.resident_models")->value(), 1.0);
  double hit_rate = registry.GetGauge("serve.store.hit_rate")->value();
  EXPECT_GT(hit_rate, 0.0);
  EXPECT_LE(hit_rate, 1.0);
  EXPECT_GE(registry
                .GetHistogram("serve.store.cold_load_seconds",
                              obs::DefaultSecondsBounds())
                ->count(),
            2u);
  EXPECT_GE(registry
                .GetHistogram("serve.store.warm_acquire_seconds",
                              obs::DefaultSecondsBounds())
                ->count(),
            1u);
}

TEST_F(ModelStoreTest, V1SnapshotIsRejectedNamingFileAndVersion) {
  // Build a directory holding a v1 (config-less) snapshot via byte
  // surgery: strip the config-length field and patch the version word.
  // Only v3 is readable, so the load fails on the version word.
  std::string v1_dir = ::testing::TempDir() + "/model_store_v1";
  std::filesystem::remove_all(v1_dir);
  ASSERT_TRUE(std::filesystem::create_directories(v1_dir));
  models::ModelConfig config = testutil::TinyLstmConfig();
  Rng rng(7);
  std::unique_ptr<models::Forecaster> model =
      models::CreateForecasterOrDie(config, &rng);
  std::string v2_path = v1_dir + "/tmp_v2.bin";
  ASSERT_TRUE(nn::SaveParameters(model.get(), v2_path).ok());
  std::string v2_bytes;
  {
    std::ifstream in(v2_path, std::ios::binary);
    v2_bytes.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
  }
  std::filesystem::remove(v2_path);
  std::string v1_path = v1_dir + "/legacy.snapshot";
  {
    std::ofstream out(v1_path, std::ios::binary | std::ios::trunc);
    out << v2_bytes.substr(0, 4);
    uint32_t version = 1;
    out.write(reinterpret_cast<const char*>(&version), sizeof(version));
    out << v2_bytes.substr(16);  // skip v2's version + (zero) config_len
  }

  Result<ModelStore> store = ModelStore::Open(v1_dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  Result<ModelHandle> handle = store.value().Get("legacy");
  EXPECT_EQ(handle.status().code(), StatusCode::kInvalidArgument);
  // The error names the offending file and its version.
  EXPECT_NE(handle.status().message().find(v1_path), std::string::npos)
      << handle.status().message();
  EXPECT_NE(handle.status().message().find("version 1"), std::string::npos)
      << handle.status().message();
  EXPECT_EQ(store.value().stats().load_failures, 1u);
  std::filesystem::remove_all(v1_dir);
}

TEST_F(ModelStoreTest, LoadFaultDegradesOnlyThatTenant) {
  if (!fault::kFaultInjectionEnabled) GTEST_SKIP();
  ModelStore store = OpenOrDie();
  ASSERT_TRUE(fault::Configure("serve.store.load/i2=1", 1).ok());
  Result<ModelHandle> faulted = store.Get("i2");
  EXPECT_EQ(faulted.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(store.stats().load_failures, 1u);
  // Other tenants are unaffected by i2's failure.
  ExpectServesExact(store, "i0");
  ExpectServesExact(store, "i3");
  ASSERT_TRUE(fault::Configure("", 0).ok());
  // The fault was transient: the same tenant recovers on retry.
  ExpectServesExact(store, "i2");
}

TEST_F(ModelStoreTest, EvictFaultMakesVictimTemporarilyUnevictable) {
  if (!fault::kFaultInjectionEnabled) GTEST_SKIP();
  ModelStoreOptions options;
  options.max_resident_models = 1;
  ModelStore store = OpenOrDie(options);
  ExpectServesExact(store, "i0");
  // With the only candidate's eviction fault-blocked, the budget cannot
  // be met: the load is rejected, and i0 stays resident and servable.
  ASSERT_TRUE(fault::Configure("serve.store.evict/i0=1", 1).ok());
  Result<ModelHandle> blocked = store.Get("i1");
  EXPECT_EQ(blocked.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(store.resident("i0"));
  EXPECT_EQ(store.stats().evictions, 0u);
  ASSERT_TRUE(fault::Configure("", 0).ok());
  ExpectServesExact(store, "i1");
  EXPECT_EQ(store.stats().evictions, 1u);
}

TEST_F(ModelStoreTest, ModelLargerThanByteBudgetFailsWithoutEvicting) {
  const std::string dir = ::testing::TempDir() + "/model_store_oversized";
  MakeTinySnapshotDir(dir, {"i0", "i1"});
  models::ModelConfig big = testutil::TinyLstmConfig();
  big.lstm.hidden_units = 64;
  Rng rng(11);
  ASSERT_TRUE(models::SaveForecasterSnapshot(
                  models::CreateForecasterOrDie(big, &rng).get(), big,
                  dir + "/big.snapshot")
                  .ok());
  const int64_t tiny_bytes = static_cast<int64_t>(
      std::filesystem::file_size(dir + "/i0.snapshot"));
  ASSERT_GT(static_cast<int64_t>(std::filesystem::file_size(
                dir + "/big.snapshot")),
            3 * tiny_bytes);
  ModelStoreOptions options;
  options.max_resident_bytes = 3 * tiny_bytes;  // both tiny models fit
  Result<ModelStore> opened = ModelStore::Open(dir, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ModelStore& store = opened.value();
  ASSERT_TRUE(store.Get("i0").ok());
  ASSERT_TRUE(store.Get("i1").ok());

  // The big model cannot fit even in an empty store, so nothing is evicted
  // to make room for it.
  Result<ModelHandle> rejected = store.Get("big");
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(rejected.status().message().find(
                StrCat("max_resident_bytes=", options.max_resident_bytes)),
            std::string::npos)
      << rejected.status().message();
  EXPECT_NE(rejected.status().message().find("estimated"), std::string::npos)
      << rejected.status().message();
  EXPECT_EQ(store.stats().evictions, 0u);
  EXPECT_EQ(store.stats().exhausted, 1u);
  EXPECT_TRUE(store.resident("i0"));
  EXPECT_TRUE(store.resident("i1"));
  EXPECT_EQ(store.stats().resident_models, 2);
  std::filesystem::remove_all(dir);
}

// A reference LRU over tenants: which are resident, their recency, their
// pins. A Get or a release touches its tenant; a miss evicts the least
// recently touched unpinned tenant while the budget is full.
struct ReferenceLru {
  size_t budget = 0;
  uint64_t tick = 0, cold_loads = 0, evictions = 0, exhausted = 0;
  std::map<int, uint64_t> last_used;  // resident tenants
  std::map<int, int> pins;

  bool Get(int tenant) {
    if (last_used.count(tenant) == 0) {
      while (last_used.size() + 1 > budget) {
        auto victim = last_used.end();
        for (auto it = last_used.begin(); it != last_used.end(); ++it) {
          if (pins[it->first] == 0 &&
              (victim == last_used.end() || it->second < victim->second)) {
            victim = it;
          }
        }
        if (victim == last_used.end()) return ++exhausted, false;
        last_used.erase(victim);
        ++evictions;
      }
      ++cold_loads;
    }
    last_used[tenant] = ++tick;
    ++pins[tenant];
    return true;
  }

  void Release(int tenant) {
    --pins[tenant];
    last_used[tenant] = ++tick;
  }
};

// 2000 seeded Gets, some holding their handles, over 40 tenants aliasing
// 20 files with a 5-model budget; after every step the store's residency
// and counters must equal the reference's.
TEST_F(ModelStoreTest, LruMatchesReferenceModel) {
  constexpr int kFiles = 20;
  constexpr int kTenants = 40;
  const std::string dir = ::testing::TempDir() + "/model_store_lru_model";
  std::vector<std::string> files;
  for (int k = 0; k < kFiles; ++k) files.push_back(StrCat("f", k));
  MakeTinySnapshotDir(dir, files);
  std::map<std::string, std::string> manifest;
  for (int i = 0; i < kTenants; ++i) {
    manifest.emplace(StrCat("t", i), StrCat("f", i % kFiles, ".snapshot"));
  }
  ASSERT_TRUE(WriteManifest(dir, manifest).ok());
  ModelStoreOptions options;
  options.max_resident_models = 5;
  Result<ModelStore> opened = ModelStore::Open(dir, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ModelStore& store = opened.value();
  ReferenceLru reference;
  reference.budget = 5;
  // Held handles with their tenants; up to 5 pins can exhaust the budget.
  std::vector<std::pair<ModelHandle, int>> held;
  Rng rng(20261017);
  for (int step = 0; step < 2000; ++step) {
    if (!held.empty() && rng.Uniform() < 0.3) {
      const size_t k = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(held.size()) - 1));
      reference.Release(held[k].second);
      held.erase(held.begin() + static_cast<std::ptrdiff_t>(k));
    }
    const int tenant = static_cast<int>(rng.UniformInt(0, kTenants - 1));
    Result<ModelHandle> handle = store.Get(StrCat("t", tenant));
    const bool admitted = reference.Get(tenant);
    ASSERT_EQ(handle.ok(), admitted)
        << "step " << step << ": " << handle.status().ToString();
    if (admitted) {
      if (held.size() < 5 && rng.Uniform() < 0.2) {
        held.emplace_back(std::move(handle).value(), tenant);
      } else {
        handle = Result<ModelHandle>(ModelHandle());
        reference.Release(tenant);
      }
    } else {
      EXPECT_EQ(handle.status().code(), StatusCode::kResourceExhausted);
    }
    const ModelStore::Stats stats = store.stats();
    ASSERT_EQ(stats.cold_loads, reference.cold_loads) << "step " << step;
    ASSERT_EQ(stats.evictions, reference.evictions) << "step " << step;
    ASSERT_EQ(stats.exhausted, reference.exhausted) << "step " << step;
    ASSERT_EQ(stats.resident_models,
              static_cast<int64_t>(reference.last_used.size()))
        << "step " << step;
    for (int t = 0; t < kTenants; ++t) {
      ASSERT_EQ(store.resident(StrCat("t", t)),
                reference.last_used.count(t) == 1)
          << "step " << step << " tenant t" << t;
    }
  }
  EXPECT_GT(reference.evictions, 100u);
  EXPECT_GT(reference.exhausted, 0u);
  held.clear();
  std::filesystem::remove_all(dir);
}

// 8 threads hammer a 2-model-budget store over 6 ids with interleaved
// explicit evictions. Pinned handles make use-after-evict impossible; a
// Get may fail with kResourceExhausted when all residents are pinned by
// other threads (more concurrent pins than budget), and every successful
// request must serve exact bytes.
TEST_F(ModelStoreTest, ConcurrentGetEvictReloadServesExactBytes) {
  if (fault::kFaultInjectionEnabled) {
    ASSERT_TRUE(fault::Configure("", 0).ok());
  }
  ModelStoreOptions options;
  options.max_resident_models = 2;
  ModelStore store = OpenOrDie(options);
  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 25;
  std::atomic<int64_t> served{0};
  std::atomic<int64_t> exhausted{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      Rng rng(0xC0FFEE + static_cast<uint64_t>(t));
      for (int iter = 0; iter < kItersPerThread; ++iter) {
        const std::string& id =
            Ids()[rng.UniformInt(0, static_cast<int64_t>(Ids().size()) - 1)];
        Result<ModelHandle> handle = store.Get(id);
        if (!handle.ok()) {
          if (handle.status().code() != StatusCode::kResourceExhausted) {
            failed.store(true);
          }
          exhausted.fetch_add(1);
          continue;
        }
        std::vector<double> bytes =
            core::Predict(handle.value().get(), *window_).ToVector();
        if (bytes != expected_->at(id)) failed.store(true);
        served.fetch_add(1);
        if (iter % 5 == 0) store.EvictIdle(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_FALSE(failed.load()) << "wrong bytes or unexpected status";
  EXPECT_GT(served.load(), 0);
  ModelStore::Stats stats = store.stats();
  EXPECT_EQ(stats.warm_hits + stats.cold_loads,
            static_cast<uint64_t>(served.load()));
  EXPECT_LE(stats.resident_models, 2);
  // After the storm every tenant still serves exact bytes serially.
  for (const std::string& id : Ids()) ExpectServesExact(store, id);
}

}  // namespace
}  // namespace emaf::serve
