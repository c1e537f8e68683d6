// Hot-swap suite (ctest labels: online, fast, fault, tsan). Pins the
// ModelStore::Publish contracts — retargeting serves the new file's exact
// bytes (a rewrite in place too), in-flight handles finish on the old
// version, the resident-byte accounting survives a swap without leaking,
// the version watermark is monotonic (filename-derived or explicit) — the
// publish fault site
// (old version keeps serving), the full OnlinePipeline loop (append ->
// fine-tune -> publish -> swap == cold engine on the new snapshot), the
// same bytes from updates fanned out at 1/2/8 pool threads, and threaded
// Get-vs-Publish hammers for tsan, one of them under eviction pressure.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/evaluator.h"
#include "models/registry.h"
#include "online/observation_log.h"
#include "online/pipeline.h"
#include "online/publisher.h"
#include "serve/model_store.h"
#include "serve_test_util.h"
#include "tensor/tensor.h"

namespace emaf {
namespace {

namespace fs = std::filesystem;
using serve::ModelHandle;
using serve::ModelStore;

// Every directory of this process lives under one pid-unique root, so two
// runs of the suite at once (ctest --repeat beside a full ctest -j) never
// share files; the root is removed when the suite ends.
const std::string& ProcessRoot() {
  static const std::string* root = new std::string(
      ::testing::TempDir() + "/online_swap_" + std::to_string(::getpid()));
  return *root;
}

class RemoveProcessRoot : public ::testing::Environment {
 public:
  void TearDown() override { fs::remove_all(ProcessRoot()); }
};
[[maybe_unused]] ::testing::Environment* const kRemoveProcessRoot =
    ::testing::AddGlobalTestEnvironment(new RemoveProcessRoot);

std::string FreshDir(const std::string& name) {
  std::string dir = ProcessRoot() + "/" + name;
  fs::remove_all(dir);
  return dir;
}

// Saves a distinct tiny snapshot as `dir/filename` and returns the
// prediction bytes it must serve for TinyWindow().
std::vector<double> SaveDistinctSnapshot(const std::string& dir,
                                         const std::string& filename,
                                         uint64_t seed) {
  models::ModelConfig config = serve::testutil::TinyLstmConfig();
  Rng rng(seed);
  std::unique_ptr<models::Forecaster> model =
      models::CreateForecasterOrDie(config, &rng);
  Status saved = models::SaveForecasterSnapshot(model.get(), config,
                                                dir + "/" + filename);
  EXPECT_TRUE(saved.ok()) << saved.ToString();
  return core::Predict(model.get(), serve::testutil::TinyWindow()).ToVector();
}

std::vector<double> Served(ModelStore& store, const std::string& id) {
  Result<ModelHandle> handle = store.Get(id);
  EXPECT_TRUE(handle.ok()) << handle.status().ToString();
  if (!handle.ok()) return {};
  return core::Predict(handle.value().get(), serve::testutil::TinyWindow())
      .ToVector();
}

TEST(HotSwapTest, PublishRetargetsToNewBytes) {
  const std::string dir = FreshDir("swap_basic");
  auto expected = serve::testutil::MakeTinySnapshotDir(dir, {"i1", "i2"});
  const std::vector<double> fresh =
      SaveDistinctSnapshot(dir, "i1.v1.snapshot", 4242);
  ASSERT_NE(fresh, expected["i1"]);

  Result<ModelStore> opened = ModelStore::Open(dir);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ModelStore& store = opened.value();
  EXPECT_EQ(Served(store, "i1"), expected["i1"]);
  EXPECT_EQ(store.max_published_version(), 0u);

  ASSERT_TRUE(store.Publish("i1", dir + "/i1.v1.snapshot").ok());
  EXPECT_EQ(Served(store, "i1"), fresh);
  EXPECT_EQ(Served(store, "i2"), expected["i2"]);  // other tenants untouched
  EXPECT_EQ(store.max_published_version(), 1u);  // derived from `.v1`
  EXPECT_EQ(store.snapshot_path("i1").value(), dir + "/i1.v1.snapshot");
  EXPECT_EQ(store.stats().swaps, 1u);
}

TEST(HotSwapTest, InFlightHandleFinishesOnOldVersion) {
  const std::string dir = FreshDir("swap_inflight");
  auto expected = serve::testutil::MakeTinySnapshotDir(dir, {"i1"});
  const std::vector<double> fresh =
      SaveDistinctSnapshot(dir, "i1.v1.snapshot", 4242);

  Result<ModelStore> opened = ModelStore::Open(dir);
  ASSERT_TRUE(opened.ok());
  ModelStore& store = opened.value();
  Result<ModelHandle> pinned = store.Get("i1");
  ASSERT_TRUE(pinned.ok());
  ASSERT_TRUE(store.Publish("i1", dir + "/i1.v1.snapshot").ok());
  // The pinned request still sees the old model, bit for bit.
  EXPECT_EQ(core::Predict(pinned.value().get(), serve::testutil::TinyWindow())
                .ToVector(),
            expected["i1"]);
  // A new request cold-loads the new version while the pin is alive.
  EXPECT_EQ(Served(store, "i1"), fresh);
}

TEST(HotSwapTest, ResidentBytesDoNotLeakAcrossSwap) {
  const std::string dir = FreshDir("swap_bytes");
  serve::testutil::MakeTinySnapshotDir(dir, {"i1"});
  SaveDistinctSnapshot(dir, "i1.v1.snapshot", 4242);

  Result<ModelStore> swapped = ModelStore::Open(dir);
  ASSERT_TRUE(swapped.ok());
  Served(swapped.value(), "i1");  // old version resident
  ASSERT_TRUE(swapped.value().Publish("i1", dir + "/i1.v1.snapshot").ok());
  Served(swapped.value(), "i1");  // new version resident

  // A store that only ever loaded the new version is the no-leak
  // reference: identical residency, identical accounting.
  Result<ModelStore> reference = ModelStore::Open(dir);
  ASSERT_TRUE(reference.ok());
  ASSERT_TRUE(reference.value().Publish("i1", dir + "/i1.v1.snapshot").ok());
  Served(reference.value(), "i1");

  EXPECT_EQ(swapped.value().stats().resident_models,
            reference.value().stats().resident_models);
  EXPECT_EQ(swapped.value().stats().resident_bytes,
            reference.value().stats().resident_bytes);
  EXPECT_GT(swapped.value().stats().resident_bytes, 0);
}

TEST(HotSwapTest, PublishRegistersUnknownTenantAndRejectsBadPath) {
  const std::string dir = FreshDir("swap_register");
  serve::testutil::MakeTinySnapshotDir(dir, {"i1"});
  const std::vector<double> fresh =
      SaveDistinctSnapshot(dir, "newbie.v3.snapshot", 77);

  Result<ModelStore> opened = ModelStore::Open(dir);
  ASSERT_TRUE(opened.ok());
  ModelStore& store = opened.value();
  EXPECT_EQ(store.Get("newbie").status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(store.Publish("newbie", dir + "/newbie.v3.snapshot").ok());
  EXPECT_EQ(Served(store, "newbie"), fresh);
  EXPECT_EQ(store.num_known_models(), 2);
  EXPECT_EQ(store.max_published_version(), 3u);

  // A missing file is rejected and the store is unchanged.
  EXPECT_EQ(store.Publish("i1", dir + "/nope.snapshot").code(),
            StatusCode::kNotFound);
  EXPECT_EQ(store.snapshot_path("i1").value(), dir + "/i1.snapshot");
}

TEST(HotSwapTest, VersionWatermarkIsMonotonic) {
  const std::string dir = FreshDir("swap_watermark");
  serve::testutil::MakeTinySnapshotDir(dir, {"i1"});
  SaveDistinctSnapshot(dir, "i1.v2.snapshot", 1);
  SaveDistinctSnapshot(dir, "plain.snapshot", 2);

  Result<ModelStore> opened = ModelStore::Open(dir);
  ASSERT_TRUE(opened.ok());
  ModelStore& store = opened.value();
  ASSERT_TRUE(store.Publish("i1", dir + "/i1.v2.snapshot").ok());
  EXPECT_EQ(store.max_published_version(), 2u);
  // Explicit version overrides the filename.
  ASSERT_TRUE(store.Publish("i1", dir + "/plain.snapshot", 9).ok());
  EXPECT_EQ(store.max_published_version(), 9u);
  // A later lower publish never regresses the watermark.
  ASSERT_TRUE(store.Publish("i1", dir + "/i1.v2.snapshot").ok());
  EXPECT_EQ(store.max_published_version(), 9u);
  EXPECT_EQ(store.stats().max_published_version, 9u);
}

// Publish is the one way to retarget a tenant, including onto the file it
// already serves: a snapshot rewritten in place is re-read on the next Get.
TEST(HotSwapTest, PublishOfTheSamePathRereadsARewrittenFile) {
  const std::string dir = FreshDir("swap_same_path");
  auto expected = serve::testutil::MakeTinySnapshotDir(dir, {"i1"});
  Result<ModelStore> opened = ModelStore::Open(dir);
  ASSERT_TRUE(opened.ok());
  ModelStore& store = opened.value();
  EXPECT_EQ(Served(store, "i1"), expected["i1"]);
  const std::vector<double> fresh = SaveDistinctSnapshot(dir, "i1.snapshot", 5);
  ASSERT_NE(fresh, expected["i1"]);
  ASSERT_TRUE(store.Publish("i1", store.snapshot_path("i1").value()).ok());
  EXPECT_FALSE(store.resident("i1"));
  EXPECT_EQ(Served(store, "i1"), fresh);
}

// Store and publisher read a directory through one name parser: only
// `<id>.v<N>.snapshot` is a version of `<id>`; `a.v2.b.snapshot` is the
// plain tenant `a.v2.b` to both, and so is a version number past
// UINT64_MAX (2^64 + 1 must not wrap to version 1 of `a`).
TEST(HotSwapTest, StoreAndPublisherAgreeOnVersionedNames) {
  const std::string dir = FreshDir("swap_names");
  serve::testutil::MakeTinySnapshotDir(dir, {"i1"});
  SaveDistinctSnapshot(dir, "a.v2.b.snapshot", 5);
  SaveDistinctSnapshot(dir, "i1.v3.snapshot", 6);
  SaveDistinctSnapshot(dir, "a.v18446744073709551617.snapshot", 7);

  Result<ModelStore> store = ModelStore::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(store.value().individual_ids(),
            (std::vector<std::string>{"a.v18446744073709551617", "a.v2.b",
                                      "i1"}));
  ASSERT_TRUE(store.value().Publish("a.v2.b", dir + "/a.v2.b.snapshot").ok());
  EXPECT_EQ(store.value().max_published_version(), 0u);

  Result<online::SnapshotPublisher> publisher =
      online::SnapshotPublisher::Open(dir);
  ASSERT_TRUE(publisher.ok()) << publisher.status().ToString();
  EXPECT_EQ(publisher.value().latest_version("a"), 0u);
  EXPECT_EQ(publisher.value().latest_version("a.v2.b"), 0u);
  EXPECT_EQ(publisher.value().latest_version("i1"), 3u);
}

// ... and through one MANIFEST reader: a duplicate id is rejected by both.
TEST(HotSwapTest, StoreAndPublisherRejectDuplicateManifestIds) {
  const std::string dir = FreshDir("swap_duplicate");
  serve::testutil::MakeTinySnapshotDir(dir, {"i1", "i2"});
  std::ofstream(dir + "/MANIFEST") << "i1\ti1.snapshot\n"
                                   << "i1\ti2.snapshot\n";
  Result<ModelStore> store = ModelStore::Open(dir);
  Result<online::SnapshotPublisher> publisher =
      online::SnapshotPublisher::Open(dir);
  for (const Status& status : {store.status(), publisher.status()}) {
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("line 2: duplicate id \"i1\""),
              std::string::npos)
        << status.message();
  }
}

TEST(HotSwapTest, PublishFaultLeavesOldVersionServing) {
  if (!fault::kFaultInjectionEnabled) GTEST_SKIP();
  const std::string dir = FreshDir("swap_pubfault");
  const std::string logdir = FreshDir("swap_pubfault_log");
  auto expected = serve::testutil::MakeTinySnapshotDir(dir, {"i1"});

  Result<ModelStore> store = ModelStore::Open(dir);
  Result<online::ObservationLog> log = online::ObservationLog::Open(logdir);
  Result<online::SnapshotPublisher> publisher =
      online::SnapshotPublisher::Open(dir);
  ASSERT_TRUE(store.ok() && log.ok() && publisher.ok());
  for (int64_t t = 0; t < 10; ++t) {
    std::vector<double> row(serve::testutil::kTinyVars);
    for (size_t v = 0; v < row.size(); ++v) {
      row[v] = std::sin(0.4 * static_cast<double>(t)) + static_cast<double>(v);
    }
    ASSERT_TRUE(log.value().Append("i1", row).ok());
  }
  online::OnlinePipelineOptions options;
  options.train.epochs = 2;
  online::OnlinePipeline pipeline(&log.value(), &publisher.value(),
                                  &store.value(), options);

  ASSERT_TRUE(fault::Configure("online.publish/i1=1", 1).ok());
  Result<online::UpdateOutcome> outcome = pipeline.UpdateIndividual("i1");
  ASSERT_TRUE(fault::Configure("", 0).ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kUnavailable);
  // The refusal left no versioned file, no manifest entry, no swap: the
  // old snapshot keeps serving its exact bytes.
  EXPECT_EQ(publisher.value().latest_version("i1"), 0u);
  EXPECT_FALSE(fs::exists(dir + "/i1.v1.snapshot"));
  EXPECT_EQ(store.value().max_published_version(), 0u);
  EXPECT_EQ(Served(store.value(), "i1"), expected["i1"]);

  // Without the fault the same update lands end to end.
  Result<online::UpdateOutcome> landed = pipeline.UpdateIndividual("i1");
  ASSERT_TRUE(landed.ok()) << landed.status().ToString();
  EXPECT_EQ(landed.value().version, 1u);
  Rng reload_rng(1);
  Result<std::unique_ptr<models::Forecaster>> reloaded =
      models::LoadForecasterSnapshot(landed.value().path, &reload_rng);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(Served(store.value(), "i1"),
            core::Predict(reloaded.value().get(), serve::testutil::TinyWindow())
                .ToVector());
}

TEST(HotSwapTest, PipelineUpdateMatchesColdEngineOnNewSnapshot) {
  const std::string dir = FreshDir("swap_pipeline");
  const std::string logdir = FreshDir("swap_pipeline_log");
  auto expected = serve::testutil::MakeTinySnapshotDir(dir, {"i1"});

  Result<ModelStore> store = ModelStore::Open(dir);
  Result<online::ObservationLog> log = online::ObservationLog::Open(logdir);
  Result<online::SnapshotPublisher> publisher =
      online::SnapshotPublisher::Open(dir);
  ASSERT_TRUE(store.ok() && log.ok() && publisher.ok());
  for (int64_t t = 0; t < 12; ++t) {
    std::vector<double> row(serve::testutil::kTinyVars);
    for (size_t v = 0; v < row.size(); ++v) {
      row[v] = std::sin(0.3 * static_cast<double>(t) + static_cast<double>(v));
    }
    ASSERT_TRUE(log.value().Append("i1", row).ok());
  }
  online::OnlinePipelineOptions options;
  options.train.epochs = 2;
  online::OnlinePipeline pipeline(&log.value(), &publisher.value(),
                                  &store.value(), options);
  Result<online::UpdateOutcome> outcome = pipeline.UpdateIndividual("i1");
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome.value().version, 1u);
  EXPECT_EQ(outcome.value().rows_used, 12);
  // LSTM bakes no graph, so the builder stage is skipped, not failed.
  EXPECT_FALSE(outcome.value().graph_rederived);

  // The swap anchor: what the store now serves is bitwise what a cold
  // engine computes on the published snapshot file.
  Rng rng(1);
  Result<std::unique_ptr<models::Forecaster>> cold =
      models::LoadForecasterSnapshot(outcome.value().path, &rng);
  ASSERT_TRUE(cold.ok());
  const std::vector<double> cold_bytes =
      core::Predict(cold.value().get(), serve::testutil::TinyWindow())
          .ToVector();
  EXPECT_EQ(Served(store.value(), "i1"), cold_bytes);
  EXPECT_NE(cold_bytes, expected["i1"]);  // the fine-tune moved the weights
  EXPECT_EQ(store.value().max_published_version(), 1u);

  // Another process opening the directory converges via the MANIFEST the
  // publisher rewrote.
  Result<ModelStore> replica = ModelStore::Open(dir);
  ASSERT_TRUE(replica.ok());
  EXPECT_EQ(Served(replica.value(), "i1"), cold_bytes);

  // A second update publishes v2, never regressing.
  Result<online::UpdateOutcome> second = pipeline.UpdateIndividual("i1");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().version, 2u);
}

// The thread-count contract over the whole online loop: two individuals
// stream 48 rows each, with an update (2 fine-tune epochs) every 12 rows,
// fanned out by ParallelFor over one shared log, publisher and store. Each
// individual's final published snapshot serves the same bytes at 1, 2 and
// 8 pool threads.
TEST(HotSwapTest, FannedOutUpdatesPublishTheSameBytesAtAnyThreadCount) {
  const std::vector<std::string> ids = {"i0", "i1"};
  constexpr int64_t kRows = 48;
  constexpr int64_t kUpdateEvery = 12;
  std::vector<std::vector<double>> first_run;
  for (int64_t threads : {1, 2, 8}) {
    const std::string dir = FreshDir(StrCat("fanout_", threads));
    const std::string logdir = FreshDir(StrCat("fanout_log_", threads));
    auto initial = serve::testutil::MakeTinySnapshotDir(dir, ids);
    Result<ModelStore> store = ModelStore::Open(dir);
    Result<online::ObservationLog> log = online::ObservationLog::Open(logdir);
    Result<online::SnapshotPublisher> publisher =
        online::SnapshotPublisher::Open(dir);
    ASSERT_TRUE(store.ok() && log.ok() && publisher.ok());

    std::vector<Status> failures(ids.size(), Status::Ok());
    common::ThreadPool pool(threads);
    pool.ParallelFor(0, static_cast<int64_t>(ids.size()), /*grain=*/1,
                     [&](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) {
        const std::string& id = ids[static_cast<size_t>(i)];
        Status& failure = failures[static_cast<size_t>(i)];
        online::OnlinePipelineOptions options;
        options.graph.window_rows = 32;
        options.train.epochs = 2;
        online::OnlinePipeline pipeline(&log.value(), &publisher.value(),
                                        &store.value(), options);
        for (int64_t t = 0; t < kRows && failure.ok(); ++t) {
          std::vector<double> row(serve::testutil::kTinyVars);
          for (size_t v = 0; v < row.size(); ++v) {
            row[v] = std::sin(0.25 * static_cast<double>(t) +
                              static_cast<double>(v) +
                              0.37 * static_cast<double>(i));
          }
          Result<uint64_t> appended = log.value().Append(id, row);
          if (!appended.ok()) {
            failure = appended.status();
          } else if ((t + 1) % kUpdateEvery == 0) {
            failure = pipeline.UpdateIndividual(id).status();
          }
        }
      }
    });

    std::vector<std::vector<double>> served;
    for (size_t i = 0; i < ids.size(); ++i) {
      ASSERT_TRUE(failures[i].ok())
          << ids[i] << " threads=" << threads << ": " << failures[i].ToString();
      EXPECT_EQ(store.value().snapshot_path(ids[i]).value(),
                StrCat(dir, "/", ids[i], ".v", kRows / kUpdateEvery,
                       ".snapshot"));
      served.push_back(Served(store.value(), ids[i]));
      EXPECT_NE(served[i], initial[ids[i]]) << ids[i];
    }
    if (first_run.empty()) {
      first_run = served;
    } else {
      EXPECT_EQ(served, first_run) << "threads=" << threads;
    }
  }
}

// tsan hammer: readers Get+Predict in a loop while Publish lands. Every
// observed prediction must be bitwise one of {old, new}, and after the
// swap the store settles on the new bytes.
TEST(HotSwapTest, ConcurrentGetsDuringPublishServeExactlyOneVersion) {
  const std::string dir = FreshDir("swap_race");
  auto expected = serve::testutil::MakeTinySnapshotDir(dir, {"i1"});
  const std::vector<double> fresh =
      SaveDistinctSnapshot(dir, "i1.v1.snapshot", 4242);

  for (int num_threads : {1, 2, 8}) {
    Result<ModelStore> opened = ModelStore::Open(dir);
    ASSERT_TRUE(opened.ok());
    ModelStore& store = opened.value();
    std::atomic<bool> stop{false};
    std::atomic<int64_t> mixed{0};
    std::vector<std::thread> readers;
    readers.reserve(static_cast<size_t>(num_threads));
    for (int t = 0; t < num_threads; ++t) {
      readers.emplace_back([&] {
        while (!stop.load(std::memory_order_relaxed)) {
          Result<ModelHandle> handle = store.Get("i1");
          if (!handle.ok()) {
            mixed.fetch_add(1);
            return;
          }
          const std::vector<double> bytes =
              core::Predict(handle.value().get(), serve::testutil::TinyWindow())
                  .ToVector();
          if (bytes != expected["i1"] && bytes != fresh) mixed.fetch_add(1);
        }
      });
    }
    ASSERT_TRUE(store.Publish("i1", dir + "/i1.v1.snapshot").ok());
    // Let readers race the cold load of the new version for a moment.
    for (int spin = 0; spin < 50; ++spin) Served(store, "i1");
    stop.store(true);
    for (std::thread& reader : readers) reader.join();
    EXPECT_EQ(mixed.load(), 0) << num_threads << " threads";
    EXPECT_EQ(Served(store, "i1"), fresh);
  }
}

// tsan hammer under eviction pressure: 8 readers Get+Predict tenants a, b
// and c, which a MANIFEST maps to one file, from a store with room for two
// models, while tenant a is published back and forth between two files.
// Every reply must be bitwise f0's or (for a) f1's, each handle answers to
// the id it was requested for, and afterwards the resident count agrees
// with the residents eviction can find.
TEST(HotSwapTest, GetsUnderEvictionDuringPublishServeExactlyOneFile) {
  const std::string dir = FreshDir("swap_evict_race");
  fs::create_directories(dir);
  const std::vector<double> f0 = SaveDistinctSnapshot(dir, "f0.snapshot", 100);
  const std::vector<double> f1 = SaveDistinctSnapshot(dir, "f1.snapshot", 101);
  ASSERT_NE(f0, f1);
  ASSERT_TRUE(serve::WriteManifest(dir, {{"a", "f0.snapshot"},
                                         {"b", "f0.snapshot"},
                                         {"c", "f0.snapshot"}})
                  .ok());
  serve::ModelStoreOptions options;
  options.max_resident_models = 2;
  Result<ModelStore> opened = ModelStore::Open(dir, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ModelStore& store = opened.value();
  const std::vector<std::string> ids = {"a", "b", "c"};
  std::atomic<bool> stop{false};
  std::atomic<int64_t> wrong{0};
  std::atomic<int64_t> served{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 8; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(900 + static_cast<uint64_t>(t));
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string& id = ids[static_cast<size_t>(rng.UniformInt(0, 2))];
        Result<ModelHandle> handle = store.Get(id);
        // Every resident model pinned by another reader: try again.
        if (handle.status().code() == StatusCode::kResourceExhausted) continue;
        if (!handle.ok() || handle.value().id() != id) {
          wrong.fetch_add(1);
          return;
        }
        const std::vector<double> bytes =
            core::Predict(handle.value().get(), serve::testutil::TinyWindow())
                .ToVector();
        if (bytes != f0 && !(id == "a" && bytes == f1)) wrong.fetch_add(1);
        served.fetch_add(1);
      }
    });
  }
  // Publishing starts once the readers have served (otherwise every round
  // can finish before a model is even loaded) and goes on, a pair of
  // rounds at a time so `a` always ends on f0, for at least 40 rounds and
  // until the readers have evicted something — or the deadline passes,
  // which fails the eviction expectation below.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  auto before_deadline = [&] {
    return std::chrono::steady_clock::now() < deadline;
  };
  while (served.load() < 64 && wrong.load() == 0 && before_deadline()) {
    std::this_thread::yield();
  }
  int rounds = 0;
  while (rounds < 40 ||
         (store.stats().evictions == 0 && wrong.load() == 0 &&
          before_deadline())) {
    for (const char* file : {"/f1.snapshot", "/f0.snapshot"}) {
      EXPECT_TRUE(store.Publish("a", dir + file).ok());
      std::this_thread::yield();
    }
    rounds += 2;
  }
  stop.store(true);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GT(served.load(), 0);
  EXPECT_GT(store.stats().evictions, 0u);
  EXPECT_EQ(Served(store, "a"), f0);  // an even number of rounds ends on f0

  int64_t resident = 0;
  for (const std::string& id : ids) resident += store.resident(id) ? 1 : 0;
  EXPECT_EQ(store.stats().resident_models, resident);
  EXPECT_EQ(store.EvictIdle(), resident);
  EXPECT_EQ(store.stats().resident_models, 0);
  EXPECT_EQ(store.stats().resident_bytes, 0);
}

}  // namespace
}  // namespace emaf
