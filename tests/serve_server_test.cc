// Loopback end-to-end tests for the epoll serving front-end: bytes served
// over a real socket (compiled plans) are bitwise identical to the module
// path — core::Predict on the reloaded snapshot — for every model family
// at 1, 2 and 8 pool threads; the
// server survives a pathological 1-byte-at-a-time writer, answers
// pipelined requests matched by request id, forgets mid-request
// disconnects without leaking a store pin, sheds overload with a
// structured kUnavailable instead of hanging or dropping, and serves
// MANIFEST-aliased tenants under a residency budget. Fault-gated
// cases drive serve.store.load/<id> and serve.server.accept through the
// server path and pin the batch-peer-isolation contract.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/evaluator.h"
#include "graph/adjacency.h"
#include "models/registry.h"
#include "online/observation_log.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve_test_util.h"
#include "tensor/tensor.h"

namespace emaf::serve {
namespace {

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

const std::vector<std::string>& AllFamilies() {
  static const std::vector<std::string> families = {"LSTM", "VAR", "A3TGCN",
                                                    "ASTGCN", "MTGNN"};
  return families;
}

// Spin-waits (with a deadline) for an asynchronous server-side condition —
// the loop thread runs on its own cadence.
bool WaitFor(const std::function<bool()>& predicate,
             int64_t timeout_ms = 5000) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return predicate();
}

// One snapshot directory for the whole suite: the five paper families
// (untrained — deterministic construction; byte-identity assertions don't
// care about fit quality) plus a few extra LSTM tenants t0..t3 for the
// multi-tenant cases. Ground truth is the module path on the snapshot
// file: LoadForecasterSnapshot + core::Predict. The server executes
// compiled plans, so every byte check here is also the plan-vs-module
// contract at the outermost layer of the stack.
class ServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    namespace fs = std::filesystem;
    dir_ = new std::string(::testing::TempDir() + "/serve_server_snapshots");
    fs::remove_all(*dir_);
    ASSERT_TRUE(fs::create_directories(*dir_));

    std::vector<std::string> ids = AllFamilies();
    for (const char* tenant : {"t0", "t1", "t2", "t3"}) {
      ids.push_back(tenant);
    }
    uint64_t seed = 100;
    for (const std::string& id : ids) {
      models::ModelConfig config =
          FamilyConfig(id[0] == 't' ? "LSTM" : id);
      Rng rng(seed++);
      std::unique_ptr<models::Forecaster> model =
          models::CreateForecasterOrDie(config, &rng);
      Status saved = models::SaveForecasterSnapshot(
          model.get(), config, *dir_ + "/" + id + ".snapshot");
      ASSERT_TRUE(saved.ok()) << saved.ToString();
    }

    Rng window_rng(20240808);
    window_ = new Tensor(
        Tensor::Uniform(Shape{1, kSteps, kVars}, -1, 1, &window_rng));

    expected_ = new std::map<std::string, std::vector<double>>();
    for (const std::string& id : ids) {
      Rng rng(0);
      Result<std::unique_ptr<models::Forecaster>> loaded =
          models::LoadForecasterSnapshot(*dir_ + "/" + id + ".snapshot",
                                         &rng);
      ASSERT_TRUE(loaded.ok()) << id << ": " << loaded.status().ToString();
      (*expected_)[id] =
          core::Predict(loaded.value().get(), *window_).ToVector();
    }
  }

  static void TearDownTestSuite() {
    std::filesystem::remove_all(*dir_);
    delete expected_;
    expected_ = nullptr;
    delete window_;
    window_ = nullptr;
    delete dir_;
    dir_ = nullptr;
  }

  static Server StartServerOrDie(const ServerOptions& options = {}) {
    Result<Server> server = Server::Start(*dir_, options);
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    return std::move(server).value();
  }

  static Client ConnectOrDie(const Server& server,
                             const ClientOptions& options = {}) {
    Result<Client> client = Client::Connect(server.port(), options);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  static std::string* dir_;
  static Tensor* window_;
  static std::map<std::string, std::vector<double>>* expected_;
};

std::string* ServerTest::dir_ = nullptr;
Tensor* ServerTest::window_ = nullptr;
std::map<std::string, std::vector<double>>* ServerTest::expected_ = nullptr;

TEST_F(ServerTest, PingPong) {
  Server server = StartServerOrDie();
  Client client = ConnectOrDie(server);
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_TRUE(client.Ping().ok());  // the connection is reusable
}

// The acceptance anchor: for every family, the bytes coming back over the
// socket equal the module path's bytes exactly — at 1, 2 and 8 pool
// threads. The pool size is set before each server starts so
// the resize never races the live event loop.
TEST_F(ServerTest, ServedBytesMatchModulePathForEveryFamilyAtAnyThreadCount) {
  for (int64_t threads : {1, 2, 8}) {
    common::ThreadPool::SetGlobalNumThreads(threads);
    Server server = StartServerOrDie();
    Client client = ConnectOrDie(server);
    for (const std::string& family : AllFamilies()) {
      Result<Tensor> forecast = client.Forecast(family, *window_);
      ASSERT_TRUE(forecast.ok())
          << family << " threads=" << threads << ": "
          << forecast.status().ToString();
      EXPECT_EQ(forecast.value().ToVector(), expected_->at(family))
          << family << " threads=" << threads;
    }
  }
  common::ThreadPool::SetGlobalNumThreads(
      static_cast<int64_t>(std::thread::hardware_concurrency()));
}

// No stale-plan reuse across a snapshot reload, over the wire: after the
// snapshot file changes on disk and the store evicts the tenant, the next
// request must serve the NEW weights' bytes. A plan cache outliving the
// residency would keep answering with the old recorded constants. Uses
// its own snapshot directory so the shared fixture stays immutable.
TEST_F(ServerTest, EvictedTenantReloadsFreshPlanAndServesNewSnapshotBytes) {
  namespace tu = testutil;
  std::string dir = ::testing::TempDir() + "/server_plan_reload_snapshots";
  std::map<std::string, std::vector<double>> old_expected =
      tu::MakeTinySnapshotDir(dir, {"alpha"});
  Tensor window = tu::TinyWindow();

  Result<Server> server = Server::Start(dir);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  Client client = ConnectOrDie(server.value());
  // Two requests: the second is served from the cached plan.
  for (int i = 0; i < 2; ++i) {
    Result<Tensor> served = client.Forecast("alpha", window);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    EXPECT_EQ(served.value().ToVector(), old_expected.at("alpha"));
  }

  models::ModelConfig config = tu::TinyLstmConfig();
  Rng rng(880088);
  std::unique_ptr<models::Forecaster> fresh =
      models::CreateForecasterOrDie(config, &rng);
  std::vector<double> new_expected =
      core::Predict(fresh.get(), window).ToVector();
  ASSERT_NE(new_expected, old_expected.at("alpha"));
  ASSERT_TRUE(models::SaveForecasterSnapshot(fresh.get(), config,
                                             dir + "/alpha.snapshot")
                  .ok());

  // No requests are in flight, so everything resident is idle-evictable.
  EXPECT_GE(server.value().store().EvictIdle(-1), 1);
  Result<Tensor> reloaded = client.Forecast("alpha", window);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded.value().ToVector(), new_expected)
      << "stale plan served the pre-reload weights over the wire";
  std::filesystem::remove_all(dir);
}

TEST_F(ServerTest, SurvivesAOneByteAtATimeWriter) {
  Server server = StartServerOrDie();
  ClientOptions slow;
  slow.write_chunk_bytes = 1;  // every frame arrives as ~200 separate reads
  Client client = ConnectOrDie(server, slow);
  EXPECT_TRUE(client.Ping().ok());
  Result<Tensor> forecast = client.Forecast("t0", *window_);
  ASSERT_TRUE(forecast.ok()) << forecast.status().ToString();
  EXPECT_EQ(forecast.value().ToVector(), expected_->at("t0"));
}

TEST_F(ServerTest, PipelinedRequestsAreAnsweredAndMatchedById) {
  Server server = StartServerOrDie();
  Client client = ConnectOrDie(server);
  const std::vector<std::string> tenants = {"t0", "t1", "t2", "t3"};
  std::map<uint64_t, std::string> sent;  // request id -> tenant
  for (int i = 0; i < 10; ++i) {
    const std::string& tenant = tenants[static_cast<size_t>(i) % 4];
    Result<uint64_t> id = client.SendForecastRequest(tenant, *window_);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ASSERT_TRUE(sent.emplace(id.value(), tenant).second);
  }
  for (int i = 0; i < 10; ++i) {
    Result<Frame> reply = client.ReadFrame();
    ASSERT_TRUE(reply.ok()) << "reply " << i << ": "
                            << reply.status().ToString();
    ASSERT_EQ(reply.value().type, FrameType::kForecastResponse);
    auto it = sent.find(reply.value().request_id);
    ASSERT_NE(it, sent.end()) << "unknown request id "
                              << reply.value().request_id;
    Result<Tensor> forecast = DecodeTensorPayload(reply.value().payload);
    ASSERT_TRUE(forecast.ok()) << forecast.status().ToString();
    EXPECT_EQ(forecast.value().ToVector(), expected_->at(it->second))
        << "tenant " << it->second;
    sent.erase(it);  // every reply matches exactly one request
  }
  EXPECT_TRUE(sent.empty());
}

// Overload contract: with the admission queue capped at 1, a burst of 4
// pipelined requests sent in ONE write meets the queue as one burst — the
// overflow is answered immediately with a structured kUnavailable frame,
// never hung, never dropped.
TEST_F(ServerTest, QueueFullAnswersStructuredUnavailable) {
  ServerOptions options;
  options.scheduler.max_queue = 1;
  Server server = StartServerOrDie(options);
  Client client = ConnectOrDie(server);
  std::string burst;
  constexpr int kBurst = 4;
  for (uint64_t id = 1; id <= kBurst; ++id) {
    Frame frame;
    frame.type = FrameType::kForecastRequest;
    frame.request_id = id;
    frame.tenant_id = "t0";
    frame.payload = EncodeTensorPayload(*window_);
    burst += EncodeFrame(frame);
  }
  ASSERT_TRUE(client.SendBytes(burst).ok());

  int ok = 0, rejected = 0;
  for (int i = 0; i < kBurst; ++i) {
    Result<Frame> reply = client.ReadFrame();
    ASSERT_TRUE(reply.ok()) << "reply " << i << ": "
                            << reply.status().ToString();
    if (reply.value().type == FrameType::kForecastResponse) {
      Result<Tensor> forecast = DecodeTensorPayload(reply.value().payload);
      ASSERT_TRUE(forecast.ok());
      EXPECT_EQ(forecast.value().ToVector(), expected_->at("t0"));
      ++ok;
    } else {
      ASSERT_EQ(reply.value().type, FrameType::kError);
      Status carried = Status::Ok();
      ASSERT_TRUE(
          DecodeStatusPayload(reply.value().payload, &carried).ok());
      EXPECT_EQ(carried.code(), StatusCode::kUnavailable);
      EXPECT_NE(carried.message().find("rejected"), std::string::npos);
      ++rejected;
    }
  }
  // Every request was answered — the split depends only on read
  // coalescing, so pin the envelope, not the exact split.
  EXPECT_EQ(ok + rejected, kBurst);
  EXPECT_GE(ok, 1);
  EXPECT_GE(rejected, 1);
  EXPECT_GE(server.stats().requests_rejected, 1u);
  EXPECT_GE(server.scheduler_stats().rejected, 1u);
}

// Many tenants under a residency budget, over the wire: 16 tenant ids
// alias 4 snapshots through a MANIFEST whose relpaths sit in sharded
// subdirectories, the store may hold 2 models, and a sender thread paces
// 100 pipelined requests of a Zipf tenant mix at 20k/s while this thread
// drains the replies. Every request id gets exactly one reply, an ok reply
// is bitwise the module path's bytes for the tenant's aliased snapshot,
// and an error is kUnavailable (backpressure) or kResourceExhausted. The
// latter is counted, not gated: a micro-batch whose distinct tenants pin
// the whole budget fails the rest of its tenants, and how often that
// happens depends on timing.
TEST_F(ServerTest, AliasedTenantsUnderAResidencyBudgetServeTheirSnapshots) {
  namespace fs = std::filesystem;
  constexpr int kSnapshots = 4;
  constexpr int kTenants = 16;
  constexpr int kRequests = 100;
  const std::string dir = ::testing::TempDir() + "/server_manifest_snapshots";
  fs::remove_all(dir);
  const Tensor window = testutil::TinyWindow();
  auto relpath = [](int k) {
    return StrCat("shards/0", k, "/uniq_", k, ".snapshot");
  };
  std::vector<std::vector<double>> snapshot_bytes;
  for (int k = 0; k < kSnapshots; ++k) {
    const std::string path = dir + "/" + relpath(k);
    ASSERT_TRUE(fs::create_directories(fs::path(path).parent_path()));
    models::ModelConfig config = testutil::TinyLstmConfig();
    Rng rng(42 + static_cast<uint64_t>(k));
    std::unique_ptr<models::Forecaster> model =
        models::CreateForecasterOrDie(config, &rng);
    ASSERT_TRUE(models::SaveForecasterSnapshot(model.get(), config, path).ok());
    snapshot_bytes.push_back(core::Predict(model.get(), window).ToVector());
    for (int j = 0; j < k; ++j) ASSERT_NE(snapshot_bytes[j], snapshot_bytes[k]);
  }
  std::map<std::string, std::string> manifest;
  for (int t = 0; t < kTenants; ++t) {
    manifest.emplace(StrCat("tenant-", t), relpath(t % kSnapshots));
  }
  ASSERT_TRUE(WriteManifest(dir, manifest).ok());

  // Tenant popularity ~ 1/rank^1.1.
  std::vector<double> cdf;
  double total = 0;
  for (int t = 0; t < kTenants; ++t) {
    cdf.push_back(total += std::pow(t + 1.0, -1.1));
  }
  Rng mix_rng(42);
  std::vector<int> tenant_of_request;
  for (int i = 0; i < kRequests; ++i) {
    tenant_of_request.push_back(static_cast<int>(
        std::lower_bound(cdf.begin(), cdf.end(), mix_rng.Uniform() * total) -
        cdf.begin()));
  }

  ServerOptions options;
  options.store.max_resident_models = 2;
  Result<Server> server = Server::Start(dir, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ClientOptions impatient;
  impatient.recv_timeout_ms = 5000;  // a lost reply fails, not hangs
  Client client = ConnectOrDie(server.value(), impatient);
  Result<HealthInfo> health = client.Health();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health.value().known_models, static_cast<uint64_t>(kTenants));

  std::vector<uint64_t> request_ids(kRequests, 0);
  std::thread sender([&] {
    auto next = std::chrono::steady_clock::now();
    for (int i = 0; i < kRequests; ++i) {
      std::this_thread::sleep_until(next);
      next += std::chrono::microseconds(50);
      Result<uint64_t> id = client.SendForecastRequest(
          StrCat("tenant-", tenant_of_request[i]), window);
      if (!id.ok()) return;
      request_ids[i] = id.value();
    }
  });
  std::vector<Frame> replies;
  for (int i = 0; i < kRequests; ++i) {
    Result<Frame> reply = client.ReadFrame();
    if (!reply.ok()) break;
    replies.push_back(std::move(reply).value());
  }
  sender.join();

  std::map<uint64_t, int> tenant_of_id;
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_NE(request_ids[i], 0u) << "send " << i << " failed";
    tenant_of_id.emplace(request_ids[i], tenant_of_request[i]);
  }
  std::set<uint64_t> answered;
  int ok = 0, unavailable = 0, exhausted = 0;
  for (const Frame& reply : replies) {
    auto it = tenant_of_id.find(reply.request_id);
    ASSERT_NE(it, tenant_of_id.end()) << "unknown request id "
                                      << reply.request_id;
    EXPECT_TRUE(answered.insert(reply.request_id).second)
        << "second reply to request " << reply.request_id;
    if (reply.type == FrameType::kForecastResponse) {
      Result<Tensor> forecast = DecodeTensorPayload(reply.payload);
      ASSERT_TRUE(forecast.ok()) << forecast.status().ToString();
      EXPECT_EQ(forecast.value().ToVector(),
                snapshot_bytes[it->second % kSnapshots])
          << "tenant-" << it->second;
      ++ok;
      continue;
    }
    ASSERT_EQ(reply.type, FrameType::kError);
    Status carried = Status::Ok();
    ASSERT_TRUE(DecodeStatusPayload(reply.payload, &carried).ok());
    if (carried.code() == StatusCode::kUnavailable) {
      ++unavailable;
    } else if (carried.code() == StatusCode::kResourceExhausted) {
      ++exhausted;
    } else {
      ADD_FAILURE() << "tenant-" << it->second << ": " << carried.ToString();
    }
  }
  const std::string counts =
      StrCat("ok=", ok, " unavailable=", unavailable,
             " resource_exhausted=", exhausted, " of ", kRequests);
  RecordProperty("resource_exhausted", exhausted);
  EXPECT_EQ(answered.size(), static_cast<size_t>(kRequests)) << counts;
  EXPECT_GT(ok, 0) << counts;
  fs::remove_all(dir);
}

// A client that vanishes mid-request must not leak residency: its
// admitted request still executes, the result is discarded, and every
// model the request touched is evictable afterwards.
TEST_F(ServerTest, MidRequestDisconnectLeavesTheStoreUnpinned) {
  Server server = StartServerOrDie();
  {
    Client client = ConnectOrDie(server);
    ASSERT_TRUE(client.SendForecastRequest("t2", *window_).ok());
    // Destructor closes the socket with the request possibly still queued.
  }
  ASSERT_TRUE(WaitFor([&] { return server.scheduler_stats().executed >= 1; }))
      << "the orphaned request never executed";
  ASSERT_TRUE(
      WaitFor([&] { return server.stats().active_connections == 0; }));
  // Nothing is pinned: every resident model can be evicted.
  EXPECT_GE(server.store().EvictIdle(-1), 1);
  EXPECT_EQ(server.store().stats().resident_models, 0);
  // And the server is still fully alive for the next client.
  Client next = ConnectOrDie(server);
  Result<Tensor> forecast = next.Forecast("t2", *window_);
  ASSERT_TRUE(forecast.ok()) << forecast.status().ToString();
  EXPECT_EQ(forecast.value().ToVector(), expected_->at("t2"));
}

// Satellite 4 (scheduler error-path): a tenant whose cold load fails via
// fault injection gets its own kUnavailable reply while its batch peers
// are served bitwise-correct bytes — and the failure is visible in the
// scheduler's new `failed` stat instead of vanishing into `executed`.
TEST_F(ServerTest, LoadFaultFailsOneTenantAndLeavesBatchPeersUntouched) {
  if (!fault::kFaultInjectionEnabled) GTEST_SKIP();
  Server server = StartServerOrDie();
  ASSERT_TRUE(fault::Configure("serve.store.load/t1=1", 1).ok());
  Client client = ConnectOrDie(server);
  // One write -> one burst -> one micro-batch (max_batch default 8).
  std::string burst;
  for (uint64_t id = 1; id <= 3; ++id) {
    Frame frame;
    frame.type = FrameType::kForecastRequest;
    frame.request_id = id;
    frame.tenant_id = "t" + std::to_string(id - 1);  // t0, t1, t2
    frame.payload = EncodeTensorPayload(*window_);
    burst += EncodeFrame(frame);
  }
  ASSERT_TRUE(client.SendBytes(burst).ok());
  int failures = 0;
  for (int i = 0; i < 3; ++i) {
    Result<Frame> reply = client.ReadFrame();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    const std::string tenant =
        "t" + std::to_string(reply.value().request_id - 1);
    if (tenant == "t1") {
      ASSERT_EQ(reply.value().type, FrameType::kError);
      Status carried = Status::Ok();
      ASSERT_TRUE(
          DecodeStatusPayload(reply.value().payload, &carried).ok());
      EXPECT_EQ(carried.code(), StatusCode::kUnavailable);
      EXPECT_NE(carried.message().find("serve.store.load/t1"),
                std::string::npos);
      ++failures;
    } else {
      ASSERT_EQ(reply.value().type, FrameType::kForecastResponse)
          << tenant << " should have been served";
      Result<Tensor> forecast = DecodeTensorPayload(reply.value().payload);
      ASSERT_TRUE(forecast.ok());
      EXPECT_EQ(forecast.value().ToVector(), expected_->at(tenant)) << tenant;
    }
  }
  EXPECT_EQ(failures, 1);
  EXPECT_GE(server.scheduler_stats().failed, 1u);
  EXPECT_GE(server.stats().requests_failed, 1u);
  // Clearing the fault heals the tenant: the load is retried cold.
  ASSERT_TRUE(fault::Configure("", 0).ok());
  Result<Tensor> healed = client.Forecast("t1", *window_);
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_EQ(healed.value().ToVector(), expected_->at("t1"));
}

TEST_F(ServerTest, AcceptFaultDropsTheConnectionButNotTheServer) {
  if (!fault::kFaultInjectionEnabled) GTEST_SKIP();
  Server server = StartServerOrDie();
  ASSERT_TRUE(fault::Configure("serve.server.accept=1", 1).ok());
  // TCP connect still succeeds (kernel accept queue); the server drops the
  // socket on accept, so the first read reports the closed connection.
  Result<Client> dropped = Client::Connect(server.port());
  ASSERT_TRUE(dropped.ok()) << dropped.status().ToString();
  EXPECT_EQ(dropped.value().Ping().code(), StatusCode::kUnavailable);
  ASSERT_TRUE(fault::Configure("", 0).ok());
  Client healthy = ConnectOrDie(server);
  EXPECT_TRUE(healthy.Ping().ok());
}

// Version negotiation: a frame carrying the old version 1 is answered
// with a kError naming both versions, then the connection closes (framing
// on a version we do not speak cannot be trusted).
TEST_F(ServerTest, WrongVersionIsNamedInTheErrorAndClosesTheConnection) {
  Server server = StartServerOrDie();
  Client client = ConnectOrDie(server);
  Frame ping;
  ping.type = FrameType::kPing;
  ping.request_id = 9;
  std::string bytes = EncodeFrame(ping);
  bytes[4] = 1;  // version byte surgery; CRC is NOT restamped — the server
                 // must reject on version before it ever reaches the CRC
  ASSERT_TRUE(client.SendBytes(bytes).ok());
  Result<Frame> reply = client.ReadFrame();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply.value().type, FrameType::kError);
  EXPECT_EQ(reply.value().request_id, 0u);  // stream-level, not per-request
  Status carried = Status::Ok();
  ASSERT_TRUE(DecodeStatusPayload(reply.value().payload, &carried).ok());
  EXPECT_EQ(carried.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(carried.message().find("unsupported protocol version 1"),
            std::string::npos);
  EXPECT_NE(carried.message().find("speaks version 2"), std::string::npos);
  EXPECT_EQ(client.ReadFrame().status().code(), StatusCode::kUnavailable);
}

TEST_F(ServerTest, GarbageStreamGetsAnErrorThenTheConnectionCloses) {
  Server server = StartServerOrDie();
  Client client = ConnectOrDie(server);
  ASSERT_TRUE(client.SendBytes("GET / HTTP/1.1\r\nHost: x\r\n\r\n").ok());
  Result<Frame> reply = client.ReadFrame();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply.value().type, FrameType::kError);
  Status carried = Status::Ok();
  ASSERT_TRUE(DecodeStatusPayload(reply.value().payload, &carried).ok());
  EXPECT_NE(carried.message().find("bad magic"), std::string::npos);
  EXPECT_EQ(client.ReadFrame().status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(WaitFor([&] { return server.stats().protocol_errors >= 1; }));
}

// A malformed *payload* inside a well-framed request is a per-request
// error: framing is intact, so the connection survives it.
TEST_F(ServerTest, MalformedTensorPayloadFailsTheRequestNotTheConnection) {
  Server server = StartServerOrDie();
  Client client = ConnectOrDie(server);
  Frame frame;
  frame.type = FrameType::kForecastRequest;
  frame.request_id = 77;
  frame.tenant_id = "t0";
  frame.payload = "not a tensor";
  ASSERT_TRUE(client.SendFrame(frame).ok());
  Result<Frame> reply = client.ReadFrame();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply.value().type, FrameType::kError);
  EXPECT_EQ(reply.value().request_id, 77u);
  Status carried = Status::Ok();
  ASSERT_TRUE(DecodeStatusPayload(reply.value().payload, &carried).ok());
  EXPECT_EQ(carried.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(client.Ping().ok());  // same connection still works
}

TEST_F(ServerTest, UnknownTenantIsNotFound) {
  Server server = StartServerOrDie();
  Client client = ConnectOrDie(server);
  Result<Tensor> forecast = client.Forecast("stranger", *window_);
  EXPECT_EQ(forecast.status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(client.Ping().ok());  // per-request failure only
}

// A well-formed request whose window the tenant was not built for (wrong
// L, wrong V, rank 2, empty batch) fails alone with kInvalidArgument
// naming both shapes; the forward would CHECK-fail on it and take the
// whole server down. The connection then serves a correct window.
TEST_F(ServerTest, MisShapedWindowIsInvalidArgumentAndTheConnectionSurvives) {
  Server server = StartServerOrDie();
  Client client = ConnectOrDie(server);
  for (const Shape& shape :
       {Shape{1, kSteps + 2, kVars}, Shape{1, kSteps, kVars + 1},
        Shape{kSteps, kVars}, Shape{0, kSteps, kVars}}) {
    Result<Tensor> forecast = client.Forecast("LSTM", Tensor::Zeros(shape));
    EXPECT_EQ(forecast.status().code(), StatusCode::kInvalidArgument)
        << shape.ToString() << ": " << forecast.status().ToString();
    const std::string& message = forecast.status().message();
    EXPECT_NE(message.find(StrCat("expected [B >= 1, ", kSteps, ", ", kVars,
                                  "]")),
              std::string::npos)
        << message;
    EXPECT_NE(message.find("got " + shape.ToString()), std::string::npos)
        << message;
  }
  Result<Tensor> forecast = client.Forecast("LSTM", *window_);
  ASSERT_TRUE(forecast.ok()) << forecast.status().ToString();
  EXPECT_EQ(forecast.value().ToVector(), expected_->at("LSTM"));
}

TEST_F(ServerTest, ClientSendingAServerFrameTypeIsDisconnected) {
  Server server = StartServerOrDie();
  Client client = ConnectOrDie(server);
  Frame bogus;
  bogus.type = FrameType::kForecastResponse;  // only servers send these
  bogus.request_id = 5;
  ASSERT_TRUE(client.SendFrame(bogus).ok());
  Result<Frame> reply = client.ReadFrame();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply.value().type, FrameType::kError);
  Status carried = Status::Ok();
  ASSERT_TRUE(DecodeStatusPayload(reply.value().payload, &carried).ok());
  EXPECT_NE(carried.message().find("unexpected frame type FORECAST_RESPONSE"),
            std::string::npos);
  EXPECT_EQ(client.ReadFrame().status().code(), StatusCode::kUnavailable);
}

TEST_F(ServerTest, StatsCountTheTraffic) {
  Server server = StartServerOrDie();
  Client client = ConnectOrDie(server);
  ASSERT_TRUE(client.Ping().ok());
  ASSERT_TRUE(client.Forecast("t0", *window_).ok());
  Server::Stats stats = server.stats();
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.active_connections, 1);
  EXPECT_EQ(stats.frames_received, 2u);  // ping + forecast
  EXPECT_EQ(stats.frames_sent, 2u);      // pong + response
  EXPECT_GT(stats.bytes_read, 0u);
  EXPECT_GT(stats.bytes_written, 0u);
  EXPECT_EQ(stats.requests_ok, 1u);
  EXPECT_EQ(stats.requests_rejected, 0u);
  EXPECT_EQ(stats.protocol_errors, 0u);
  client.Close();
  EXPECT_TRUE(WaitFor([&] { return server.stats().active_connections == 0; }));
}

TEST_F(ServerTest, StopIsIdempotentAndDrainsInFlightWork) {
  Server server = StartServerOrDie();
  Client client = ConnectOrDie(server);
  ASSERT_TRUE(client.SendForecastRequest("t0", *window_).ok());
  server.Stop();
  server.Stop();  // idempotent
  // The admitted request was flushed through the scheduler on shutdown.
  EXPECT_GE(server.scheduler_stats().executed, 0u);
}

// The per-connection write buffer is bounded: a client that pipelines
// pings but never reads would otherwise grow the server-side backlog
// without limit once the kernel buffers fill (pong and error replies
// bypass the scheduler's admission queue). Instead the slow reader is
// dropped — counted in slow_reader_drops — and the server stays healthy
// for everyone else. The failing sends on the dropped socket also pin the
// client half of the SIGPIPE fix: they surface kUnavailable as a Status
// instead of a signal killing this very process.
TEST_F(ServerTest, SlowReaderIsDroppedOnceItsWriteBacklogExceedsTheCeiling) {
  ServerOptions options;
  options.send_buffer_bytes = 4096;  // cap kernel-side absorption
  options.max_conn_buffered_bytes = 64 * 1024;
  Server server = StartServerOrDie(options);
  ClientOptions never_reads;
  never_reads.recv_buffer_bytes = 4096;
  Client client = ConnectOrDie(server, never_reads);
  std::string burst;
  Frame ping;
  ping.type = FrameType::kPing;
  for (uint64_t id = 1; id <= 4096; ++id) {
    ping.request_id = id;
    burst += EncodeFrame(ping);  // ~96 KiB of pings -> ~96 KiB of pongs
  }
  // Pour pings without ever reading a pong. Well before 64 rounds the
  // un-read pongs exceed kernel buffers plus the 64 KiB ceiling, the
  // server drops the connection, and further sends fail cleanly.
  for (int round = 0; round < 64; ++round) {
    Status sent = client.SendBytes(burst);
    if (!sent.ok()) {
      EXPECT_EQ(sent.code(), StatusCode::kUnavailable);
      break;
    }
    if (server.stats().slow_reader_drops >= 1) break;
  }
  EXPECT_TRUE(WaitFor([&] { return server.stats().slow_reader_drops >= 1; }));
  EXPECT_TRUE(WaitFor([&] { return server.stats().active_connections == 0; }));
  // The server is unharmed for well-behaved clients.
  Client healthy = ConnectOrDie(server);
  EXPECT_TRUE(healthy.Ping().ok());
  Result<Tensor> forecast = healthy.Forecast("t0", *window_);
  ASSERT_TRUE(forecast.ok()) << forecast.status().ToString();
  EXPECT_EQ(forecast.value().ToVector(), expected_->at("t0"));
}

TEST_F(ServerTest, HealthProbeReportsStateAndModelCounts) {
  Server server = StartServerOrDie();
  Client client = ConnectOrDie(server);
  Result<HealthInfo> health = client.Health();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health.value().state, ServeState::kServing);
  EXPECT_EQ(health.value().known_models, 9u);  // 5 families + t0..t3
  EXPECT_EQ(health.value().resident_models, 0u);  // nothing loaded yet

  ASSERT_TRUE(client.Forecast("t0", *window_).ok());
  Result<HealthInfo> after = client.Health();
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_GE(after.value().resident_models, 1u);
  EXPECT_EQ(after.value().state, ServeState::kServing);
}

// Streaming ingestion over the wire (kAppend): rows land in the server's
// observation log with the sequence numbers echoed back, the per-tenant
// journals are isolated, and malformed appends fail the request with a
// structured error, not the connection.
TEST_F(ServerTest, AppendOverTheWireLandsInTheObservationLog) {
  namespace fs = std::filesystem;
  const std::string log_dir = ::testing::TempDir() + "/server_append_log";
  fs::remove_all(log_dir);
  ServerOptions options;
  options.observation_log_dir = log_dir;
  Server server = StartServerOrDie(options);
  Client client = ConnectOrDie(server);

  for (uint64_t seq = 1; seq <= 3; ++seq) {
    Result<uint64_t> assigned = client.Append(
        "t0", {0.5 * static_cast<double>(seq), -1.0, 1.0 / 3.0});
    ASSERT_TRUE(assigned.ok()) << assigned.status().ToString();
    EXPECT_EQ(assigned.value(), seq);
  }
  Result<uint64_t> other = client.Append("t1", {9.0, 9.0, 9.0});
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(other.value(), 1u);  // per-tenant sequences are independent

  // A rank-2 payload is a per-request error; the connection survives.
  Frame bad;
  bad.type = FrameType::kAppend;
  bad.request_id = 777;
  bad.tenant_id = "t0";
  bad.payload = EncodeTensorPayload(
      Tensor::FromVector(Shape{2, 2}, {1.0, 2.0, 3.0, 4.0}));
  ASSERT_TRUE(client.SendFrame(bad).ok());
  Result<Frame> reply = client.ReadFrame();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply.value().request_id, 777u);
  EXPECT_EQ(reply.value().type, FrameType::kError);
  ASSERT_TRUE(client.Ping().ok());

  EXPECT_EQ(server.stats().appends_ok, 4u);
  EXPECT_EQ(server.stats().appends_failed, 1u);

  // The journal is durable: a fresh log on the same directory replays the
  // exact rows, in order.
  server.Stop();
  Result<online::ObservationLog> replayed =
      online::ObservationLog::Open(log_dir);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(replayed.value().rows("t0"), 3);
  EXPECT_EQ(replayed.value().rows("t1"), 1);
  Result<tensor::Tensor> rows = replayed.value().Replay("t0");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().data()[0], 0.5);
  EXPECT_EQ(rows.value().data()[2], 1.0 / 3.0);
  fs::remove_all(log_dir);
}

TEST_F(ServerTest, AppendWithoutAnObservationLogIsRefusedStructurally) {
  Server server = StartServerOrDie();  // no observation_log_dir
  Client client = ConnectOrDie(server);
  Result<uint64_t> refused = client.Append("t0", {1.0, 2.0, 3.0});
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(client.Ping().ok());  // the connection survives the refusal
}

// The health probe surfaces the store's published-version watermark, so a
// client can detect a completed hot swap end to end.
TEST_F(ServerTest, HealthProbeCarriesThePublishedVersionWatermark) {
  Server server = StartServerOrDie();
  Client client = ConnectOrDie(server);
  Result<HealthInfo> before = client.Health();
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before.value().max_published_version, 0u);
  ASSERT_TRUE(
      server.store().Publish("t0", *dir_ + "/t1.snapshot", /*version=*/5).ok());
  Result<HealthInfo> after = client.Health();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().max_published_version, 5u);
  // The swapped tenant serves the new file's exact bytes over the wire.
  Result<Tensor> forecast = client.Forecast("t0", *window_);
  ASSERT_TRUE(forecast.ok()) << forecast.status().ToString();
  EXPECT_EQ(forecast.value().ToVector(), expected_->at("t1"));
}

// Deadline propagation end to end: the deadline travels in the frame
// header, the scheduler sheds the expired request, and the client reads a
// structured kDeadlineExceeded reply — while a request with a generous
// deadline is served the exact module-path bytes.
TEST_F(ServerTest, TinyDeadlineIsShedOverTheWireGenerousDeadlineIsServed) {
  // Age-close is pushed out of reach, so a single pending request can only
  // terminate by expiring: a 1-tick deadline against a clock that advances
  // every loop turn is deterministically dead before any batch closes.
  ServerOptions options;
  options.scheduler.max_delay_ticks = 1'000'000'000;
  Server server = StartServerOrDie(options);
  Client client = ConnectOrDie(server);
  Result<Tensor> shed = client.Forecast("t0", *window_, /*deadline_ticks=*/1);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(shed.status().message().find("deadline"), std::string::npos)
      << shed.status().ToString();
  EXPECT_GE(server.scheduler_stats().expired, 1u);
  EXPECT_EQ(server.scheduler_stats().executed, 0u);

  // A normally-batching server and a deadline that cannot plausibly
  // expire: served, and bitwise what the module path computes.
  Server normal = StartServerOrDie();
  Client normal_client = ConnectOrDie(normal);
  Result<Tensor> served = normal_client.Forecast(
      "t0", *window_, /*deadline_ticks=*/1'000'000'000);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(served.value().ToVector(), expected_->at("t0"));
  EXPECT_GE(normal.scheduler_stats().executed, 1u);
  EXPECT_EQ(normal.scheduler_stats().expired, 0u);
}

// Satellite 2 + drain core: an admitted request's reply is still
// delivered after BeginDrain (finish in-flight, flush, then close).
TEST_F(ServerTest, ReplyAdmittedBeforeDrainIsStillDeliveredAndDrainCompletes) {
  Server server = StartServerOrDie();
  Client client = ConnectOrDie(server);
  Result<uint64_t> id = client.SendForecastRequest("t1", *window_);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  // Once the frame is received it is admitted within the same loop turn;
  // the drain flag is only honored at the top of the next turn.
  ASSERT_TRUE(WaitFor([&] { return server.stats().frames_received >= 1; }));
  server.BeginDrain();
  server.BeginDrain();  // idempotent

  Result<Frame> reply = client.ReadFrame();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply.value().type, FrameType::kForecastResponse);
  EXPECT_EQ(reply.value().request_id, id.value());
  Result<Tensor> forecast = DecodeTensorPayload(reply.value().payload);
  ASSERT_TRUE(forecast.ok()) << forecast.status().ToString();
  EXPECT_EQ(forecast.value().ToVector(), expected_->at("t1"));

  EXPECT_TRUE(server.WaitDrained(/*timeout_ms=*/10000));
  EXPECT_EQ(server.state(), ServeState::kDraining);
  // Zero leaked pins: everything the drained server loaded is evictable.
  EXPECT_GE(server.store().EvictIdle(-1), 1);
  EXPECT_EQ(server.store().stats().resident_models, 0);
  // The drained server's socket is gone for old and new clients alike.
  EXPECT_EQ(client.ReadFrame().status().code(), StatusCode::kUnavailable);
  EXPECT_FALSE(Client::Connect(server.port()).ok());
  server.Stop();
}

// The full drain choreography, held open deliberately: a slow reader's
// un-flushed pongs keep the drain lingering, during which a second
// (pre-drain) connection observes the "draining" rejection and the
// DRAINING health state; once the slow reader finally reads its backlog,
// the flush completes and the drain finishes.
TEST_F(ServerTest, DrainRefusesNewWorkAnswersHealthAndFlushesBacklog) {
  constexpr int kPings = 3000;  // ~100 KiB of pongs, far over 4 KiB buffers
  ServerOptions options;
  options.send_buffer_bytes = 4096;
  options.drain_linger_turns = 60000;  // the test ends the linger itself
  Server server = StartServerOrDie(options);

  ClientOptions slow;
  slow.recv_buffer_bytes = 4096;
  Client backlogged = ConnectOrDie(server, slow);
  Client observer = ConnectOrDie(server);  // connected before the drain
  ASSERT_TRUE(observer.Forecast("t2", *window_).ok());  // a model is resident

  std::string burst;
  Frame ping;
  ping.type = FrameType::kPing;
  for (uint64_t id = 1; id <= kPings; ++id) {
    ping.request_id = id;
    burst += EncodeFrame(ping);
  }
  ASSERT_TRUE(backlogged.SendBytes(burst).ok());
  // All pings are read (reads don't block on the stuck writes), so the
  // pong backlog now exceeds what the kernel buffers can absorb.
  ASSERT_TRUE(WaitFor(
      [&] { return server.stats().frames_received >= kPings + 1; }));

  server.BeginDrain();
  ASSERT_TRUE(WaitFor([&] { return server.state() == ServeState::kDraining; }));
  EXPECT_FALSE(server.WaitDrained(/*timeout_ms=*/20));  // held by the backlog

  // A pre-drain connection: new forecasts are refused with a structured
  // "draining" kUnavailable, and health still answers — naming the state.
  Result<Tensor> refused = observer.Forecast("t3", *window_);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(refused.status().message().find("draining"), std::string::npos)
      << refused.status().ToString();
  Result<HealthInfo> health = observer.Health();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health.value().state, ServeState::kDraining);
  EXPECT_GE(server.stats().requests_rejected, 1u);

  // The slow reader finally reads everything: the best-effort flush can
  // complete, and with it the drain.
  for (int i = 0; i < kPings; ++i) {
    Result<Frame> pong = backlogged.ReadFrame();
    ASSERT_TRUE(pong.ok()) << "pong " << i << ": "
                           << pong.status().ToString();
    ASSERT_EQ(pong.value().type, FrameType::kPong);
  }
  EXPECT_TRUE(server.WaitDrained(/*timeout_ms=*/10000));
  EXPECT_GE(server.store().EvictIdle(-1), 1);
  EXPECT_EQ(server.store().stats().resident_models, 0);
  server.Stop();
}

TEST_F(ServerTest, ConnectionsOverTheCapAreClosedImmediately) {
  ServerOptions options;
  options.max_connections = 1;
  Server server = StartServerOrDie(options);
  Client first = ConnectOrDie(server);
  ASSERT_TRUE(first.Ping().ok());
  Result<Client> second = Client::Connect(server.port());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().Ping().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(first.Ping().ok());  // the admitted connection is unharmed
}

}  // namespace
}  // namespace emaf::serve
