// Chaos soak harness for the request lifecycle (ISSUE PR-8, ctest label
// `soak`): seeded cycles of live servers under randomized fault specs,
// mixed pipelined traffic (known and unknown tenants, tiny and absent
// deadlines, pings, health probes), abrupt mid-traffic kills, and a final
// graceful drain. The invariant under chaos is the lifecycle contract:
//
//   - every request reaches exactly ONE terminal outcome — a reply
//     matched by id (never two, never an unknown id) or the loss of its
//     connection; nothing hangs (a receive timeout fails the soak);
//   - every successful forecast reply is bitwise identical to the module
//     path's bytes for that tenant;
//   - deadline shedding really happens (total expired > 0);
//   - the closing graceful drain completes with zero leaked store pins.
//
// The default run is bounded to ~1 s of wall clock so tier-1 stays fast;
// EMAF_SOAK_SECONDS=300 soaks for real. Everything is driven by one
// seeded Rng — a failing run reproduces exactly.

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve_test_util.h"
#include "tensor/tensor.h"

namespace emaf::serve {
namespace {

double SoakSeconds() {
  if (const char* env = std::getenv("EMAF_SOAK_SECONDS")) {
    const double seconds = std::atof(env);
    if (seconds > 0) return seconds;
  }
  return 1.0;
}

const std::vector<std::string>& Tenants() {
  static const std::vector<std::string> ids = {"s0", "s1", "s2", "s3"};
  return ids;
}

// A randomized-but-seeded EMAF_FAULT_SPEC over the serving fault sites:
// low-probability, trigger-bounded chaos at the accept, read, write and
// cold-load layers.
std::string RandomFaultSpec(Rng* rng) {
  std::string spec;
  auto maybe = [&](const char* site, double max_p, int64_t max_triggers) {
    if (rng->UniformInt(0, 1) == 0) return;
    const double p =
        0.05 + (max_p - 0.05) *
                   static_cast<double>(rng->UniformInt(0, 100)) / 100.0;
    if (!spec.empty()) spec += ",";
    spec += StrCat(site, "=", p, ":", rng->UniformInt(1, max_triggers));
  };
  maybe("serve.server.accept", 0.3, 2);
  maybe("serve.server.read", 0.2, 2);
  maybe("serve.server.write", 0.2, 2);
  maybe("serve.store.load", 0.4, 3);
  return spec;
}

struct SoakTotals {
  uint64_t cycles = 0;
  uint64_t sent = 0;
  uint64_t ok = 0;        // served forecasts, each bitwise-verified
  uint64_t expired = 0;   // kDeadlineExceeded replies
  uint64_t rejected = 0;  // kUnavailable replies (backpressure/faults)
  uint64_t not_found = 0; // unknown-tenant replies
  uint64_t conn_lost = 0; // requests terminal via connection loss
  uint64_t pongs = 0;
  uint64_t healths = 0;
};

class ServeSoakTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new std::string(::testing::TempDir() + "/serve_soak_snapshots");
    expected_ = new std::map<std::string, std::vector<double>>(
        testutil::MakeTinySnapshotDir(*dir_, Tenants()));
    window_ = new tensor::Tensor(testutil::TinyWindow());
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
  void TearDown() override {
    if (fault::kFaultInjectionEnabled) {
      ASSERT_TRUE(fault::Configure("", 0).ok());
    }
  }

  // One chaos cycle: start a server, maybe arm a random fault spec, pour a
  // pipelined burst of mixed traffic, maybe kill the server mid-traffic,
  // and account for every request reaching exactly one terminal outcome.
  void RunCycle(Rng* rng, bool expiry_cycle, SoakTotals* totals) {
    ++totals->cycles;
    ServerOptions options;
    if (expiry_cycle) {
      // Batches close neither by age nor by fill, so every
      // deadline-carrying request in this cycle deterministically expires
      // — the soak's guaranteed source of kDeadlineExceeded traffic.
      options.scheduler.max_delay_ticks = 1'000'000'000;
      options.scheduler.max_batch = 4096;
    }
    Result<Server> started = Server::Start(*dir_, options);
    ASSERT_TRUE(started.ok()) << started.status().ToString();
    Server server = std::move(started).value();

    const bool chaos = fault::kFaultInjectionEnabled && !expiry_cycle &&
                       rng->UniformInt(0, 2) > 0;
    std::string spec;
    if (chaos) {
      spec = RandomFaultSpec(rng);
      ASSERT_TRUE(fault::Configure(spec, /*seed=*/totals->cycles).ok());
    }
    const bool kill_cycle = !expiry_cycle && rng->UniformInt(0, 3) == 0;
    SCOPED_TRACE(StrCat("cycle ", totals->cycles, " expiry=", expiry_cycle,
                        " kill=", kill_cycle, " spec=\"", spec, "\""));

    ClientOptions client_options;
    client_options.recv_timeout_ms = 10000;  // a hang fails the soak
    Result<Client> connected = Client::Connect(server.port(), client_options);
    ASSERT_TRUE(connected.ok()) << connected.status().ToString();
    Client client = std::move(connected).value();

    // Build one pipelined burst with our own id space so every reply can
    // be matched — and double replies or unknown ids caught — by id.
    struct Sent {
      FrameType type;
      std::string tenant;  // forecasts only
      bool known = false;
      bool has_deadline = false;
    };
    std::map<uint64_t, Sent> pending;
    std::string burst;
    const int64_t requests = 16 + rng->UniformInt(0, 24);
    uint64_t next_id = 1;
    for (int64_t i = 0; i < requests; ++i) {
      Frame frame;
      frame.request_id = next_id++;
      const int64_t kind = rng->UniformInt(0, 9);
      if (kind < 7) {
        frame.type = FrameType::kForecastRequest;
        const bool known = rng->UniformInt(0, 4) > 0;
        frame.tenant_id = known ? Tenants()[static_cast<size_t>(
                                      rng->UniformInt(0, 3))]
                                : "stranger";
        frame.payload = EncodeTensorPayload(*window_);
        bool with_deadline = expiry_cycle || rng->UniformInt(0, 3) == 0;
        if (with_deadline) {
          // Tiny in the expiry cycle (guaranteed shed), generous elsewhere
          // (guaranteed live).
          frame.SetDeadline(expiry_cycle
                                ? static_cast<uint64_t>(rng->UniformInt(1, 2))
                                : 1'000'000'000u);
        }
        pending[frame.request_id] =
            Sent{frame.type, frame.tenant_id, known,
                 frame.has_deadline()};
      } else if (kind < 9) {
        frame.type = FrameType::kPing;
        pending[frame.request_id] = Sent{frame.type, "", false, false};
      } else {
        frame.type = FrameType::kHealth;
        pending[frame.request_id] = Sent{frame.type, "", false, false};
      }
      burst += EncodeFrame(frame);
    }
    totals->sent += pending.size();

    Status poured = client.SendBytes(burst);
    if (kill_cycle) server.Stop();  // abrupt: mid-traffic process death
    if (!poured.ok()) {
      // A fault (or the kill) broke the stream mid-send: every request in
      // flight is terminal via connection loss — still exactly one outcome.
      EXPECT_EQ(poured.code(), StatusCode::kUnavailable)
          << poured.ToString();
      totals->conn_lost += pending.size();
      return;
    }

    while (!pending.empty()) {
      Result<Frame> reply = client.ReadFrame();
      if (!reply.ok()) {
        // The only legitimate read failure is losing the connection (a
        // fault closed it, or the kill). A receive timeout is a hang —
        // exactly what the lifecycle contract forbids.
        ASSERT_EQ(reply.status().code(), StatusCode::kUnavailable)
            << reply.status().ToString();
        totals->conn_lost += pending.size();
        pending.clear();
        break;
      }
      const uint64_t id = reply.value().request_id;
      auto it = pending.find(id);
      ASSERT_NE(it, pending.end())
          << "reply for id " << id
          << " — unknown or already answered (double reply)";
      const Sent sent = it->second;
      pending.erase(it);  // second reply for this id would fail above
      switch (reply.value().type) {
        case FrameType::kForecastResponse: {
          ASSERT_EQ(sent.type, FrameType::kForecastRequest);
          ASSERT_TRUE(sent.known) << "served an unknown tenant";
          Result<tensor::Tensor> forecast =
              DecodeTensorPayload(reply.value().payload);
          ASSERT_TRUE(forecast.ok()) << forecast.status().ToString();
          EXPECT_EQ(forecast.value().ToVector(), expected_->at(sent.tenant))
              << "served bytes diverged from the module path for "
              << sent.tenant;
          ++totals->ok;
          break;
        }
        case FrameType::kError: {
          Status carried = Status::Ok();
          ASSERT_TRUE(
              DecodeStatusPayload(reply.value().payload, &carried).ok());
          ASSERT_FALSE(carried.ok());
          if (carried.code() == StatusCode::kDeadlineExceeded) {
            EXPECT_TRUE(sent.has_deadline)
                << "deadline-free request expired: " << carried.ToString();
            ++totals->expired;
          } else if (carried.code() == StatusCode::kNotFound) {
            EXPECT_FALSE(sent.known) << carried.ToString();
            ++totals->not_found;
          } else {
            EXPECT_EQ(carried.code(), StatusCode::kUnavailable)
                << carried.ToString();
            ++totals->rejected;
          }
          break;
        }
        case FrameType::kPong:
          ASSERT_EQ(sent.type, FrameType::kPing);
          ++totals->pongs;
          break;
        case FrameType::kHealthReply: {
          ASSERT_EQ(sent.type, FrameType::kHealth);
          Result<HealthInfo> health =
              DecodeHealthPayload(reply.value().payload);
          ASSERT_TRUE(health.ok()) << health.status().ToString();
          EXPECT_EQ(health.value().state, ServeState::kServing);
          EXPECT_EQ(health.value().known_models, Tenants().size());
          ++totals->healths;
          break;
        }
        default:
          FAIL() << "unexpected reply type "
                 << FrameTypeName(reply.value().type);
      }
    }

    if (chaos) {
      ASSERT_TRUE(fault::Configure("", 0).ok());
    }
    if (!kill_cycle) {
      // A surviving server must still be coherent: residency is bounded by
      // what the store knows, and a quiesced store is fully evictable (no
      // request leaked a pin). A request whose connection died under a
      // fault may still be mid-forward — that pin is transient, so poll
      // briefly; only a pin that never releases is a leak.
      EXPECT_LE(server.store().stats().resident_models,
                static_cast<int64_t>(Tenants().size()));
      const auto evict_deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      int64_t resident = -1;
      while (true) {
        server.store().EvictIdle(-1);
        resident = server.store().stats().resident_models;
        if (resident == 0 ||
            std::chrono::steady_clock::now() >= evict_deadline) {
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      EXPECT_EQ(resident, 0);
    }
  }

  static std::string* dir_;
  static std::map<std::string, std::vector<double>>* expected_;
  static tensor::Tensor* window_;
};

std::string* ServeSoakTest::dir_ = nullptr;
std::map<std::string, std::vector<double>>* ServeSoakTest::expected_ =
    nullptr;
tensor::Tensor* ServeSoakTest::window_ = nullptr;

TEST_F(ServeSoakTest, ChaosCyclesPreserveTheLifecycleInvariant) {
  Rng rng(0x50'41'4b'45ull);  // seeded: a failure reproduces exactly
  SoakTotals totals;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(SoakSeconds()));
  // At least one expiry cycle and a handful of chaos cycles even when the
  // budget is tiny; then keep soaking until the budget runs out.
  uint64_t cycle = 0;
  while (cycle < 4 || std::chrono::steady_clock::now() < deadline) {
    const bool expiry_cycle = cycle % 4 == 0;
    RunCycle(&rng, expiry_cycle, &totals);
    if (HasFatalFailure()) break;
    ++cycle;
  }

  // The traffic mix actually exercised every terminal path.
  EXPECT_GT(totals.ok, 0u) << "no forecast was ever served";
  EXPECT_GT(totals.expired, 0u) << "no deadline ever expired";
  EXPECT_GT(totals.not_found, 0u) << "no unknown tenant was ever asked";
  EXPECT_GT(totals.pongs, 0u);
  // Accounting identity: every request reached exactly one terminal state.
  EXPECT_EQ(totals.sent, totals.ok + totals.expired + totals.rejected +
                             totals.not_found + totals.conn_lost +
                             totals.pongs + totals.healths);
  std::cout << "[soak] cycles=" << totals.cycles << " sent=" << totals.sent
            << " ok=" << totals.ok << " expired=" << totals.expired
            << " rejected=" << totals.rejected
            << " not_found=" << totals.not_found
            << " conn_lost=" << totals.conn_lost
            << " pongs=" << totals.pongs << " healths=" << totals.healths
            << "\n";
}

// The soak's closing act, deterministic on its own: a graceful drain after
// real traffic completes with every reply flushed and zero leaked pins.
TEST_F(ServeSoakTest, GracefulDrainAfterTrafficLeaksNothing) {
  Result<Server> started = Server::Start(*dir_);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  Server server = std::move(started).value();
  Result<Client> connected = Client::Connect(server.port());
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  Client client = std::move(connected).value();

  for (const std::string& tenant : Tenants()) {
    Result<tensor::Tensor> forecast = client.Forecast(tenant, *window_);
    ASSERT_TRUE(forecast.ok()) << forecast.status().ToString();
    EXPECT_EQ(forecast.value().ToVector(), expected_->at(tenant)) << tenant;
  }

  server.BeginDrain();
  ASSERT_TRUE(server.WaitDrained(/*timeout_ms=*/10000));
  EXPECT_EQ(server.state(), ServeState::kDraining);
  EXPECT_GE(server.store().EvictIdle(-1), 1);
  EXPECT_EQ(server.store().stats().resident_models, 0);
  EXPECT_FALSE(Client::Connect(server.port()).ok());
  server.Stop();
}

}  // namespace
}  // namespace emaf::serve
