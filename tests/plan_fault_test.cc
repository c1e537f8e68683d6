// Fault / robustness contract for the compiled-plan execution path
// (DESIGN.md, "Compiled plans"): fault site plan.execute/<id> fails only
// the affected request, with a structured per-request error; the model's
// plan cache is disabled so later requests for that id fall back to the
// module path and serve the exact expected bytes; other tenants are
// untouched. Through the scheduler, the failed request lands in the
// `failed` stat and serve.scheduler.failed_total like any other
// per-request failure.

#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "common/metrics.h"
#include "serve/model_store.h"
#include "serve/scheduler.h"
#include "serve_test_util.h"
#include "tensor/tensor.h"

namespace emaf::serve {
namespace {

using tensor::Tensor;

class PlanFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!fault::kFaultInjectionEnabled) GTEST_SKIP();
    dir_ = ::testing::TempDir() + "/plan_fault_snapshots";
    expected_ = testutil::MakeTinySnapshotDir(dir_, {"alpha", "beta"});
    window_ = testutil::TinyWindow();
  }

  void TearDown() override {
    if (fault::kFaultInjectionEnabled) {
      ASSERT_TRUE(fault::Configure("", 0).ok());
    }
  }

  std::string dir_;
  std::map<std::string, std::vector<double>> expected_;
  Tensor window_;
};

TEST_F(PlanFaultTest, ExecuteFaultFailsOneRequestThenFallsBackToModule) {
  Result<ModelStore> store = ModelStore::Open(dir_);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto forecast = [&](const std::string& id) {
    return testutil::Serve(&store.value(), /*arena=*/nullptr, id, window_);
  };
  ASSERT_TRUE(fault::Configure("plan.execute/alpha=1", 1).ok());

  // The faulted request fails with a structured error naming the site...
  Result<Tensor> faulted = forecast("alpha");
  ASSERT_FALSE(faulted.ok());
  EXPECT_EQ(faulted.status().code(), StatusCode::kInternal);
  EXPECT_NE(faulted.status().message().find("plan.execute/alpha"),
            std::string::npos)
      << faulted.status().ToString();

  // ...while an unrelated tenant is untouched...
  Result<Tensor> other = forecast("beta");
  ASSERT_TRUE(other.ok()) << other.status().ToString();
  EXPECT_EQ(other.value().ToVector(), expected_["beta"]);

  // ...and the affected tenant recovers immediately on the module
  // fallback, serving the exact expected bytes.
  ASSERT_TRUE(fault::Configure("", 0).ok());
  Result<Tensor> recovered = forecast("alpha");
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value().ToVector(), expected_["alpha"]);

  // The fallback is sticky for this residency: with the fault cleared,
  // repeated requests keep serving correct bytes (module path, no plan
  // recompile churn).
  Result<Tensor> again = forecast("alpha");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().ToVector(), expected_["alpha"]);
}

TEST_F(PlanFaultTest, SchedulerAccountsPlanFaultAsFailedRequest) {
  Result<ModelStore> store = ModelStore::Open(dir_);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ManualClock clock;
  SchedulerOptions options;
  options.max_delay_ticks = 0;
  RequestScheduler scheduler(&store.value(), nullptr, options, &clock);

  uint64_t failed_before = 0;
  if constexpr (obs::kMetricsEnabled) {
    failed_before = obs::Registry::Global()
                        .GetCounter("serve.scheduler.failed_total")
                        ->value();
  }

  ASSERT_TRUE(fault::Configure("plan.execute/alpha=1", 1).ok());
  Result<RequestTicket> alpha = scheduler.Submit({"alpha", window_});
  Result<RequestTicket> beta = scheduler.Submit({"beta", window_});
  ASSERT_TRUE(alpha.ok());
  ASSERT_TRUE(beta.ok());
  EXPECT_EQ(scheduler.Flush(), 2);

  ASSERT_TRUE(alpha.value().done());
  ASSERT_TRUE(beta.value().done());
  EXPECT_FALSE(alpha.value().result().ok());
  EXPECT_EQ(alpha.value().result().status().code(), StatusCode::kInternal);
  ASSERT_TRUE(beta.value().result().ok());
  EXPECT_EQ(beta.value().result().value().ToVector(), expected_["beta"]);

  EXPECT_EQ(scheduler.stats().failed, 1u);
  if constexpr (obs::kMetricsEnabled) {
    EXPECT_EQ(obs::Registry::Global()
                  .GetCounter("serve.scheduler.failed_total")
                  ->value(),
              failed_before + 1);
  }

  // The same id served again through the scheduler succeeds on the
  // module fallback.
  ASSERT_TRUE(fault::Configure("", 0).ok());
  Result<RequestTicket> retry = scheduler.Submit({"alpha", window_});
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(scheduler.Flush(), 1);
  ASSERT_TRUE(retry.value().result().ok());
  EXPECT_EQ(retry.value().result().value().ToVector(), expected_["alpha"]);
  EXPECT_EQ(scheduler.stats().failed, 1u);
}

}  // namespace
}  // namespace emaf::serve
