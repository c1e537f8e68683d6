// Open-loop serving benchmark (ISSUE PR-6): stands up the epoll server on
// a manifest-backed snapshot directory where many tenant ids alias a few
// physical snapshots laid out in sharded subdirectories — 100k tenants by
// default, the million-tenant story at bench scale — then drives a
// Zipf-distributed tenant mix at a sweep of target request rates and
// reports p50/p99/p999 latency and the rejection rate per point.
//
// Open-loop means the sender paces by the target rate, not by completions:
// when the server saturates, the admission queue fills and the overflow
// comes back as structured kUnavailable frames — the rejection-rate curve
// IS the backpressure contract measured end to end.
//
// Scale knobs (env):
//   EMAF_BENCH_TENANTS           manifest tenant count   (default 100000)
//   EMAF_BENCH_UNIQUE_SNAPSHOTS  physical snapshots      (default 32)
//   EMAF_BENCH_REQUESTS          requests per QPS point  (default 2000)
//   EMAF_BENCH_QPS               comma list of targets   (default
//                                "2000,8000,32000")
//   EMAF_BENCH_ZIPF_S            Zipf skew exponent      (default 1.1)
//   EMAF_BENCH_SEED              load-mix seed           (default 42)
//   EMAF_BENCH_DEADLINE_TICKS    per-request deadline    (default 0 = none)
//   EMAF_BENCH_SLA_MS            goodput latency bound   (default 50)
//
// Every reply is classified: ok (and, when under EMAF_BENCH_SLA_MS,
// goodput), rejected (kUnavailable backpressure), deadline_missed
// (kDeadlineExceeded sheds when EMAF_BENCH_DEADLINE_TICKS is set),
// resource_exhausted (kResourceExhausted: the store's residency budget
// could not make room), or errors. The sweep starts only after a health probe reports SERVING.
//
// `--smoke` shrinks everything (16 tenants / 4 snapshots / 100 requests /
// one point), runs in well under a second, and then re-reads the emitted
// BENCH_serving.json to verify the schema — the ctest regression gate.
// EMAF_BENCH_JSON_DIR overrides the output directory (default: cwd).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/env.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "models/registry.h"
#include "serve/client.h"
#include "serve/model_store.h"
#include "serve/server.h"
#include "tensor/tensor.h"

namespace emaf::bench {
namespace {

using tensor::Shape;
using tensor::Tensor;

constexpr int64_t kVars = 3;
constexpr int64_t kSteps = 2;

struct ServingScale {
  int64_t tenants = 100000;
  int64_t unique_snapshots = 32;
  int64_t requests = 2000;
  std::vector<double> target_qps = {2000, 8000, 32000};
  double zipf_s = 1.1;
  uint64_t seed = 42;
  uint64_t deadline_ticks = 0;  // 0 = no per-request deadline
  double sla_ms = 50;           // ok replies at/below this count as goodput
  bool smoke = false;
};

ServingScale ReadServingScale(bool smoke) {
  ServingScale scale;
  scale.smoke = smoke;
  scale.tenants = GetEnvInt64("EMAF_BENCH_TENANTS", smoke ? 16 : 100000);
  scale.unique_snapshots =
      GetEnvInt64("EMAF_BENCH_UNIQUE_SNAPSHOTS", smoke ? 4 : 32);
  scale.requests = GetEnvInt64("EMAF_BENCH_REQUESTS", smoke ? 100 : 2000);
  scale.zipf_s = GetEnvDouble("EMAF_BENCH_ZIPF_S", 1.1);
  scale.seed = static_cast<uint64_t>(GetEnvInt64("EMAF_BENCH_SEED", 42));
  scale.deadline_ticks =
      static_cast<uint64_t>(GetEnvInt64("EMAF_BENCH_DEADLINE_TICKS", 0));
  scale.sla_ms = GetEnvDouble("EMAF_BENCH_SLA_MS", 50);
  std::string qps =
      GetEnvString("EMAF_BENCH_QPS", smoke ? "20000" : "2000,8000,32000");
  scale.target_qps.clear();
  std::stringstream stream(qps);
  std::string token;
  while (std::getline(stream, token, ',')) {
    if (!token.empty()) scale.target_qps.push_back(std::stod(token));
  }
  return scale;
}

// Builds `unique` tiny untrained LSTM snapshots under dir/shards/<nn>/ and
// a MANIFEST aliasing `tenants` ids onto them round-robin — the layout
// ModelStore::Open consumes directly.
Status BuildManifestDir(const std::string& dir, const ServingScale& scale) {
  namespace fs = std::filesystem;
  fs::remove_all(dir);
  const int64_t shards = std::max<int64_t>(
      1, std::min<int64_t>(16, scale.unique_snapshots));
  std::vector<std::string> relpaths;
  for (int64_t u = 0; u < scale.unique_snapshots; ++u) {
    const int64_t shard = u % shards;
    const std::string shard_dir =
        StrCat(dir, "/shards/", shard < 10 ? "0" : "", shard);
    std::error_code ec;
    fs::create_directories(shard_dir, ec);
    if (ec) return Status::Internal(StrCat("mkdir ", shard_dir));
    models::ModelConfig config;
    config.family = "LSTM";
    config.num_variables = kVars;
    config.input_length = kSteps;
    config.lstm.hidden_units = 4;
    Rng rng(scale.seed + static_cast<uint64_t>(u));
    std::unique_ptr<models::Forecaster> model =
        models::CreateForecasterOrDie(config, &rng);
    const std::string rel = StrCat("shards/", shard < 10 ? "0" : "", shard,
                                   "/uniq_", u, ".snapshot");
    EMAF_RETURN_IF_ERROR(models::SaveForecasterSnapshot(
        model.get(), config, dir + "/" + rel));
    relpaths.push_back(rel);
  }
  std::map<std::string, std::string> manifest;
  for (int64_t t = 0; t < scale.tenants; ++t) {
    manifest.emplace(StrCat("tenant-", t),
                     relpaths[static_cast<size_t>(t) % relpaths.size()]);
  }
  return serve::WriteManifest(dir, manifest);
}

// Tenant popularity ~ 1/rank^s (rank 0 most popular). Sampling is a
// binary search over the precomputed CDF.
class ZipfSampler {
 public:
  ZipfSampler(int64_t n, double s) : cdf_(static_cast<size_t>(n)) {
    double total = 0;
    for (int64_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[static_cast<size_t>(i)] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  int64_t Sample(Rng* rng) const {
    const double u = rng->Uniform();
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return it == cdf_.end() ? static_cast<int64_t>(cdf_.size()) - 1
                            : static_cast<int64_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

double PercentileMs(std::vector<double> sorted_ms, double q) {
  if (sorted_ms.empty()) return 0;
  const size_t idx = std::min(
      sorted_ms.size() - 1,
      static_cast<size_t>(q * static_cast<double>(sorted_ms.size())));
  return sorted_ms[idx];
}

struct PointResult {
  double target_qps = 0;
  int64_t sent = 0;
  int64_t ok = 0;
  int64_t goodput = 0;  // ok replies answered within the SLA bound
  int64_t rejected = 0;            // kUnavailable — admission backpressure
  int64_t deadline_missed = 0;     // kDeadlineExceeded — shed past deadline
  int64_t resource_exhausted = 0;  // kResourceExhausted — budget pressure
  int64_t errors = 0;
  double rejection_rate = 0;
  double deadline_miss_rate = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double p999_ms = 0;
  double achieved_qps = 0;
  double goodput_qps = 0;
  double wall_seconds = 0;
};

// One open-loop point: a sender thread paces `requests` pipelined sends at
// `target_qps` while a reader thread drains replies and classifies them.
Result<PointResult> RunPoint(uint16_t port, const ServingScale& scale,
                             double target_qps, const Tensor& window) {
  Result<serve::Client> connected = serve::Client::Connect(port);
  if (!connected.ok()) return connected.status();
  serve::Client client = std::move(connected).value();

  const int64_t requests = scale.requests;
  ZipfSampler zipf(scale.tenants, scale.zipf_s);
  Rng mix_rng(scale.seed * 7919 + static_cast<uint64_t>(target_qps));
  std::vector<std::string> plan(static_cast<size_t>(requests));
  for (auto& tenant : plan) {
    tenant = StrCat("tenant-", zipf.Sample(&mix_rng));
  }

  std::mutex mu;  // guards send_times between sender and reader
  std::vector<std::chrono::steady_clock::time_point> send_times(
      static_cast<size_t>(requests));
  std::atomic<int64_t> sent{0};
  std::atomic<bool> send_failed{false};

  const auto start = std::chrono::steady_clock::now();
  std::thread sender([&] {
    const std::chrono::duration<double> interval(
        target_qps > 0 ? 1.0 / target_qps : 0.0);
    auto next = std::chrono::steady_clock::now();
    for (int64_t i = 0; i < requests; ++i) {
      std::this_thread::sleep_until(next);
      next += std::chrono::duration_cast<
          std::chrono::steady_clock::duration>(interval);
      {
        std::lock_guard<std::mutex> lock(mu);
        send_times[static_cast<size_t>(i)] =
            std::chrono::steady_clock::now();
      }
      Result<uint64_t> id = client.SendForecastRequest(
          plan[static_cast<size_t>(i)], window, scale.deadline_ticks);
      if (!id.ok()) {
        send_failed.store(true);
        return;
      }
      sent.fetch_add(1);
    }
  });

  PointResult point;
  point.target_qps = target_qps;
  std::vector<double> latencies_ms;
  latencies_ms.reserve(static_cast<size_t>(requests));
  int64_t received = 0;
  while (received < requests && !send_failed.load()) {
    Result<serve::Frame> reply = client.ReadFrame();
    if (!reply.ok()) {
      // Timeout / closed connection: the remaining replies are errors.
      point.errors += requests - received;
      break;
    }
    const auto now = std::chrono::steady_clock::now();
    ++received;
    const uint64_t id = reply.value().request_id;  // ids count from 1
    double ms = 0;
    if (id >= 1 && id <= static_cast<uint64_t>(requests)) {
      std::lock_guard<std::mutex> lock(mu);
      ms = std::chrono::duration<double, std::milli>(
               now - send_times[static_cast<size_t>(id - 1)])
               .count();
    }
    if (reply.value().type == serve::FrameType::kForecastResponse) {
      ++point.ok;
      if (ms <= scale.sla_ms) ++point.goodput;
      latencies_ms.push_back(ms);
    } else if (reply.value().type == serve::FrameType::kError) {
      // Split backpressure, deadline shedding and budget pressure: the
      // structured status travels in the payload.
      Status carried = Status::Ok();
      Status parse =
          serve::DecodeStatusPayload(reply.value().payload, &carried);
      if (parse.ok() && carried.code() == StatusCode::kDeadlineExceeded) {
        ++point.deadline_missed;
      } else if (parse.ok() &&
                 carried.code() == StatusCode::kUnavailable) {
        ++point.rejected;
      } else if (parse.ok() &&
                 carried.code() == StatusCode::kResourceExhausted) {
        ++point.resource_exhausted;
      } else {
        ++point.errors;
      }
    } else {
      ++point.errors;
    }
  }
  sender.join();
  point.wall_seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  point.sent = sent.load();
  if (send_failed.load()) {
    return Status::Unavailable("sender thread failed mid-point");
  }
  std::sort(latencies_ms.begin(), latencies_ms.end());
  point.p50_ms = PercentileMs(latencies_ms, 0.50);
  point.p99_ms = PercentileMs(latencies_ms, 0.99);
  point.p999_ms = PercentileMs(latencies_ms, 0.999);
  point.rejection_rate =
      point.sent > 0
          ? static_cast<double>(point.rejected) /
                static_cast<double>(point.sent)
          : 0;
  point.deadline_miss_rate =
      point.sent > 0
          ? static_cast<double>(point.deadline_missed) /
                static_cast<double>(point.sent)
          : 0;
  point.achieved_qps =
      point.wall_seconds > 0
          ? static_cast<double>(point.ok) / point.wall_seconds
          : 0;
  point.goodput_qps =
      point.wall_seconds > 0
          ? static_cast<double>(point.goodput) / point.wall_seconds
          : 0;
  return point;
}

std::string ToJson(const ServingScale& scale,
                   const std::vector<PointResult>& points) {
  std::ostringstream out;
  out << "{\"bench\": \"serving\", \"tenants\": " << scale.tenants
      << ", \"unique_snapshots\": " << scale.unique_snapshots
      << ", \"requests_per_point\": " << scale.requests
      << ", \"zipf_s\": " << scale.zipf_s << ", \"seed\": " << scale.seed
      << ", \"deadline_ticks\": " << scale.deadline_ticks
      << ", \"sla_ms\": " << scale.sla_ms
      << ", \"smoke\": " << (scale.smoke ? "true" : "false")
      << ", \"points\": [";
  for (size_t i = 0; i < points.size(); ++i) {
    const PointResult& p = points[i];
    if (i > 0) out << ", ";
    out << "{\"target_qps\": " << p.target_qps << ", \"sent\": " << p.sent
        << ", \"ok\": " << p.ok << ", \"goodput\": " << p.goodput
        << ", \"rejected\": " << p.rejected
        << ", \"deadline_missed\": " << p.deadline_missed
        << ", \"resource_exhausted\": " << p.resource_exhausted
        << ", \"errors\": " << p.errors
        << ", \"rejection_rate\": " << p.rejection_rate
        << ", \"deadline_miss_rate\": " << p.deadline_miss_rate
        << ", \"p50_ms\": " << p.p50_ms << ", \"p99_ms\": " << p.p99_ms
        << ", \"p999_ms\": " << p.p999_ms
        << ", \"achieved_qps\": " << p.achieved_qps
        << ", \"goodput_qps\": " << p.goodput_qps
        << ", \"wall_seconds\": " << p.wall_seconds << "}";
  }
  out << "]}";
  return out.str();
}

// The smoke-mode regression gate: the emitted JSON must carry every schema
// key a trajectory consumer depends on, and the point must account for
// every request it sent.
bool ValidateSchema(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "[smoke] missing " << path << "\n";
    return false;
  }
  std::string json((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  bool ok = true;
  for (const char* key :
       {"\"bench\"", "\"tenants\"", "\"unique_snapshots\"",
        "\"requests_per_point\"", "\"zipf_s\"", "\"deadline_ticks\"",
        "\"sla_ms\"", "\"points\"", "\"target_qps\"", "\"sent\"",
        "\"ok\"", "\"goodput\"", "\"rejected\"", "\"deadline_missed\"",
        "\"resource_exhausted\"", "\"errors\"", "\"rejection_rate\"",
        "\"deadline_miss_rate\"", "\"p50_ms\"", "\"p99_ms\"",
        "\"p999_ms\"", "\"achieved_qps\"", "\"goodput_qps\"",
        "\"wall_seconds\""}) {
    if (json.find(key) == std::string::npos) {
      std::cerr << "[smoke] BENCH_serving.json is missing " << key << "\n";
      ok = false;
    }
  }
  return ok;
}

int Run(bool smoke) {
  const ServingScale scale = ReadServingScale(smoke);
  const std::string dir =
      StrCat(std::filesystem::temp_directory_path().string(),
             "/emaf_bench_serving_", scale.tenants);
  std::cout << "=== serving bench ===\n"
            << "tenants: " << scale.tenants << " (over "
            << scale.unique_snapshots << " physical snapshots), "
            << scale.requests << " requests/point, zipf_s=" << scale.zipf_s
            << (smoke ? " [smoke]" : "") << "\n";

  Status built = BuildManifestDir(dir, scale);
  if (!built.ok()) {
    std::cerr << "setup failed: " << built.ToString() << "\n";
    return 1;
  }
  serve::ServerOptions options;
  // Bound residency like a real multi-tenant box: the store may hold at
  // most half the physical snapshots, so the Zipf tail churns the LRU.
  options.store.max_resident_models =
      std::max<int64_t>(2, scale.unique_snapshots / 2);
  Result<serve::Server> started = serve::Server::Start(dir, options);
  if (!started.ok()) {
    std::cerr << "server start failed: " << started.status().ToString()
              << "\n";
    return 1;
  }
  serve::Server server = std::move(started).value();

  // Health gate: the sweep only starts against a server that says SERVING.
  {
    Result<serve::Client> probe = serve::Client::Connect(server.port());
    if (!probe.ok()) {
      std::cerr << "health probe connect failed: "
                << probe.status().ToString() << "\n";
      return 1;
    }
    Result<serve::HealthInfo> health = probe.value().Health();
    if (!health.ok() ||
        health.value().state != serve::ServeState::kServing) {
      std::cerr << "server not healthy before sweep: "
                << (health.ok() ? "state != SERVING"
                                : health.status().ToString())
                << "\n";
      return 1;
    }
  }
  std::cout << "server on 127.0.0.1:" << server.port() << ", "
            << scale.tenants << " tenants known, health=SERVING\n\n";

  Rng window_rng(scale.seed);
  Tensor window =
      Tensor::Uniform(Shape{1, kSteps, kVars}, -1, 1, &window_rng);

  std::vector<PointResult> points;
  for (double qps : scale.target_qps) {
    Result<PointResult> point = RunPoint(server.port(), scale, qps, window);
    if (!point.ok()) {
      std::cerr << "point " << qps << " qps failed: "
                << point.status().ToString() << "\n";
      return 1;
    }
    const PointResult& p = point.value();
    std::cout << "target " << qps << " qps: sent=" << p.sent
              << " ok=" << p.ok << " goodput=" << p.goodput
              << " rejected=" << p.rejected
              << " deadline_missed=" << p.deadline_missed
              << " resource_exhausted=" << p.resource_exhausted
              << " errors=" << p.errors << " reject_rate="
              << p.rejection_rate << " miss_rate=" << p.deadline_miss_rate
              << "\n  p50=" << p.p50_ms << "ms p99=" << p.p99_ms
              << "ms p999=" << p.p999_ms << "ms achieved="
              << p.achieved_qps << " qps goodput=" << p.goodput_qps
              << " qps\n";
    points.push_back(p);
  }
  server.Stop();
  std::filesystem::remove_all(dir);

  const std::string json = ToJson(scale, points);
  const Result<std::string> path = WriteBenchJson("serving", json);
  if (!path.ok()) {
    std::cerr << path.status().message() << "\n";
    return 1;
  }

  if (smoke) {
    if (path.value().empty() || !ValidateSchema(path.value())) return 1;
    // Accounting must close: every sent request was answered or counted,
    // and goodput can never exceed the ok replies it is carved from.
    for (const PointResult& p : points) {
      const int64_t answered = p.ok + p.rejected + p.deadline_missed +
                               p.resource_exhausted + p.errors;
      if (answered != p.sent || p.sent == 0) {
        std::cerr << "[smoke] request accounting does not close\n";
        return 1;
      }
      if (p.goodput > p.ok) {
        std::cerr << "[smoke] goodput exceeds ok\n";
        return 1;
      }
    }
    std::cout << "[smoke] BENCH_serving.json schema OK\n";
  }
  return 0;
}

}  // namespace
}  // namespace emaf::bench

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--smoke") smoke = true;
  }
  return emaf::bench::Run(smoke);
}
