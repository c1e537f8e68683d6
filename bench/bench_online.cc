// Online-ingestion benchmark (DESIGN.md, "Online ingestion & hot-swap"):
// measures the closed loop from a streamed observation to a hot-swapped
// serving model, and the forecasting value of updating at all.
//
// Three sections, one BENCH_online.json:
//
//   updates — streams a synthetic EMA signal with a mid-stream regime
//     change into the observation log for every individual, runs
//     OnlinePipeline::UpdateIndividual on a fixed cadence, and reports
//     p50/p99 update latency (append -> fine-tune -> publish -> swap).
//     The whole update schedule is replayed at 1, 2 and 8 pool threads
//     (individuals fan out via ParallelFor); every per-individual MSE
//     must come back bitwise identical — `deterministic_across_threads`
//     in the JSON is that check, not an aspiration.
//
//   swap — a live loopback server under pipelined forecast traffic while
//     ModelStore::Publish retargets the tenant: swap latency, how many
//     requests were served while the swap was in flight, and the count of
//     replies that were bitwise neither old nor new (must be 0).
//
//   mse_rows — per individual, one-step-ahead MSE over the stream's tail
//     for the static arm (the initial snapshot, never updated) vs. the
//     windowed arm (the last online-published snapshot) — the
//     windowed-vs-static ablation of the streaming story.
//
// Scale knobs (env):
//   EMAF_BENCH_ONLINE_INDIVIDUALS  stream count            (default 4)
//   EMAF_BENCH_ONLINE_ROWS         rows per individual     (default 120)
//   EMAF_BENCH_ONLINE_UPDATE_EVERY rows between updates    (default 16)
//   EMAF_BENCH_ONLINE_EPOCHS       fine-tune epochs        (default 3)
//   EMAF_BENCH_SEED                model/init seed         (default 42)
//   EMAF_BENCH_JSON_DIR            output dir ("-" = none) (default ".")
//
// `--smoke` shrinks everything, re-reads the emitted JSON to verify the
// schema, and enforces the invariants (determinism across threads, zero
// mixed-version replies, request accounting) — the ctest regression gate.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/env.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/evaluator.h"
#include "models/registry.h"
#include "online/observation_log.h"
#include "online/pipeline.h"
#include "online/publisher.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "tensor/tensor.h"

namespace emaf::bench {
namespace {

namespace fs = std::filesystem;
using tensor::Shape;
using tensor::Tensor;

constexpr int64_t kVars = 3;
constexpr int64_t kSteps = 2;  // model input_length

struct OnlineScale {
  int64_t individuals = 4;
  int64_t rows = 120;
  int64_t update_every = 16;
  int64_t epochs = 3;
  uint64_t seed = 42;
  bool smoke = false;
};

OnlineScale ReadOnlineScale(bool smoke) {
  OnlineScale scale;
  scale.smoke = smoke;
  if (smoke) {
    scale.individuals = 2;
    scale.rows = 48;
    scale.update_every = 12;
    scale.epochs = 2;
  }
  scale.individuals =
      GetEnvInt64("EMAF_BENCH_ONLINE_INDIVIDUALS", scale.individuals);
  scale.rows = GetEnvInt64("EMAF_BENCH_ONLINE_ROWS", scale.rows);
  scale.update_every =
      GetEnvInt64("EMAF_BENCH_ONLINE_UPDATE_EVERY", scale.update_every);
  scale.epochs = GetEnvInt64("EMAF_BENCH_ONLINE_EPOCHS", scale.epochs);
  scale.seed = static_cast<uint64_t>(GetEnvInt64("EMAF_BENCH_SEED", 42));
  return scale;
}

std::string IndividualId(int64_t index) { return StrCat("i", index); }

// The synthetic stream: a smooth per-individual signal whose coupling
// shifts at mid-stream (the regime change a static model cannot follow).
double Observation(int64_t individual, int64_t t, int64_t v, int64_t rows) {
  const double base =
      std::sin(0.25 * static_cast<double>(t) + static_cast<double>(v) +
               0.37 * static_cast<double>(individual)) +
      0.3 * std::sin(0.05 * static_cast<double>(t));
  const double regime =
      t >= rows / 2 ? 0.4 * static_cast<double>(v + 1) : 0.0;
  return base + regime;
}

std::vector<double> ObservationRow(int64_t individual, int64_t t,
                                   int64_t rows) {
  std::vector<double> row(kVars);
  for (int64_t v = 0; v < kVars; ++v) {
    row[static_cast<size_t>(v)] = Observation(individual, t, v, rows);
  }
  return row;
}

models::ModelConfig BenchConfig() {
  models::ModelConfig config;
  config.family = "LSTM";
  config.num_variables = kVars;
  config.input_length = kSteps;
  config.lstm.hidden_units = 4;
  return config;
}

// Saves the initial (untrained) snapshot per individual into `dir`.
Status BuildSnapshotDir(const std::string& dir, const OnlineScale& scale) {
  fs::remove_all(dir);
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return Status::Internal(StrCat("mkdir ", dir, ": ", ec.message()));
  for (int64_t i = 0; i < scale.individuals; ++i) {
    models::ModelConfig config = BenchConfig();
    Rng rng(scale.seed + static_cast<uint64_t>(i));
    std::unique_ptr<models::Forecaster> model =
        models::CreateForecasterOrDie(config, &rng);
    EMAF_RETURN_IF_ERROR(models::SaveForecasterSnapshot(
        model.get(), config,
        StrCat(dir, "/", IndividualId(i), ".snapshot")));
  }
  return Status::Ok();
}

// One-step-ahead MSE of `model` over the last quarter of the stream.
double TailMse(models::Forecaster* model, int64_t individual,
               const OnlineScale& scale) {
  const int64_t eval_rows = std::max<int64_t>(4, scale.rows / 4);
  double sum = 0;
  int64_t count = 0;
  for (int64_t t = scale.rows - eval_rows; t < scale.rows; ++t) {
    Tensor window = Tensor::Zeros(Shape{1, kSteps, kVars});
    for (int64_t s = 0; s < kSteps; ++s) {
      for (int64_t v = 0; v < kVars; ++v) {
        window.data()[s * kVars + v] =
            Observation(individual, t - kSteps + s, v, scale.rows);
      }
    }
    const std::vector<double> predicted =
        core::Predict(model, window).ToVector();
    for (int64_t v = 0; v < kVars; ++v) {
      const double err = predicted[static_cast<size_t>(v)] -
                         Observation(individual, t, v, scale.rows);
      sum += err * err;
      ++count;
    }
  }
  return sum / static_cast<double>(count);
}

struct RunResult {
  std::vector<double> update_latencies_ms;  // across all individuals
  std::vector<double> windowed_mse;         // per individual
  std::vector<double> static_mse;           // per individual
};

// Replays the full stream + update schedule at `num_threads` pool
// threads: individuals fan out via ParallelFor (grain 1), each with its
// own OnlinePipeline over the shared log/publisher/store.
Result<RunResult> RunOnce(const std::string& root, const OnlineScale& scale,
                          int64_t num_threads) {
  const std::string snapshots = StrCat(root, "/snapshots");
  const std::string logs = StrCat(root, "/obslog");
  EMAF_RETURN_IF_ERROR(BuildSnapshotDir(snapshots, scale));
  fs::remove_all(logs);

  Result<online::ObservationLog> log = online::ObservationLog::Open(logs);
  if (!log.ok()) return log.status();
  Result<online::SnapshotPublisher> publisher =
      online::SnapshotPublisher::Open(snapshots);
  if (!publisher.ok()) return publisher.status();
  Result<serve::ModelStore> store = serve::ModelStore::Open(snapshots);
  if (!store.ok()) return store.status();

  RunResult result;
  result.windowed_mse.assign(static_cast<size_t>(scale.individuals), 0.0);
  result.static_mse.assign(static_cast<size_t>(scale.individuals), 0.0);
  std::vector<std::vector<double>> latencies(
      static_cast<size_t>(scale.individuals));
  std::atomic<bool> failed{false};
  std::string first_error;
  std::mutex error_mu;

  common::ThreadPool pool(num_threads);
  pool.ParallelFor(0, scale.individuals, /*grain=*/1, [&](int64_t begin,
                                                          int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      const std::string id = IndividualId(i);
      online::OnlinePipelineOptions options;
      options.graph.window_rows = 32;
      options.train.epochs = scale.epochs;
      online::OnlinePipeline pipeline(&log.value(), &publisher.value(),
                                      &store.value(), options);
      for (int64_t t = 0; t < scale.rows; ++t) {
        Result<uint64_t> appended =
            log.value().Append(id, ObservationRow(i, t, scale.rows));
        if (!appended.ok()) {
          std::lock_guard<std::mutex> guard(error_mu);
          if (!failed.exchange(true)) {
            first_error = appended.status().ToString();
          }
          return;
        }
        const int64_t streamed = t + 1;
        if (streamed >= options.graph.min_rows &&
            streamed % scale.update_every == 0) {
          const auto start = std::chrono::steady_clock::now();
          Result<online::UpdateOutcome> outcome =
              pipeline.UpdateIndividual(id);
          const double ms =
              std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - start)
                  .count();
          if (!outcome.ok()) {
            std::lock_guard<std::mutex> guard(error_mu);
            if (!failed.exchange(true)) {
              first_error = outcome.status().ToString();
            }
            return;
          }
          latencies[static_cast<size_t>(i)].push_back(ms);
        }
      }
      // Evaluate both arms on the tail of the stream.
      Rng static_rng(scale.seed + static_cast<uint64_t>(i));
      models::ModelConfig config = BenchConfig();
      std::unique_ptr<models::Forecaster> initial =
          models::CreateForecasterOrDie(config, &static_rng);
      result.static_mse[static_cast<size_t>(i)] =
          TailMse(initial.get(), i, scale);
      Result<std::string> latest = store.value().snapshot_path(id);
      if (!latest.ok()) {
        std::lock_guard<std::mutex> guard(error_mu);
        if (!failed.exchange(true)) first_error = latest.status().ToString();
        return;
      }
      Rng load_rng(1);
      Result<std::unique_ptr<models::Forecaster>> tuned =
          models::LoadForecasterSnapshot(latest.value(), &load_rng);
      if (!tuned.ok()) {
        std::lock_guard<std::mutex> guard(error_mu);
        if (!failed.exchange(true)) first_error = tuned.status().ToString();
        return;
      }
      result.windowed_mse[static_cast<size_t>(i)] =
          TailMse(tuned.value().get(), i, scale);
    }
  });
  if (failed.load()) return Status::Internal(first_error);
  for (const std::vector<double>& per_individual : latencies) {
    result.update_latencies_ms.insert(result.update_latencies_ms.end(),
                                      per_individual.begin(),
                                      per_individual.end());
  }
  return result;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t index = static_cast<size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(index, values.size() - 1)];
}

struct SwapResult {
  double latency_ms = 0;
  uint64_t requests_during_swap = 0;
  uint64_t old_replies = 0;
  uint64_t new_replies = 0;
  uint64_t mixed_replies = 0;
};

// A live server under pipelined traffic while Publish retargets the
// tenant: how long the swap takes and what traffic saw meanwhile.
Result<SwapResult> RunSwapSection(const std::string& root,
                                  const OnlineScale& scale) {
  const std::string dir = StrCat(root, "/swap");
  OnlineScale one = scale;
  one.individuals = 1;
  EMAF_RETURN_IF_ERROR(BuildSnapshotDir(dir, one));
  // Ground truth for both versions.
  Rng window_rng(scale.seed);
  const Tensor window =
      Tensor::Uniform(Shape{1, kSteps, kVars}, -1, 1, &window_rng);
  Rng old_rng(scale.seed);
  models::ModelConfig config = BenchConfig();
  std::unique_ptr<models::Forecaster> old_model =
      models::CreateForecasterOrDie(config, &old_rng);
  const std::vector<double> old_bytes =
      core::Predict(old_model.get(), window).ToVector();
  Rng new_rng(scale.seed + 1000);
  std::unique_ptr<models::Forecaster> new_model =
      models::CreateForecasterOrDie(config, &new_rng);
  EMAF_RETURN_IF_ERROR(models::SaveForecasterSnapshot(
      new_model.get(), config, StrCat(dir, "/i0.v1.snapshot")));
  const std::vector<double> new_bytes =
      core::Predict(new_model.get(), window).ToVector();

  Result<serve::Server> started = serve::Server::Start(dir);
  if (!started.ok()) return started.status();
  serve::Server server = std::move(started).value();

  SwapResult swap;
  std::atomic<bool> stop{false};
  std::atomic<bool> swapping{false};
  std::atomic<uint64_t> during{0}, old_count{0}, new_count{0}, mixed{0};
  std::atomic<int64_t> warmup_replies{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&] {
      Result<serve::Client> connected = serve::Client::Connect(server.port());
      if (!connected.ok()) {
        mixed.fetch_add(1);
        return;
      }
      serve::Client client = std::move(connected).value();
      while (!stop.load(std::memory_order_acquire)) {
        std::set<uint64_t> pending;
        for (int i = 0; i < 4; ++i) {
          Result<uint64_t> id = client.SendForecastRequest("i0", window);
          if (!id.ok()) return;
          pending.insert(id.value());
        }
        while (!pending.empty()) {
          Result<serve::Frame> reply = client.ReadFrame();
          if (!reply.ok()) return;
          if (pending.erase(reply.value().request_id) != 1) {
            mixed.fetch_add(1);
            return;
          }
          Result<Tensor> forecast =
              serve::DecodeTensorPayload(reply.value().payload);
          if (!forecast.ok()) {
            mixed.fetch_add(1);
            return;
          }
          const std::vector<double> bytes = forecast.value().ToVector();
          if (bytes == old_bytes) {
            old_count.fetch_add(1);
          } else if (bytes == new_bytes) {
            new_count.fetch_add(1);
          } else {
            mixed.fetch_add(1);
          }
          if (swapping.load(std::memory_order_acquire)) during.fetch_add(1);
          warmup_replies.fetch_add(1);
        }
      }
    });
  }
  // Let traffic flow, then swap mid-stream.
  const auto warmup_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (warmup_replies.load() < 16 &&
         std::chrono::steady_clock::now() < warmup_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  swapping.store(true, std::memory_order_release);
  const auto swap_start = std::chrono::steady_clock::now();
  Status published = server.store().Publish("i0", dir + "/i0.v1.snapshot");
  swap.latency_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - swap_start)
                        .count();
  swapping.store(false, std::memory_order_release);
  // Keep traffic flowing until post-swap replies landed, then quiesce.
  const int64_t at_swap = warmup_replies.load();
  const auto settle_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (warmup_replies.load() < at_swap + 16 &&
         std::chrono::steady_clock::now() < settle_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& client : clients) client.join();
  server.Stop();
  if (!published.ok()) return published;
  swap.requests_during_swap = during.load();
  swap.old_replies = old_count.load();
  swap.new_replies = new_count.load();
  swap.mixed_replies = mixed.load();
  return swap;
}

std::string ToJson(const OnlineScale& scale, const RunResult& run,
                   const SwapResult& swap, bool deterministic) {
  std::ostringstream out;
  out << "{\"bench\": \"online\", \"individuals\": " << scale.individuals
      << ", \"rows\": " << scale.rows
      << ", \"update_every\": " << scale.update_every
      << ", \"epochs\": " << scale.epochs << ", \"seed\": " << scale.seed
      << ", \"thread_counts\": [1, 2, 8], \"deterministic_across_threads\": "
      << (deterministic ? "true" : "false")
      << ", \"smoke\": " << (scale.smoke ? "true" : "false")
      << ", \"updates\": {\"count\": " << run.update_latencies_ms.size()
      << ", \"p50_ms\": " << Percentile(run.update_latencies_ms, 0.5)
      << ", \"p99_ms\": " << Percentile(run.update_latencies_ms, 0.99)
      << "}, \"swap\": {\"latency_ms\": " << swap.latency_ms
      << ", \"requests_during_swap\": " << swap.requests_during_swap
      << ", \"old_replies\": " << swap.old_replies
      << ", \"new_replies\": " << swap.new_replies
      << ", \"mixed_replies\": " << swap.mixed_replies
      << "}, \"mse_rows\": [";
  for (int64_t i = 0; i < scale.individuals; ++i) {
    if (i > 0) out << ", ";
    out << "{\"id\": \"" << IndividualId(i) << "\", \"static_mse\": "
        << FormatExact(run.static_mse[static_cast<size_t>(i)])
        << ", \"windowed_mse\": "
        << FormatExact(run.windowed_mse[static_cast<size_t>(i)]) << "}";
  }
  out << "]}";
  return out.str();
}

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
       {"\"bench\"", "\"individuals\"", "\"rows\"", "\"update_every\"",
        "\"epochs\"", "\"thread_counts\"",
        "\"deterministic_across_threads\"", "\"updates\"", "\"count\"",
        "\"p50_ms\"", "\"p99_ms\"", "\"swap\"", "\"latency_ms\"",
        "\"requests_during_swap\"", "\"old_replies\"", "\"new_replies\"",
        "\"mixed_replies\"", "\"mse_rows\"", "\"static_mse\"",
        "\"windowed_mse\""}) {
    if (json.find(key) == std::string::npos) {
      std::cerr << "[smoke] BENCH_online.json is missing " << key << "\n";
      ok = false;
    }
  }
  return ok;
}

int Run(bool smoke) {
  const OnlineScale scale = ReadOnlineScale(smoke);
  const std::string root =
      StrCat(fs::temp_directory_path().string(), "/emaf_bench_online");
  std::cout << "=== online bench ===\n"
            << scale.individuals << " individuals x " << scale.rows
            << " rows, update every " << scale.update_every << " rows, "
            << scale.epochs << " fine-tune epochs"
            << (smoke ? " [smoke]" : "") << "\n";

  // The same schedule at 1/2/8 pool threads; MSEs must match bitwise.
  std::vector<RunResult> runs;
  for (int64_t threads : {int64_t{1}, int64_t{2}, int64_t{8}}) {
    Result<RunResult> run = RunOnce(root, scale, threads);
    if (!run.ok()) {
      std::cerr << "run at " << threads
                << " threads failed: " << run.status().ToString() << "\n";
      return 1;
    }
    runs.push_back(std::move(run).value());
    std::cout << "threads=" << threads << ": "
              << runs.back().update_latencies_ms.size() << " updates, p50="
              << Percentile(runs.back().update_latencies_ms, 0.5)
              << "ms p99="
              << Percentile(runs.back().update_latencies_ms, 0.99) << "ms\n";
  }
  bool deterministic = true;
  for (size_t r = 1; r < runs.size(); ++r) {
    if (runs[r].windowed_mse != runs[0].windowed_mse ||
        runs[r].static_mse != runs[0].static_mse) {
      deterministic = false;
    }
  }
  for (int64_t i = 0; i < scale.individuals; ++i) {
    std::cout << IndividualId(i) << ": static_mse="
              << runs[0].static_mse[static_cast<size_t>(i)]
              << " windowed_mse="
              << runs[0].windowed_mse[static_cast<size_t>(i)] << "\n";
  }
  std::cout << "deterministic_across_threads="
            << (deterministic ? "true" : "false") << "\n";

  Result<SwapResult> swap = RunSwapSection(root, scale);
  if (!swap.ok()) {
    std::cerr << "swap section failed: " << swap.status().ToString() << "\n";
    return 1;
  }
  std::cout << "swap: latency=" << swap.value().latency_ms
            << "ms requests_during_swap="
            << swap.value().requests_during_swap
            << " old=" << swap.value().old_replies
            << " new=" << swap.value().new_replies
            << " mixed=" << swap.value().mixed_replies << "\n";

  fs::remove_all(root);
  const std::string json =
      ToJson(scale, runs[0], swap.value(), deterministic);
  const Result<std::string> path = WriteBenchJson("online", json);
  if (!path.ok()) {
    std::cerr << path.status().message() << "\n";
    return 1;
  }

  if (smoke) {
    if (path.value().empty() || !ValidateSchema(path.value())) return 1;
    if (!deterministic) {
      std::cerr << "[smoke] MSE rows differ across thread counts\n";
      return 1;
    }
    if (swap.value().mixed_replies != 0) {
      std::cerr << "[smoke] a reply was bitwise neither old nor new\n";
      return 1;
    }
    if (runs[0].update_latencies_ms.empty()) {
      std::cerr << "[smoke] no online update ever ran\n";
      return 1;
    }
    if (swap.value().new_replies == 0) {
      std::cerr << "[smoke] no post-swap traffic was served\n";
      return 1;
    }
    std::cout << "[smoke] BENCH_online.json schema OK\n";
  }
  return 0;
}

}  // namespace
}  // namespace emaf::bench

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") smoke = true;
  }
  return emaf::bench::Run(smoke);
}
