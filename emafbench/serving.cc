// serve_families and serve_churn: forecasts over the wire to an in-process
// serve::Server on loopback, in two phases — an open loop at a fixed rate
// (latency from each request's scheduled send time, in detail lines and
// per-layer metrics) and a closed loop with a fixed number of requests
// outstanding (throughput_per_s = correct replies per second, latency_* =
// their latency from the actual send). Every reply is checked bit for bit
// against core::Predict of the same snapshot and window, computed in set-up.
//
//   serve_families — all five families trained briefly at paper shape
//     (V = 26, L = 5), a few tenants each, all resident: kernels, the plan
//     interpreter and the scheduler do the work.
//   serve_churn — 10k tenant ids in a MANIFEST aliasing 32 tiny snapshot
//     files, Zipf tenant mix, a residency budget of half the files: store
//     cold loads, eviction and plan compiles do the work.
//
// The traced run runs the open loop (per-family wire figures), blocks of
// the one-outstanding loop alternately traced and untraced (the overhead),
// the closed loop for the scheduler figures, replays the open-loop
// requests in process through ModelStore::Get, PlanCache compile,
// serve::ExecuteForecast and the protocol codec, and probes the kernels.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/evaluator.h"
#include "data/generator.h"
#include "graph/construction.h"
#include "layers.h"
#include "loadgen.h"
#include "serve/client.h"
#include "serve/forecast_op.h"
#include "serve/model_store.h"
#include "serve/server.h"
#include "tensor/arena.h"
#include "workloads.h"

namespace emafbench {
namespace {

namespace fs = std::filesystem;
using emaf::Rng;
using emaf::StrCat;
using emaf::tensor::Shape;
using emaf::tensor::Tensor;

constexpr int64_t kWindows = 8;

// A served snapshot directory, the server over it, and the bytes every
// reply must carry.
struct Fixture {
  std::string dir;
  std::vector<std::string> tenants;
  std::vector<int> tenant_key;         // snapshot file serving each tenant
  std::vector<std::string> key_paths;  // snapshot file per key
  std::vector<int> key_group;          // family index per key
  std::vector<Tensor> windows;
  std::vector<std::vector<std::vector<double>>> expected;  // [key][window]
  std::unique_ptr<emaf::serve::Server> server;
};

struct ServeWorkload {
  double rate = 0;              // open loop, requests per second
  // Share of each untraced round for the open loop; the closed loop gets
  // the rest.
  double paced_share = 0;
  int64_t outstanding = 0;      // closed loop
  int64_t pool_threads = 0;
  int64_t plan_block = 1;       // open-loop plans are whole blocks
  int setups = 0;
  emaf::serve::ServerOptions server;
  std::function<void(const Options&, Fixture*)> build;
  std::function<std::vector<WireRequest>(const Fixture&, uint64_t stream,
                                         int64_t count)>
      plan;
};

emaf::Status WriteManifest(const Fixture& fixture) {
  std::ofstream manifest(
      StrCat(fixture.dir, "/", emaf::serve::kManifestFilename));
  for (size_t t = 0; t < fixture.tenants.size(); ++t) {
    manifest << fixture.tenants[t] << "\t"
             << fixture.key_paths[static_cast<size_t>(fixture.tenant_key[t])]
             << "\n";
  }
  return manifest.good() ? emaf::Status::Ok()
                         : emaf::Status::Internal("cannot write MANIFEST");
}

// --- serve_families set-up -------------------------------------------------

void BuildFamilies(const Options& options, Fixture* fixture) {
  const int64_t tenants_per_family = options.smoke ? 1 : 2;
  emaf::data::GeneratorConfig gen;
  gen.num_individuals = static_cast<int64_t>(Families().size());
  gen.days = options.smoke ? 4 : 7;
  gen.compliance_mean = 1.0;
  gen.compliance_spread = 0.0;
  gen.seed = kDataSeed;
  for (size_t f = 0; f < Families().size(); ++f) {
    const std::string& family = Families()[f];
    const emaf::data::Individual person =
        emaf::data::GenerateIndividual(gen, static_cast<int64_t>(f));
    const emaf::data::IndividualSplit split = emaf::data::MakeSplit(person, 5);
    const emaf::graph::AdjacencyMatrix adjacency =
        emaf::graph::KeepTopFraction(
            emaf::graph::BuildSimilarityGraph(person.observations, {}), 0.2);
    const emaf::models::ModelConfig config =
        FamilyConfig(family, person.num_variables(), 5, adjacency);
    std::unique_ptr<emaf::models::Forecaster> model = TrainFamily(
        config, split.train, options.smoke ? 1 : 2, kDataSeed + f);
    const std::string rel = StrCat(Lower(family), ".snapshot");
    ThrowIfError(emaf::models::SaveForecasterSnapshot(
                     model.get(), config, StrCat(fixture->dir, "/", rel)),
                 "save snapshot");
    fixture->key_paths.push_back(rel);
    fixture->key_group.push_back(static_cast<int>(f));
    for (int64_t t = 0; t < tenants_per_family; ++t) {
      fixture->tenants.push_back(StrCat(Lower(family), "-", t));
      fixture->tenant_key.push_back(static_cast<int>(f));
    }
    if (f == 0) {
      // Serving windows: the first test windows of the first individual.
      for (int64_t w = 0; w < kWindows; ++w) {
        fixture->windows.push_back(
            emaf::tensor::Slice(split.test.inputs, 0, w, w + 1).Clone());
      }
    }
  }
  ThrowIfError(WriteManifest(*fixture), "manifest");
}

// Balanced family mix: every block of five requests holds each family
// once, in seeded order; tenant and window are drawn uniformly.
std::vector<WireRequest> PlanFamilies(const Fixture& fixture, uint64_t stream,
                                      int64_t count) {
  Rng rng(stream);
  const int families = static_cast<int>(Families().size());
  std::vector<std::vector<int>> tenants_of(static_cast<size_t>(families));
  for (size_t t = 0; t < fixture.tenants.size(); ++t) {
    tenants_of[static_cast<size_t>(fixture.tenant_key[t])].push_back(
        static_cast<int>(t));
  }
  std::vector<WireRequest> plan;
  std::vector<int> block(static_cast<size_t>(families));
  while (static_cast<int64_t>(plan.size()) < count) {
    for (int f = 0; f < families; ++f) block[static_cast<size_t>(f)] = f;
    rng.Shuffle(&block);
    for (int f : block) {
      const std::vector<int>& choices = tenants_of[static_cast<size_t>(f)];
      const int tenant = choices[static_cast<size_t>(
          rng.Uniform() * static_cast<double>(choices.size()))];
      WireRequest request;
      request.tenant = &fixture.tenants[static_cast<size_t>(tenant)];
      request.key = f;
      request.group = f;
      request.window_index =
          static_cast<int>(rng.Uniform() * static_cast<double>(kWindows));
      request.window =
          &fixture.windows[static_cast<size_t>(request.window_index)];
      plan.push_back(request);
    }
  }
  plan.resize(static_cast<size_t>(count));
  return plan;
}

// --- serve_churn set-up ----------------------------------------------------

struct ChurnShape {
  int64_t tenants;
  int64_t files;
};

ChurnShape ChurnShapeFor(const Options& options) {
  return options.smoke ? ChurnShape{1000, 8} : ChurnShape{10000, 32};
}

void BuildChurn(const Options& options, Fixture* fixture) {
  const ChurnShape shape = ChurnShapeFor(options);
  constexpr int64_t kShards = 16;
  for (int64_t u = 0; u < shape.files; ++u) {
    const std::string rel =
        StrCat("shards/", u % kShards < 10 ? "0" : "", u % kShards, "/uniq_",
               u, ".snapshot");
    fs::create_directories(fs::path(fixture->dir + "/" + rel).parent_path());
    emaf::models::ModelConfig config;
    config.family = "LSTM";
    config.num_variables = 3;
    config.input_length = 2;
    config.lstm.hidden_units = 4;
    Rng rng(kDataSeed * 1000 + static_cast<uint64_t>(u));
    std::unique_ptr<emaf::models::Forecaster> model =
        emaf::models::CreateForecasterOrDie(config, &rng);
    ThrowIfError(emaf::models::SaveForecasterSnapshot(
                     model.get(), config, StrCat(fixture->dir, "/", rel)),
                 "save snapshot");
    fixture->key_paths.push_back(rel);
    fixture->key_group.push_back(0);  // LSTM
  }
  fixture->tenants.reserve(static_cast<size_t>(shape.tenants));
  for (int64_t t = 0; t < shape.tenants; ++t) {
    fixture->tenants.push_back(StrCat("tenant-", t));
    fixture->tenant_key.push_back(static_cast<int>(t % shape.files));
  }
  ThrowIfError(WriteManifest(*fixture), "manifest");
  Rng window_rng(kDataSeed);
  for (int64_t w = 0; w < kWindows; ++w) {
    fixture->windows.push_back(
        Tensor::Uniform(Shape{1, 2, 3}, -1, 1, &window_rng));
  }
}

// Tenant popularity ~ 1 / rank^1.1, rank = tenant index. The draws are
// stratified in blocks of kChurnBlock: request i of block b takes the Zipf
// quantile (i + offset_b) / kChurnBlock, where offset_b is the base-2
// radical inverse of b + 1, in one fixed order per block; the seed draws
// only the windows. The order sets which requests hit the residency
// budget, and with seeded orders seed 1 ran 30 % below the other seeds'
// throughput in two runs of five. Any prefix a closed loop gets through
// therefore sends the same tenants in the same order whatever the seed.
constexpr int64_t kChurnBlock = 32;

double RadicalInverse(uint64_t b) {
  double inverse = 0;
  for (double digit = 0.5; b != 0; b >>= 1, digit /= 2) {
    if (b & 1) inverse += digit;
  }
  return inverse;
}

std::vector<WireRequest> PlanChurn(const Fixture& fixture, uint64_t stream,
                                   int64_t count) {
  const size_t n = fixture.tenants.size();
  std::vector<double> cdf(n);
  double total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), 1.1);
    cdf[i] = total;
  }
  Rng rng(stream);
  std::vector<WireRequest> plan;
  std::vector<WireRequest> block(static_cast<size_t>(kChurnBlock));
  for (uint64_t b = 0; static_cast<int64_t>(plan.size()) < count; ++b) {
    const double offset = RadicalInverse(b + 1);
    for (size_t i = 0; i < block.size(); ++i) {
      WireRequest& request = block[i];
      const double u = (static_cast<double>(i) + offset) /
                       static_cast<double>(kChurnBlock) * total;
      const size_t tenant = std::min<size_t>(
          n - 1,
          static_cast<size_t>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                              cdf.begin()));
      request.tenant = &fixture.tenants[tenant];
      request.key = fixture.tenant_key[tenant];
      request.group = 0;
      request.window_index =
          static_cast<int>(rng.Uniform() * static_cast<double>(kWindows));
      request.window =
          &fixture.windows[static_cast<size_t>(request.window_index)];
    }
    Rng order(kDataSeed + b);
    order.Shuffle(&block);
    plan.insert(plan.end(), block.begin(), block.end());
  }
  plan.resize(static_cast<size_t>(count));
  return plan;
}

// --- shared -------------------------------------------------------------

void ComputeExpected(Fixture* fixture) {
  for (const std::string& rel : fixture->key_paths) {
    Rng rng(1);
    emaf::Result<std::unique_ptr<emaf::models::Forecaster>> model =
        emaf::models::LoadForecasterSnapshot(StrCat(fixture->dir, "/", rel),
                                             &rng);
    ThrowIfError(model.status(), "load snapshot");
    std::vector<std::vector<double>> outputs;
    for (const Tensor& window : fixture->windows) {
      outputs.push_back(
          emaf::core::Predict(model.value().get(), window).ToVector());
    }
    fixture->expected.push_back(std::move(outputs));
  }
}

std::unique_ptr<Fixture> SetUp(const ServeWorkload& workload,
                               const Options& options, int index) {
  auto fixture = std::make_unique<Fixture>();
  fixture->dir = StrCat(options.work_dir, "/setup", index);
  fs::create_directories(fixture->dir);
  workload.build(options, fixture.get());
  ComputeExpected(fixture.get());
  emaf::Result<emaf::serve::Server> started =
      emaf::serve::Server::Start(fixture->dir, workload.server);
  ThrowIfError(started.status(), "server start");
  fixture->server =
      std::make_unique<emaf::serve::Server>(std::move(started).value());
  emaf::Result<emaf::serve::Client> client =
      emaf::serve::Client::Connect(fixture->server->port());
  ThrowIfError(client.status(), "connect");
  emaf::Result<emaf::serve::HealthInfo> health = client.value().Health();
  ThrowIfError(health.status(), "health");
  if (health.value().state != emaf::serve::ServeState::kServing) {
    throw std::runtime_error("server not SERVING after start");
  }
  // Warm-up, so first-touch work and plan compiles stay out of the
  // measurement: every tenant when all stay resident, else the first
  // tenant of each snapshot file.
  const bool all_resident = workload.server.store.max_resident_models == 0;
  std::vector<bool> warmed(fixture->key_paths.size(), false);
  for (size_t t = 0; t < fixture->tenants.size(); ++t) {
    const size_t key = static_cast<size_t>(fixture->tenant_key[t]);
    if (warmed[key] && !all_resident) continue;
    warmed[key] = true;
    emaf::Result<Tensor> forecast =
        client.value().Forecast(fixture->tenants[t], fixture->windows[0]);
    ThrowIfError(forecast.status(), "warm-up forecast");
    if (forecast.value().ToVector() != fixture->expected[key][0]) {
      throw std::runtime_error("warm-up forecast differs from core::Predict");
    }
    if (!all_resident && t + 1 >= fixture->key_paths.size()) break;
  }
  return fixture;
}

void TearDown(std::unique_ptr<Fixture> fixture) {
  fixture->server->Stop();
  fs::remove_all(fixture->dir);
}

ReplyCheck CheckAgainst(const Fixture& fixture) {
  return [&fixture](const WireRequest& request,
                    const emaf::serve::Frame& reply) {
    return CheckForecast(
        reply, fixture.expected[static_cast<size_t>(request.key)]
                               [static_cast<size_t>(request.window_index)]);
  };
}

std::string StoreSummary(emaf::serve::ModelStore& store) {
  const emaf::serve::ModelStore::Stats s = store.stats();
  return StrCat("lookups=", s.lookups, " warm_hits=", s.warm_hits,
                " cold_loads=", s.cold_loads, " evictions=", s.evictions,
                " exhausted=", s.exhausted, " resident_models=",
                s.resident_models, " resident_bytes=", s.resident_bytes);
}

// In-process replay of `requests` against the running server's store (the
// wire is idle by now): decode the request frame, Get, compile (on a
// cache miss), ExecuteForecast on the plan path, encode the reply — each
// a span under the request's "forecast" root, keyed by its wire id.
void Replay(Fixture& fixture, const std::vector<WireRequest>& requests,
            double wire_p50_ms, SpanLog* spans, Result* result) {
  emaf::serve::ModelStore& store = fixture.server->store();
  emaf::tensor::InferenceArena arena;
  Tally tally;
  tally.attempted = static_cast<int64_t>(requests.size());
  std::vector<double> decode_us, encode_us, warm_us, cold_us, compile_ms,
      in_process_us;
  std::vector<std::vector<double>> execute_us(Families().size());
  uint64_t allocs = 0;
  uint64_t instructions = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    const WireRequest& request = requests[i];
    const uint64_t id = i + 1;
    emaf::serve::Frame frame;
    frame.type = emaf::serve::FrameType::kForecastRequest;
    frame.request_id = id;
    frame.tenant_id = *request.tenant;
    frame.payload = emaf::serve::EncodeTensorPayload(*request.window);
    const std::string bytes = emaf::serve::EncodeFrame(frame);

    Span root(spans, "forecast", id);
    Clock::time_point t0 = Clock::now();
    emaf::Result<Tensor> window = [&]() -> emaf::Result<Tensor> {
      Span span(spans, "protocol.decode", id);
      emaf::Result<emaf::serve::Frame> decoded =
          emaf::serve::DecodeFrame(bytes);
      if (!decoded.ok()) return decoded.status();
      return emaf::serve::DecodeTensorPayload(decoded.value().payload);
    }();
    decode_us.push_back(MsSince(t0) * 1000);
    if (!window.ok()) {
      tally.Record(Outcome::kOtherCode);
      continue;
    }

    const uint64_t cold_before = store.stats().cold_loads;
    t0 = Clock::now();
    emaf::Result<emaf::serve::ModelHandle> handle = [&] {
      Span span(spans, "store.get", id);
      return store.Get(*request.tenant);
    }();
    const double get_us = MsSince(t0) * 1000;
    if (!handle.ok()) {
      tally.Record(OutcomeOf(handle.status()));
      continue;
    }
    (store.stats().cold_loads != cold_before ? cold_us : warm_us)
        .push_back(get_us);

    emaf::plan::PlanCache* plans = handle.value().plans();
    t0 = Clock::now();
    {
      Span span(spans, "plan.compile", id);
      if (plans != nullptr &&
          !plans->GetOrCompile(handle.value().get(), window.value()).hit) {
        compile_ms.push_back(MsSince(t0));
      }
    }
    const double compile_us = MsSince(t0) * 1000;

    const uint64_t allocs_before = CounterValue("tensor.storage_allocs");
    const uint64_t instructions_before =
        CounterValue("plan.instructions_total");
    t0 = Clock::now();
    emaf::Result<Tensor> forecast = [&] {
      Span span(spans, "plan.execute", id);
      return emaf::serve::ExecuteForecast(handle.value().get(),
                                          *request.tenant, window.value(),
                                          &arena, plans);
    }();
    const double exec_us = MsSince(t0) * 1000;
    allocs += CounterValue("tensor.storage_allocs") - allocs_before;
    instructions += CounterValue("plan.instructions_total") -
                    instructions_before;
    execute_us[static_cast<size_t>(
                   fixture.key_group[static_cast<size_t>(request.key)])]
        .push_back(exec_us);
    in_process_us.push_back(get_us + compile_us + exec_us);
    if (!forecast.ok()) {
      tally.Record(OutcomeOf(forecast.status()));
      continue;
    }

    t0 = Clock::now();
    {
      Span span(spans, "protocol.encode", id);
      emaf::serve::Frame reply;
      reply.type = emaf::serve::FrameType::kForecastResponse;
      reply.request_id = id;
      reply.payload = emaf::serve::EncodeTensorPayload(forecast.value());
      (void)emaf::serve::EncodeFrame(reply);
    }
    encode_us.push_back(MsSince(t0) * 1000);
    const std::vector<double>& expected =
        fixture.expected[static_cast<size_t>(request.key)]
                        [static_cast<size_t>(request.window_index)];
    tally.Record(forecast.value().ToVector() == expected
                     ? Outcome::kOk
                     : Outcome::kWrongBytes);
  }
  result->AddPhase("replay", tally);
  const double n = static_cast<double>(std::max<size_t>(1, requests.size()));
  result->Set("protocol.decode_us", Median(decode_us));
  result->Set("protocol.encode_us", Median(encode_us));
  result->Set("store.get_warm_us", Median(warm_us));
  result->Set("store.get_cold_us", Median(cold_us));
  result->Set("plan.compile_ms", Median(compile_ms));
  result->Set("tensor.allocs_per_request", static_cast<double>(allocs) / n);
  result->Set("plan.instructions_per_request",
              static_cast<double>(instructions) / n);
  for (size_t f = 0; f < Families().size(); ++f) {
    if (execute_us[f].empty()) continue;
    result->Set(StrCat("plan.execute_us.", Lower(Families()[f])),
                Median(execute_us[f]));
  }
  const double in_process_p50_us = Median(in_process_us);
  result->Set("server.overhead_us", wire_p50_ms * 1000 - in_process_p50_us);
  result->Detail("replay",
                 StrCat(requests.size(), " requests, ", warm_us.size(),
                        " warm / ", cold_us.size(), " cold Gets, ",
                        compile_ms.size(), " plan compiles, in-process p50 ",
                        in_process_p50_us, " us"));
}

// core.predict_us.<family>: module-path forward of each family's snapshot.
void ProbePredict(const Fixture& fixture, SpanLog* spans, Result* result) {
  Span span(spans, "core.predict", 0);
  for (size_t key = 0; key < fixture.key_paths.size(); ++key) {
    Rng rng(1);
    emaf::Result<std::unique_ptr<emaf::models::Forecaster>> model =
        emaf::models::LoadForecasterSnapshot(
            StrCat(fixture.dir, "/", fixture.key_paths[key]), &rng);
    ThrowIfError(model.status(), "load snapshot");
    const double us = MedianUs(
        [&] {
          (void)emaf::core::Predict(model.value().get(), fixture.windows[0]);
        },
        5, 0.1);
    result->Set(StrCat("core.predict_us.",
                       Lower(Families()[static_cast<size_t>(
                           fixture.key_group[key])])),
                us);
  }
}

std::string DescribeClosed(const ClosedRun& closed) {
  return StrCat(closed.tally.ok(), " correct replies in ", closed.elapsed_s,
                " s, ", closed.throughput_per_s, " per s, mean queue depth ",
                closed.mean_queue_depth);
}

// Appends each group's samples of `from` to `into`.
void AppendGroups(const std::vector<std::vector<double>>& from,
                  std::vector<std::vector<double>>* into) {
  for (size_t g = 0; g < from.size(); ++g) {
    (*into)[g].insert((*into)[g].end(), from[g].begin(), from[g].end());
  }
}

void DescribeGroups(const std::string& prefix,
                    const std::vector<std::vector<double>>& group_ms,
                    Result* result) {
  for (size_t g = 0; g < group_ms.size(); ++g) {
    if (group_ms[g].empty()) continue;
    result->Detail(StrCat(prefix, Lower(Families()[g])),
                   Describe(Summarize(group_ms[g]), "ms"));
  }
}

// Requests of an open loop of `seconds`: whole plan blocks, at least 20.
int64_t PacedCount(const ServeWorkload& workload, double seconds) {
  const int64_t blocks = std::llround(workload.rate * seconds /
                                      static_cast<double>(workload.plan_block));
  return std::max<int64_t>(20, std::max<int64_t>(1, blocks) *
                                   workload.plan_block);
}

// The untraced run: five rounds, each an open loop and then the closed
// loop, so the measurement spreads over the run and a slow spell of the
// machine lands in one round. Each end-to-end figure is the median over
// the rounds. throughput_per_s and latency_* both come from the closed
// loop, whose load keeps the machine busy. Latency with the machine mostly
// idle — the open loop, or one request outstanding — swings with the
// wake-up delays of the virtual machine's CPUs: on a 4-vCPU x86 virtual
// machine, one run's MTGNN p50 with one request outstanding (1-thread
// pool) was 2.7 ms and another's 4.7 ms. The open loop is therefore reported in detail lines and
// per-layer metrics.
// `total` holds the outcomes of the phases before.
void MeasureRounds(const ServeWorkload& workload, const Options& options,
                   Fixture& fixture, const ReplyCheck& check, Tally total,
                   Result* result) {
  constexpr int kRounds = 5;
  emaf::serve::Server& server = *fixture.server;
  const int groups = static_cast<int>(Families().size());
  const double round_s = options.seconds / kRounds;
  std::vector<double> p50s, p90s, rates;
  std::vector<std::vector<double>> open_ms(static_cast<size_t>(groups));
  std::vector<std::vector<double>> closed_ms(static_cast<size_t>(groups));
  for (int round = 0; round < kRounds; ++round) {
    const uint64_t stream = options.seed * 7919 + 10 * round;
    const PacedRun paced = RunPaced(
        server.port(),
        workload.plan(fixture, stream + 1,
                      PacedCount(workload, round_s * workload.paced_share)),
        workload.rate, groups, check, nullptr);
    result->AddPhase(StrCat("open_loop.", round), paced.tally);
    total.Merge(paced.tally);
    result->Detail(StrCat("open_loop_latency.", round),
                   Describe(Summarize(paced.latency_ms), "ms"));
    result->Detail(StrCat("loadgen_late.", round),
                   Describe(Summarize(paced.late_ms), "ms"));
    AppendGroups(paced.group_latency_ms, &open_ms);

    const ClosedRun closed = RunClosed(
        server.port(), workload.plan(fixture, stream + 2, 4096),
        workload.outstanding, round_s * (1 - workload.paced_share), groups,
        check, nullptr);
    result->AddPhase(StrCat("closed_loop.", round), closed.tally);
    total.Merge(closed.tally);
    const Timing latency = Summarize(closed.latency_ms);
    rates.push_back(closed.throughput_per_s);
    p50s.push_back(latency.p50);
    p90s.push_back(Percentile(closed.latency_ms, 0.9));
    result->Detail(StrCat("closed_loop.", round), DescribeClosed(closed));
    result->Detail(StrCat("closed_loop_latency.", round),
                   Describe(latency, "ms"));
    AppendGroups(closed.group_latency_ms, &closed_ms);
  }
  DescribeGroups("open_loop_latency.", open_ms, result);
  DescribeGroups("closed_loop_latency.", closed_ms, result);
  result->Detail("store", StoreSummary(server.store()));
  result->Set("throughput_per_s", Median(rates));
  result->Set("latency_p50_ms", Median(p50s));
  result->Set("latency_p90_ms", Median(p90s));
  ReportOutcomes(total, result);
}

void RunServing(const ServeWorkload& workload, const Options& options,
                Result* result) {
  emaf::common::ThreadPool::SetGlobalNumThreads(workload.pool_threads);
  ReportContext(options, workload.pool_threads, result);

  // Set-up, several times; the last fixture serves the run.
  std::vector<double> setup_s;
  std::unique_ptr<Fixture> fixture;
  for (int i = 0; i < workload.setups; ++i) {
    if (fixture != nullptr) TearDown(std::move(fixture));
    const Clock::time_point start = Clock::now();
    fixture = SetUp(workload, options, i);
    setup_s.push_back(MsSince(start) / 1000);
  }
  result->Set("setup_s", Median(setup_s));
  emaf::serve::Server& server = *fixture->server;
  const ReplyCheck check = CheckAgainst(*fixture);
  const int groups = static_cast<int>(Families().size());
  result->Detail("fixture",
                 StrCat(fixture->tenants.size(), " tenants over ",
                        fixture->key_paths.size(), " snapshot files, budget ",
                        workload.server.store.max_resident_models,
                        " resident models, open loop ", workload.rate,
                        " req/s, closed loop ", workload.outstanding,
                        " outstanding"));

  // Warm-up: the closed loop over a plan, so the first cold load of each
  // tenant the plans touch stays out of the measurement. Without it,
  // serve_churn's throughput rose from round to round (1790 to 2210 req/s).
  const ClosedRun warm_up = RunClosed(
      server.port(), workload.plan(*fixture, options.seed * 7919, 4096),
      workload.outstanding, options.seconds * 0.1, groups, check, nullptr);
  result->AddPhase("warm_up", warm_up.tally);
  result->Detail("warm_up", DescribeClosed(warm_up));

  if (!options.trace) {
    MeasureRounds(workload, options, *fixture, check, warm_up.tally, result);
    TearDown(std::move(fixture));
    return;
  }

  // Traced run: the open loop untraced (the per-layer wire figures), the
  // overhead blocks, the closed loop (scheduler figures), then the
  // in-process replay and probes.
  const double paced_s = options.seconds * 0.25;
  const std::vector<WireRequest> paced_plan = workload.plan(
      *fixture, options.seed * 7919 + 1, PacedCount(workload, paced_s));
  const emaf::serve::ModelStore::Stats store_before = server.store().stats();
  const uint64_t chunks_caller = CounterValue("threadpool.chunks_caller");
  const uint64_t chunks_stolen = CounterValue("threadpool.chunks_stolen");
  const PacedRun paced = RunPaced(server.port(), paced_plan, workload.rate,
                                  groups, check, nullptr);
  result->AddPhase("open_loop", paced.tally);
  Tally total = warm_up.tally;
  total.Merge(paced.tally);
  const Timing latency = Summarize(paced.latency_ms);
  result->Detail("open_loop_latency", Describe(latency, "ms"));
  result->Detail("loadgen_late", Describe(Summarize(paced.late_ms), "ms"));
  for (int g = 0; g < groups; ++g) {
    if (paced.group_latency_ms[static_cast<size_t>(g)].empty()) continue;
    const Timing t = Summarize(paced.group_latency_ms[static_cast<size_t>(g)]);
    result->Detail(StrCat("open_loop_latency.", Lower(Families()[g])),
                   Describe(t, "ms"));
    result->Set(StrCat("forecast_p50_ms.", Lower(Families()[g])), t.p50);
  }
  const uint64_t stolen =
      CounterValue("threadpool.chunks_stolen") - chunks_stolen;
  result->Set("pool.tasks",
              static_cast<double>(CounterValue("threadpool.chunks_caller") -
                                  chunks_caller + stolen));
  result->Set("pool.steals", static_cast<double>(stolen));
  result->Set("loadgen.late_ms_p99", Percentile(paced.late_ms, 0.99));
  ReportStoreDelta(store_before, server.store().stats(), result);

  // Tracing overhead: blocks of the one-outstanding loop on one plan,
  // traced (benchmark spans and the library's Chrome trace) and untraced in
  // the order T U U T T U U T, so a drift of the machine cancels. Each
  // traced block restarts the Chrome trace, which keeps the last block and
  // everything after it.
  SpanLog spans;
  const std::vector<WireRequest> block_plan =
      workload.plan(*fixture, options.seed * 7919 + 2, 4096);
  constexpr int kOverheadBlocks = 8;
  std::vector<double> traced_ms, untraced_ms;
  for (int b = 0; b < kOverheadBlocks; ++b) {
    const bool traced = b % 4 == 0 || b % 4 == 3;
    if (traced) {
      StartChromeTrace(options);
    } else {
      emaf::obs::Trace::Disable();
    }
    const ClosedRun block = RunClosed(
        server.port(), block_plan, 1,
        options.seconds * 0.25 / kOverheadBlocks, groups, check,
        traced ? &spans : nullptr);
    result->AddPhase(StrCat("overhead_block.", b), block.tally);
    total.Merge(block.tally);
    std::vector<double>& into = traced ? traced_ms : untraced_ms;
    into.insert(into.end(), block.latency_ms.begin(), block.latency_ms.end());
  }
  const double traced_p50 = Median(traced_ms);
  const double untraced_p50 = Median(untraced_ms);
  result->Set("trace.overhead_pct", 100 * (traced_p50 / untraced_p50 - 1));
  result->Detail("trace_overhead",
                 StrCat("one-outstanding p50 untraced ", untraced_p50,
                        " ms (n=", untraced_ms.size(), ") vs traced ",
                        traced_p50, " ms (n=", traced_ms.size(), ")"));

  const emaf::serve::RequestScheduler::Stats sched_before =
      server.scheduler_stats();
  const ClosedRun closed = RunClosed(
      server.port(), workload.plan(*fixture, options.seed * 7919 + 3, 4096),
      workload.outstanding, options.seconds * 0.2, groups, check, &spans);
  result->AddPhase("closed_loop", closed.tally);
  total.Merge(closed.tally);
  const emaf::serve::RequestScheduler::Stats sched_after =
      server.scheduler_stats();
  const double batches =
      static_cast<double>(sched_after.batches - sched_before.batches);
  result->Set("scheduler.batches", batches);
  result->Set("scheduler.batch_size_mean",
              batches > 0 ? static_cast<double>(sched_after.executed -
                                                sched_before.executed) /
                                batches
                          : 0);
  // Little's law over the closed loop: mean queue depth / throughput.
  result->Set("scheduler.queue_wait_us",
              closed.throughput_per_s > 0
                  ? 1e6 * closed.mean_queue_depth / closed.throughput_per_s
                  : 0);
  result->Detail("closed_loop", DescribeClosed(closed));
  result->Detail("store", StoreSummary(server.store()));

  Replay(*fixture, paced_plan, latency.p50, &spans, result);
  if (workload.server.store.max_resident_models == 0) {
    // serve_families: the kernels at MTGNN's batch-1 shapes and the
    // module-path forward of every family.
    ProbeKernels("serve", 1, 0.6, &spans, result);
    ProbePredict(*fixture, &spans, result);
  }
  ReportSelfTime(spans, result);
  ReportOutcomes(total, result);
  TearDown(std::move(fixture));
}

}  // namespace

void RunServeFamilies(const Options& options, Result* result) {
  ServeWorkload workload;
  workload.rate = 150;
  workload.paced_share = 0.3;
  workload.outstanding = 32;
  workload.pool_threads = 2;
  workload.plan_block = static_cast<int64_t>(Families().size());
  workload.setups = options.smoke ? 1 : 5;
  workload.build = BuildFamilies;
  workload.plan = PlanFamilies;
  // Unlimited residency: every tenant stays resident after warm-up.
  workload.server.store.max_resident_models = 0;
  RunServing(workload, options, result);
}

void RunServeChurn(const Options& options, Result* result) {
  ServeWorkload workload;
  // A miss costs a cold load plus an eviction scan that walks every known
  // tenant's entry. With 100k tenants that walk covers tens of MB, and its
  // speed followed the host's cache contention: one request outstanding
  // ran at 69 to 92 req/s on eight seeds of ten and at 160 and 172 on the
  // other two. With 10k tenants the walk stays in cache; a miss then takes
  // about 0.6 ms, and one request outstanding leaves the machine idle
  // enough for wake-up delays to dominate, so the closed loop keeps eight.
  // The open loop runs well below capacity.
  workload.rate = 300;
  workload.paced_share = 0.5;
  workload.outstanding = 8;
  workload.pool_threads = 1;
  workload.plan_block = kChurnBlock;
  workload.setups = options.smoke ? 1 : 15;
  workload.build = BuildChurn;
  workload.plan = PlanChurn;
  // Half the files. That is above the number of models the server can pin
  // at once (one per pool thread executing a batch slot), so the known
  // budget-pinning exhaustion cannot occur; any that does is reported.
  workload.server.store.max_resident_models = ChurnShapeFor(options).files / 2;
  RunServing(workload, options, result);
}

}  // namespace emafbench
