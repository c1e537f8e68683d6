// online_update: writes beside reads. A writer thread streams observation
// rows over the wire (Client::Append, kAppend frames) and runs
// OnlinePipeline::UpdateIndividual back to back, round-robin over the
// tenants of one graph family (A3TGCN, V = 26, L = 5), while an open loop
// of forecast reads hits the same tenants. This is the only workload where
// ModelStore::Publish contends with Get.
//
// Unit of work: one update. throughput_per_s is completed updates per
// second; latency_* is the UpdateIndividual wall time. The read latency
// beside the writes is a per-layer figure (online.read_*).
//
// Correctness: every read must equal, bit for bit, core::Predict of one
// of the snapshot versions that tenant has served (checked after the run
// against every published version); appends and updates must succeed.
//
// The traced run does the same untraced, then measures the tracing
// overhead on staged updates alone, then runs reads and writes again
// traced, where the writer calls the pipeline's stages one by one (log
// tail, windowed graph, fine-tune, snapshot publish, store publish) under
// an "update" span.

#include <atomic>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
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
#include "online/observation_log.h"
#include "online/online_trainer.h"
#include "online/pipeline.h"
#include "online/publisher.h"
#include "online/windowed_graph.h"
#include "serve/client.h"
#include "serve/server.h"
#include "workloads.h"

namespace emafbench {
namespace {

namespace fs = std::filesystem;
using emaf::Rng;
using emaf::StrCat;
using emaf::tensor::Tensor;

// One pool thread: the writer fine-tunes on its own thread and the server's
// loop serves the reads. With two, both contended for the one worker and
// the update latency spread more from run to run.
constexpr int64_t kPoolThreads = 1;
constexpr int64_t kInputLength = 5;
constexpr int64_t kWindows = 8;
constexpr int64_t kPrefillRows = 48;
constexpr int64_t kRowsPerUpdate = 8;  // one day of beeps
constexpr double kReadRate = 100;      // forecast reads per second

struct Tenant {
  std::string id;
  emaf::data::Individual person;  // the stream, replayed cyclically
  int64_t next_row = 0;
  std::vector<std::string> versions;  // snapshot paths it has served
};

struct Fixture {
  std::string dir;
  std::vector<Tenant> tenants;
  std::vector<Tensor> windows;
  std::unique_ptr<emaf::serve::Server> server;
  std::optional<emaf::online::SnapshotPublisher> publisher;
  emaf::online::OnlinePipelineOptions pipeline_options;
};

std::vector<double> Row(const Tenant& tenant, int64_t t) {
  const Tensor& data = tenant.person.observations;
  const int64_t v = data.dim(1);
  const double* row = data.data() + (t % data.dim(0)) * v;
  return std::vector<double>(row, row + v);
}

std::unique_ptr<Fixture> SetUp(const Options& options, int index) {
  auto fixture = std::make_unique<Fixture>();
  fixture->dir = StrCat(options.work_dir, "/setup", index);
  const std::string snapshots = fixture->dir + "/snapshots";
  fs::create_directories(snapshots);
  emaf::data::GeneratorConfig gen;
  gen.num_individuals = options.smoke ? 2 : 4;
  gen.days = 14;
  gen.compliance_mean = 1.0;
  gen.compliance_spread = 0.0;
  gen.seed = kDataSeed;
  for (int64_t i = 0; i < gen.num_individuals; ++i) {
    Tenant tenant;
    tenant.id = StrCat("p", i);
    tenant.person = emaf::data::GenerateIndividual(gen, i);
    // Cold-start snapshot: an untrained A3TGCN on the correlation graph of
    // the rows the log starts with.
    const emaf::graph::AdjacencyMatrix adjacency =
        emaf::graph::KeepTopFraction(
            emaf::graph::BuildSimilarityGraph(
                emaf::tensor::Slice(tenant.person.observations, 0, 0,
                                    kPrefillRows),
                {}),
            0.2);
    const emaf::models::ModelConfig config = FamilyConfig(
        "A3TGCN", tenant.person.num_variables(), kInputLength, adjacency);
    Rng rng(kDataSeed + static_cast<uint64_t>(i));
    std::unique_ptr<emaf::models::Forecaster> model =
        emaf::models::CreateForecasterOrDie(config, &rng);
    const std::string path = StrCat(snapshots, "/", tenant.id, ".snapshot");
    ThrowIfError(emaf::models::SaveForecasterSnapshot(model.get(), config,
                                                      path),
                 "save snapshot");
    tenant.versions.push_back(path);
    if (i == 0) {
      for (int64_t w = 0; w < kWindows; ++w) {
        fixture->windows.push_back(
            emaf::tensor::Reshape(
                emaf::tensor::Slice(tenant.person.observations, 0,
                                    kPrefillRows + w,
                                    kPrefillRows + w + kInputLength),
                {1, kInputLength, tenant.person.num_variables()})
                .Clone());
      }
    }
    fixture->tenants.push_back(std::move(tenant));
  }

  emaf::serve::ServerOptions server_options;
  server_options.observation_log_dir = fixture->dir + "/obslog";
  emaf::Result<emaf::serve::Server> started =
      emaf::serve::Server::Start(snapshots, server_options);
  ThrowIfError(started.status(), "server start");
  fixture->server =
      std::make_unique<emaf::serve::Server>(std::move(started).value());
  emaf::Result<emaf::online::SnapshotPublisher> publisher =
      emaf::online::SnapshotPublisher::Open(snapshots);
  ThrowIfError(publisher.status(), "publisher");
  fixture->publisher.emplace(std::move(publisher).value());
  fixture->pipeline_options.graph.window_rows = 48;
  fixture->pipeline_options.graph.keep_fraction = 0.2;
  fixture->pipeline_options.train.epochs = options.smoke ? 1 : 2;

  // The log starts with a prefix of each stream; every tenant serves one
  // checked forecast, so plans are compiled before the run.
  emaf::Result<emaf::serve::Client> client =
      emaf::serve::Client::Connect(fixture->server->port());
  ThrowIfError(client.status(), "connect");
  for (Tenant& tenant : fixture->tenants) {
    for (; tenant.next_row < kPrefillRows; ++tenant.next_row) {
      ThrowIfError(fixture->server->observation_log()
                       ->Append(tenant.id, Row(tenant, tenant.next_row))
                       .status(),
                   "prefill append");
    }
    emaf::Result<Tensor> forecast =
        client.value().Forecast(tenant.id, fixture->windows[0]);
    ThrowIfError(forecast.status(), "warm-up forecast");
  }
  return fixture;
}

void TearDown(std::unique_ptr<Fixture> fixture) {
  fixture->server->Stop();
  fs::remove_all(fixture->dir);
}

// What the writer thread measured.
struct WriterRun {
  Tally appends;
  Tally updates;
  std::vector<double> append_us;
  std::vector<double> update_ms;
  std::vector<double> graph_ms, train_ms, publish_ms, store_publish_us;
  double elapsed_s = 0;
};

// One update through the pipeline's stages, each under its own span.
emaf::Status StagedUpdate(Fixture& fixture, const std::string& id,
                          emaf::online::WindowedGraphBuilder* graphs,
                          emaf::online::OnlineTrainer* trainer, uint64_t span_id,
                          SpanLog* spans, WriterRun* run,
                          std::string* published_path) {
  emaf::serve::ModelStore& store = fixture.server->store();
  emaf::online::ObservationLog& log = *fixture.server->observation_log();
  Span root(spans, "update", span_id);
  emaf::Result<std::string> snapshot = store.snapshot_path(id);
  EMAF_RETURN_IF_ERROR(snapshot.status());
  emaf::Result<Tensor> window = [&] {
    Span span(spans, "online.tail", span_id);
    return log.Tail(id, fixture.pipeline_options.graph.window_rows);
  }();
  EMAF_RETURN_IF_ERROR(window.status());
  Clock::time_point t0 = Clock::now();
  emaf::Result<emaf::graph::AdjacencyMatrix> adjacency = [&] {
    Span span(spans, "online.graph", span_id);
    return graphs->Build(log, id);
  }();
  run->graph_ms.push_back(MsSince(t0));
  EMAF_RETURN_IF_ERROR(adjacency.status());
  t0 = Clock::now();
  emaf::Result<emaf::online::FineTuneResult> tuned = [&] {
    Span span(spans, "online.train", span_id);
    return trainer->FineTune(id, snapshot.value(), window.value(),
                             adjacency.value());
  }();
  run->train_ms.push_back(MsSince(t0));
  EMAF_RETURN_IF_ERROR(tuned.status());
  t0 = Clock::now();
  emaf::Result<emaf::online::PublishedSnapshot> published = [&] {
    Span span(spans, "online.publish", span_id);
    return fixture.publisher->Publish(id, tuned.value().model.get(),
                                      tuned.value().config);
  }();
  run->publish_ms.push_back(MsSince(t0));
  EMAF_RETURN_IF_ERROR(published.status());
  t0 = Clock::now();
  {
    Span span(spans, "store.publish", span_id);
    EMAF_RETURN_IF_ERROR(store.Publish(id, published.value().path,
                                       published.value().version));
  }
  run->store_publish_us.push_back(MsSince(t0) * 1000);
  *published_path = published.value().path;
  return emaf::Status::Ok();
}

// Appends one day of rows for `tenant` over the wire.
void AppendDay(emaf::serve::Client& client, Tenant& tenant, uint64_t span_id,
               SpanLog* spans, WriterRun* run) {
  for (int64_t r = 0; r < kRowsPerUpdate; ++r) {
    ++run->appends.attempted;
    const Clock::time_point t0 = Clock::now();
    emaf::Result<uint64_t> sequence = [&] {
      Span span(spans, "online.append", span_id);
      return client.Append(tenant.id, Row(tenant, tenant.next_row));
    }();
    run->append_us.push_back(MsSince(t0) * 1000);
    run->appends.Record(OutcomeOf(sequence.status()));
    if (sequence.ok()) ++tenant.next_row;
  }
}

// Appends a day of rows for one tenant after another and updates it, until
// `stop`. With `spans` the update runs stage by stage, else through
// OnlinePipeline::UpdateIndividual.
WriterRun RunWriter(Fixture& fixture, const std::atomic<bool>& stop,
                    SpanLog* spans) {
  WriterRun run;
  emaf::Result<emaf::serve::Client> client =
      emaf::serve::Client::Connect(fixture.server->port());
  ThrowIfError(client.status(), "writer connect");
  emaf::online::OnlinePipeline pipeline(
      fixture.server->observation_log(), &*fixture.publisher,
      &fixture.server->store(), fixture.pipeline_options);
  emaf::online::WindowedGraphBuilder graphs(fixture.pipeline_options.graph);
  emaf::online::OnlineTrainer trainer(fixture.pipeline_options.train);
  const Clock::time_point start = Clock::now();
  for (uint64_t k = 0; !stop.load(std::memory_order_acquire); ++k) {
    Tenant& tenant = fixture.tenants[k % fixture.tenants.size()];
    AppendDay(client.value(), tenant, k, spans, &run);
    ++run.updates.attempted;
    std::string path;
    const Clock::time_point t0 = Clock::now();
    emaf::Status status = emaf::Status::Ok();
    if (spans != nullptr) {
      status = StagedUpdate(fixture, tenant.id, &graphs, &trainer, k, spans,
                            &run, &path);
    } else {
      emaf::Result<emaf::online::UpdateOutcome> outcome =
          pipeline.UpdateIndividual(tenant.id);
      status = outcome.status();
      if (outcome.ok()) path = outcome.value().path;
    }
    run.update_ms.push_back(MsSince(t0));
    run.updates.Record(OutcomeOf(status));
    if (status.ok()) tenant.versions.push_back(path);
  }
  run.elapsed_s = MsSince(start) / 1000;
  return run;
}

// Tracing overhead: staged updates without reads, traced (benchmark spans
// and the library's Chrome trace) and untraced in the order T U U T T U U
// T ..., so both sides run the same code on comparable state and a drift of
// the machine cancels. Each traced update restarts the Chrome trace; the
// last update is traced, so the trace stays on for what follows.
Tally MeasureOverhead(Fixture& fixture, double seconds, SpanLog* spans,
                      const Options& options, Result* result) {
  emaf::Result<emaf::serve::Client> client =
      emaf::serve::Client::Connect(fixture.server->port());
  ThrowIfError(client.status(), "writer connect");
  emaf::online::WindowedGraphBuilder graphs(fixture.pipeline_options.graph);
  emaf::online::OnlineTrainer trainer(fixture.pipeline_options.train);
  WriterRun traced, untraced;
  const Clock::time_point start = Clock::now();
  for (uint64_t k = 0; k % 4 != 0 || MsSince(start) < seconds * 1000 || k < 8;
       ++k) {
    const bool trace = k % 4 == 0 || k % 4 == 3;
    if (trace) {
      StartChromeTrace(options);
    } else {
      emaf::obs::Trace::Disable();
    }
    WriterRun& run = trace ? traced : untraced;
    Tenant& tenant = fixture.tenants[k % fixture.tenants.size()];
    AppendDay(client.value(), tenant, k, nullptr, &run);
    ++run.updates.attempted;
    std::string path;
    const Clock::time_point t0 = Clock::now();
    const emaf::Status status =
        StagedUpdate(fixture, tenant.id, &graphs, &trainer, k,
                     trace ? spans : nullptr, &run, &path);
    run.update_ms.push_back(MsSince(t0));
    run.updates.Record(OutcomeOf(status));
    if (status.ok()) tenant.versions.push_back(path);
  }
  const double traced_p50 = Median(traced.update_ms);
  const double untraced_p50 = Median(untraced.update_ms);
  result->Set("trace.overhead_pct", 100 * (traced_p50 / untraced_p50 - 1));
  result->Detail("trace_overhead",
                 StrCat("staged update p50 untraced ", untraced_p50,
                        " ms (n=", untraced.update_ms.size(), ") vs traced ",
                        traced_p50, " ms (n=", traced.update_ms.size(), ")"));
  Tally total;
  for (WriterRun* run : {&traced, &untraced}) {
    const std::string side = run == &traced ? "traced" : "untraced";
    result->AddPhase("overhead_appends_" + side, run->appends);
    result->AddPhase("overhead_updates_" + side, run->updates);
    total.Merge(run->appends);
    total.Merge(run->updates);
  }
  return total;
}

// Reads and writes together for `seconds`; the writer runs while the
// open loop of reads lasts.
struct MixedRun {
  PacedRun reads;
  WriterRun writes;
};

MixedRun RunMixed(Fixture& fixture, const std::vector<WireRequest>& plan,
                  std::vector<std::vector<double>>* replies, SpanLog* spans) {
  replies->assign(plan.size(), {});
  const ReplyCheck record = [replies](const WireRequest&,
                                      const emaf::serve::Frame& reply) {
    // Bytes are checked against every served version after the run.
    if (reply.type == emaf::serve::FrameType::kForecastResponse) {
      emaf::Result<Tensor> forecast =
          emaf::serve::DecodeTensorPayload(reply.payload);
      if (!forecast.ok()) return Outcome::kWrongBytes;
      (*replies)[reply.request_id - 1] = forecast.value().ToVector();
      return Outcome::kOk;
    }
    return CheckForecast(reply, {});
  };
  MixedRun run;
  std::atomic<bool> stop{false};
  std::exception_ptr writer_error;
  std::thread writer([&] {
    try {
      run.writes = RunWriter(fixture, stop, spans);
    } catch (...) {
      writer_error = std::current_exception();
    }
  });
  std::exception_ptr reader_error;
  try {
    run.reads = RunPaced(fixture.server->port(), plan, kReadRate, 1, record,
                         spans);
  } catch (...) {
    reader_error = std::current_exception();
  }
  stop.store(true, std::memory_order_release);
  writer.join();
  if (reader_error) std::rethrow_exception(reader_error);
  if (writer_error) std::rethrow_exception(writer_error);
  return run;
}

// Moves every read whose bytes match no version its tenant served from ok
// to wrong_bytes.
void VerifyReads(const Fixture& fixture, const std::vector<WireRequest>& plan,
                 const std::vector<std::vector<double>>& replies,
                 Tally* reads, Result* result) {
  std::vector<std::vector<std::vector<double>>> expected(
      fixture.tenants.size());  // [tenant][version * kWindows + window]
  for (size_t t = 0; t < fixture.tenants.size(); ++t) {
    for (const std::string& path : fixture.tenants[t].versions) {
      Rng rng(1);
      emaf::Result<std::unique_ptr<emaf::models::Forecaster>> model =
          emaf::models::LoadForecasterSnapshot(path, &rng);
      ThrowIfError(model.status(), "load published snapshot");
      for (const Tensor& window : fixture.windows) {
        expected[t].push_back(
            emaf::core::Predict(model.value().get(), window).ToVector());
      }
    }
  }
  int64_t wrong = 0;
  for (size_t i = 0; i < plan.size(); ++i) {
    if (replies[i].empty()) continue;  // not a forecast reply
    const size_t t = static_cast<size_t>(plan[i].key);
    bool match = false;
    for (size_t e = static_cast<size_t>(plan[i].window_index);
         e < expected[t].size() && !match; e += kWindows) {
      match = expected[t][e] == replies[i];
    }
    if (!match) ++wrong;
  }
  reads->outcomes[static_cast<int>(Outcome::kOk)] -= wrong;
  reads->outcomes[static_cast<int>(Outcome::kWrongBytes)] += wrong;
  if (wrong > 0) {
    result->Fail(StrCat(wrong, " reads matched no served snapshot version"));
  }
}

std::vector<WireRequest> PlanReads(const Fixture& fixture, uint64_t stream,
                                   int64_t count) {
  Rng rng(stream);
  std::vector<WireRequest> plan(static_cast<size_t>(count));
  for (size_t i = 0; i < plan.size(); ++i) {
    WireRequest& request = plan[i];
    request.key = static_cast<int>(i % fixture.tenants.size());
    request.tenant = &fixture.tenants[static_cast<size_t>(request.key)].id;
    request.window_index =
        static_cast<int>(rng.Uniform() * static_cast<double>(kWindows));
    request.window = &fixture.windows[static_cast<size_t>(request.window_index)];
  }
  return plan;
}

// Records the phases of one mixed run; returns their merged tally.
Tally AddPhases(const std::string& suffix, MixedRun& run, Result* result) {
  result->AddPhase("reads" + suffix, run.reads.tally);
  result->AddPhase("appends" + suffix, run.writes.appends);
  result->AddPhase("updates" + suffix, run.writes.updates);
  Tally total = run.reads.tally;
  total.Merge(run.writes.appends);
  total.Merge(run.writes.updates);
  return total;
}

}  // namespace

void RunOnlineUpdate(const Options& options, Result* result) {
  emaf::common::ThreadPool::SetGlobalNumThreads(kPoolThreads);
  ReportContext(options, kPoolThreads, result);
  const int setups = options.smoke ? 1 : 15;
  std::vector<double> setup_s;
  std::unique_ptr<Fixture> fixture;
  for (int i = 0; i < setups; ++i) {
    if (fixture != nullptr) TearDown(std::move(fixture));
    const Clock::time_point start = Clock::now();
    fixture = SetUp(options, i);
    setup_s.push_back(MsSince(start) / 1000);
  }
  result->Set("setup_s", Median(setup_s));
  result->Detail("fixture",
                 StrCat(fixture->tenants.size(), " A3TGCN tenants, ",
                        kRowsPerUpdate, " appended rows per update, ",
                        fixture->pipeline_options.train.epochs,
                        " fine-tune epochs, reads at ", kReadRate, " req/s"));

  const double phase_s = options.seconds * (options.trace ? 0.35 : 0.95);
  const std::vector<WireRequest> plan = PlanReads(
      *fixture, options.seed * 7919 + 1,
      std::max<int64_t>(20, std::llround(kReadRate * phase_s)));
  std::vector<std::vector<double>> replies;
  const emaf::serve::ModelStore::Stats store_before =
      fixture->server->store().stats();
  MixedRun run = RunMixed(*fixture, plan, &replies, nullptr);
  const emaf::serve::ModelStore::Stats store_after =
      fixture->server->store().stats();
  VerifyReads(*fixture, plan, replies, &run.reads.tally, result);
  Tally total = AddPhases("", run, result);
  const Timing update = Summarize(run.writes.update_ms);
  const Timing reads = Summarize(run.reads.latency_ms);
  result->Detail("update_ms", Describe(update, "ms"));
  result->Detail("read_latency", Describe(reads, "ms"));
  result->Detail("loadgen_late", Describe(Summarize(run.reads.late_ms), "ms"));
  result->Detail("append_us",
                 Describe(Summarize(run.writes.append_us), "us"));
  result->Detail("store", StrCat("swaps=", store_after.swaps - store_before.swaps,
                                 " cold_loads=",
                                 store_after.cold_loads - store_before.cold_loads));

  if (!options.trace) {
    result->Set("throughput_per_s",
                static_cast<double>(run.writes.updates.ok()) /
                    run.writes.elapsed_s);
    result->Set("latency_p50_ms", update.p50);
    result->Set("latency_p90_ms", Percentile(run.writes.update_ms, 0.9));
    ReportOutcomes(total, result);
    TearDown(std::move(fixture));
    return;
  }

  result->Set("online.read_p50_ms", reads.p50);
  result->Set("online.read_tail_ms", reads.tail);
  result->Set("loadgen.late_ms_p99", Percentile(run.reads.late_ms, 0.99));
  ReportStoreDelta(store_before, store_after, result);

  SpanLog spans;
  total.Merge(MeasureOverhead(*fixture, options.seconds * 0.2, &spans,
                              options, result));
  std::vector<std::vector<double>> traced_replies;
  MixedRun traced = RunMixed(*fixture, plan, &traced_replies, &spans);
  VerifyReads(*fixture, plan, traced_replies, &traced.reads.tally, result);
  total.Merge(AddPhases("_traced", traced, result));
  result->Set("online.append_us", Median(traced.writes.append_us));
  result->Set("online.graph_ms", Median(traced.writes.graph_ms));
  result->Set("online.train_ms", Median(traced.writes.train_ms));
  result->Set("online.publish_ms", Median(traced.writes.publish_ms));
  result->Set("store.publish_us", Median(traced.writes.store_publish_us));
  ProbeGraphBuilds(fixture->tenants[0].person, 16, 0.4, &spans, result);
  ReportSelfTime(spans, result);
  ReportOutcomes(total, result);
  TearDown(std::move(fixture));
}

}  // namespace emafbench
