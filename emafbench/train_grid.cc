// train_grid: a reduced Table II grid through ExperimentRunner::RunCell —
// LSTM plus A3TGCN/ASTGCN/MTGNN x EUC/DTW/kNN/CORR at GDT 0.2, input
// length 5 — on a generated V = 26 cohort with one individual per pool
// thread. A run is one warm-up pass (first-touch allocation; checked but
// not timed) and then a fixed number of timed passes, one per 3 s of
// --seconds, so every run times the same work. Each pass uses a fresh
// runner, so MTGNN cells train instead of reusing the runner's
// learned-graph cache.
//
// Correctness: a cell fails on any non-OK outcome or a non-finite MSE, and
// every pass must reproduce the first pass's per-individual MSEs bit for
// bit (RunCell is deterministic at any thread count).
//
// Unit of work: one fit (individual x cell). throughput_per_s is correct
// fits per second; latency_* is the wall time of one RunCell.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/experiment.h"
#include "data/generator.h"
#include "layers.h"
#include "workloads.h"

namespace emafbench {
namespace {

using emaf::StrCat;
using emaf::core::CellSpec;

constexpr int64_t kPoolThreads = 4;
constexpr int64_t kInputLength = 5;
// Set-up generates the cohort, a few milliseconds of work. One generation
// timed alone spread by 0.35 of its median over ten seeds, so set-up is
// timed in batches of kSetupBatch generations and setup_s is the median
// batch time per generation.
constexpr int kSetups = 15;
constexpr int kSetupBatch = 25;

emaf::core::ExperimentConfig GridConfig(const Options& options) {
  emaf::core::ExperimentConfig config;
  config.generator.num_individuals = 4;
  config.generator.days = options.smoke ? 4 : 5;
  // Every beep answered, so each individual has exactly days x 8 rows and
  // the work per cell does not depend on the seed.
  config.generator.compliance_mean = 1.0;
  config.generator.compliance_spread = 0.0;
  config.generator.seed = kDataSeed;
  config.train.epochs = 1;
  config.random_graph_repeats = 1;
  config.seed = kDataSeed;
  return config;
}

// The grid in the order the seed draws.
std::vector<CellSpec> Grid(uint64_t seed) {
  std::vector<CellSpec> grid;
  CellSpec lstm;
  lstm.model = emaf::core::ModelKind::kLstm;
  lstm.input_length = kInputLength;
  grid.push_back(lstm);
  for (emaf::core::ModelKind model :
       {emaf::core::ModelKind::kA3tgcn, emaf::core::ModelKind::kAstgcn,
        emaf::core::ModelKind::kMtgnn}) {
    for (emaf::graph::GraphMetric metric :
         {emaf::graph::GraphMetric::kEuclidean, emaf::graph::GraphMetric::kDtw,
          emaf::graph::GraphMetric::kKnn,
          emaf::graph::GraphMetric::kCorrelation}) {
      CellSpec spec;
      spec.model = model;
      spec.metric = metric;
      spec.gdt = 0.2;
      spec.input_length = kInputLength;
      grid.push_back(spec);
    }
  }
  emaf::Rng rng(seed);
  rng.Shuffle(&grid);
  return grid;
}

// Cell wall times of some passes, by model family too.
struct PassTimes {
  std::vector<double> cell_ms;
  std::map<std::string, std::vector<double>> by_model;
  std::vector<double> pass_s;
  double elapsed_s = 0;
};

class GridPasses {
 public:
  GridPasses(const emaf::data::Cohort& cohort,
             const emaf::core::ExperimentConfig& config, uint64_t seed,
             Result* result)
      : cohort_(cohort), config_(config), result_(result), grid_(Grid(seed)) {}

  // One pass over the grid on a fresh runner; each cell under a span.
  void Run(Tally* tally, PassTimes* times, SpanLog* spans) {
    const Clock::time_point pass_start = Clock::now();
    emaf::core::ExperimentRunner runner(cohort_, config_);
    for (size_t slot = 0; slot < grid_.size(); ++slot) {
      RunCell(runner, slot, tally, times, spans);
    }
    times->pass_s.push_back(MsSince(pass_start) / 1000);
    times->elapsed_s += times->pass_s.back();
  }

  // Two passes in lockstep on fresh runners, one untraced and one traced
  // (benchmark spans and the library's Chrome trace): each cell runs on
  // both, the untraced side first on even cells and second on odd ones, so
  // a drift of the machine cancels. Each traced cell restarts the Chrome
  // trace, which keeps the last one and everything after it.
  void RunInterleaved(const Options& options, Tally* tally, PassTimes* plain,
                      PassTimes* traced, SpanLog* spans) {
    emaf::core::ExperimentRunner plain_runner(cohort_, config_);
    emaf::core::ExperimentRunner traced_runner(cohort_, config_);
    for (size_t slot = 0; slot < grid_.size(); ++slot) {
      for (int side = 0; side < 2; ++side) {
        if ((side == 0) == (slot % 2 == 0)) {
          emaf::obs::Trace::Disable();
          RunCell(plain_runner, slot, tally, plain, nullptr);
        } else {
          StartChromeTrace(options);
          RunCell(traced_runner, slot, tally, traced, spans);
        }
      }
    }
    // Keep the trace on for what follows when the untraced side ran last.
    if (!emaf::obs::Trace::Enabled()) StartChromeTrace(options);
    for (PassTimes* times : {plain, traced}) {
      double sum = 0;
      for (double ms : times->cell_ms) sum += ms;
      times->pass_s.push_back(sum / 1000);
      times->elapsed_s += sum / 1000;
    }
  }

 private:
  void RunCell(emaf::core::ExperimentRunner& runner, size_t slot,
               Tally* tally, PassTimes* times, SpanLog* spans) {
    const CellSpec& spec = grid_[slot];
    const int64_t individuals = cohort_.size();
    const Clock::time_point start = Clock::now();
    emaf::Result<emaf::core::CellResult> cell = [&] {
      Span span(spans, "experiment.cell", slot);
      return runner.RunCell(spec);
    }();
    const double ms = MsSince(start);
    times->cell_ms.push_back(ms);
    times->by_model[emaf::core::ModelKindName(spec.model)].push_back(ms);
    tally->attempted += individuals;
    Outcome outcome = OutcomeOf(cell.status());
    if (cell.ok()) outcome = Check(slot, cell.value().per_individual_mse);
    for (int64_t i = 0; i < individuals; ++i) tally->Record(outcome);
  }

  Outcome Check(size_t slot, const std::vector<double>& mse) {
    bool finite = static_cast<int64_t>(mse.size()) == cohort_.size();
    for (double value : mse) finite = finite && std::isfinite(value);
    if (!finite) return Outcome::kWrongBytes;
    auto [it, first] = reference_.emplace(slot, mse);
    if (!first && std::memcmp(it->second.data(), mse.data(),
                              mse.size() * sizeof(double)) != 0) {
      result_->Fail(StrCat("cell ", grid_[slot].Label(),
                           " MSEs differ between passes"));
      return Outcome::kWrongBytes;
    }
    return Outcome::kOk;
  }

  const emaf::data::Cohort& cohort_;
  const emaf::core::ExperimentConfig& config_;
  Result* result_;
  std::vector<CellSpec> grid_;
  std::map<size_t, std::vector<double>> reference_;
};

void DescribeCells(const PassTimes& times, Result* result) {
  result->Detail("cell_ms", Describe(Summarize(times.cell_ms), "ms"));
  for (const auto& [model, ms] : times.by_model) {
    result->Detail(StrCat("cell_ms.", model), Describe(Summarize(ms), "ms"));
  }
}

}  // namespace

void RunTrainGrid(const Options& options, Result* result) {
  emaf::common::ThreadPool::SetGlobalNumThreads(kPoolThreads);
  ReportContext(options, kPoolThreads, result);
  const emaf::core::ExperimentConfig config = GridConfig(options);

  std::vector<double> setup_s;
  emaf::data::Cohort cohort;
  for (int i = 0; i < kSetups; ++i) {
    const Clock::time_point start = Clock::now();
    for (int j = 0; j < kSetupBatch; ++j) {
      cohort = emaf::data::GenerateCohort(config.generator);
    }
    setup_s.push_back(MsSince(start) / 1000 / kSetupBatch);
  }
  result->Set("setup_s", Median(setup_s));
  result->Detail("cohort",
                 StrCat(cohort.size(), " individuals x ",
                        cohort.individuals[0].observations.dim(0),
                        " rows x 26 variables, ", config.train.epochs,
                        " epoch per fit"));
  GridPasses passes(cohort, config, options.seed, result);

  Tally warm_up;
  PassTimes warm_up_times;
  passes.Run(&warm_up, &warm_up_times, nullptr);
  result->AddPhase("warm_up", warm_up);
  result->Detail("warm_up", StrCat("one grid pass in ",
                                   warm_up_times.elapsed_s, " s"));

  if (!options.trace) {
    Tally tally;
    PassTimes times;
    const int64_t total =
        std::max<int64_t>(1, static_cast<int64_t>(options.seconds / 3));
    for (int64_t p = 0; p < total; ++p) passes.Run(&tally, &times, nullptr);
    result->AddPhase("cells", tally);
    tally.Merge(warm_up);
    ReportOutcomes(tally, result);
    const Timing timing = Summarize(times.cell_ms);
    // Per pass, then the median, so one pass slowed by the machine does
    // not move the figure.
    std::vector<double> pass_rates;
    const double fits_per_pass =
        static_cast<double>(tally.ok() - warm_up.ok()) /
        static_cast<double>(total);
    for (double s : times.pass_s) pass_rates.push_back(fits_per_pass / s);
    result->Set("throughput_per_s", Median(pass_rates));
    result->Set("latency_p50_ms", timing.p50);
    result->Set("latency_p90_ms", Percentile(times.cell_ms, 0.9));
    result->Detail("passes", StrCat(total, " timed grid passes, ",
                                    tally.ok() - warm_up.ok(),
                                    " correct fits in ", times.elapsed_s,
                                    " s"));
    DescribeCells(times, result);
    return;
  }

  // Traced run: an untraced and a traced pass in lockstep, then the layer
  // probes.
  Tally tally;
  PassTimes plain;
  PassTimes timed;
  SpanLog spans;
  const uint64_t chunks_caller = CounterValue("threadpool.chunks_caller");
  const uint64_t chunks_stolen = CounterValue("threadpool.chunks_stolen");
  passes.RunInterleaved(options, &tally, &plain, &timed, &spans);
  const uint64_t stolen =
      CounterValue("threadpool.chunks_stolen") - chunks_stolen;
  // Both passes ran, so each counter is halved to one pass.
  result->Set("pool.tasks",
              static_cast<double>(CounterValue("threadpool.chunks_caller") -
                                  chunks_caller + stolen) / 2);
  result->Set("pool.steals", static_cast<double>(stolen) / 2);
  result->AddPhase("cells_interleaved", tally);
  DescribeCells(plain, result);
  result->Set("trace.overhead_pct",
              100 * (timed.elapsed_s / plain.elapsed_s - 1));
  result->Detail("trace_overhead",
                 StrCat("grid cells untraced ", plain.elapsed_s,
                        " s vs traced ", timed.elapsed_s, " s"));

  const emaf::data::Individual& person = cohort.individuals[0];
  const int64_t train_windows =
      emaf::data::MakeSplit(person, kInputLength).train.num_windows();
  ProbeKernels("train", train_windows, 0.6, &spans, result);
  ProbeTraining(person, kInputLength, /*epochs=*/3, kDataSeed, &spans,
                result);
  ProbeGraphBuilds(person, config.dtw_window, 0.6, &spans, result);
  ReportSelfTime(spans, result);
  tally.Merge(warm_up);
  ReportOutcomes(tally, result);
}

}  // namespace emafbench
