// Shared harness for the experiment benchmarks (one binary per paper
// table/figure — see DESIGN.md).
//
// Scale control: every binary honours
//   EMAF_BENCH_INDIVIDUALS  cohort size                  (default 2)
//   EMAF_BENCH_EPOCHS       training epochs per model    (default varies)
//   EMAF_BENCH_DAYS         study length in days         (default 14)
//   EMAF_BENCH_SEED         cohort + training seed       (default 42)
//   EMAF_BENCH_RAND_REPEATS random-graph averaging draws (default 2)
//   EMAF_BENCH_WEIGHT_DECAY Adam weight decay            (default 0)
//   EMAF_BENCH_FULL=1       paper scale: 100 individuals, 28 days,
//                           300 epochs, 5 random repeats
// The defaults reproduce the paper's qualitative shape in minutes on one
// core; EMAF_BENCH_FULL reproduces the full protocol (hours).

#ifndef EMAF_BENCH_BENCH_COMMON_H_
#define EMAF_BENCH_BENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>

#include "common/env.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/experiment.h"
#include "core/report.h"
#include "data/generator.h"

namespace emaf::bench {

struct BenchScale {
  int64_t individuals;
  int64_t epochs;
  int64_t days;
  int64_t random_repeats;
  uint64_t seed;
  double weight_decay;
  bool full;
};

inline BenchScale ReadScale(int64_t default_epochs) {
  BenchScale scale;
  scale.full = GetEnvBool("EMAF_BENCH_FULL", false);
  scale.individuals =
      GetEnvInt64("EMAF_BENCH_INDIVIDUALS", scale.full ? 100 : 2);
  scale.epochs = GetEnvInt64("EMAF_BENCH_EPOCHS",
                             scale.full ? 300 : default_epochs);
  scale.days = GetEnvInt64("EMAF_BENCH_DAYS", scale.full ? 28 : 14);
  scale.random_repeats =
      GetEnvInt64("EMAF_BENCH_RAND_REPEATS", scale.full ? 5 : 2);
  scale.seed = static_cast<uint64_t>(GetEnvInt64("EMAF_BENCH_SEED", 42));
  scale.weight_decay = GetEnvDouble("EMAF_BENCH_WEIGHT_DECAY", 0.0);
  return scale;
}

// Paper-faithful model/training configuration (Section V-D) at the chosen
// cohort scale.
inline core::ExperimentConfig MakeConfig(const BenchScale& scale) {
  core::ExperimentConfig config;
  config.generator.num_individuals = scale.individuals;
  config.generator.days = scale.days;
  config.generator.seed = scale.seed;
  config.train.epochs = scale.epochs;
  config.train.weight_decay = scale.weight_decay;
  config.random_graph_repeats = scale.random_repeats;
  config.seed = scale.seed;
  return config;
}

// Checkpoint/resume plumbing for grid benches (see DESIGN.md, "Fault
// tolerance"). `--journal <path>` (or EMAF_BENCH_JOURNAL) appends every
// completed cell to a crash-tolerant journal; `--resume` reloads it and
// skips recorded cells, reproducing the uninterrupted run byte-for-byte.
// --resume without an explicit path defaults to <bench>.journal in cwd.
struct GridFlags {
  std::string journal_path;
  bool resume = false;
};

inline GridFlags ParseGridFlags(int argc, char** argv,
                                const std::string& bench_name) {
  GridFlags flags;
  flags.journal_path = GetEnvString("EMAF_BENCH_JOURNAL", "");
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--resume") {
      flags.resume = true;
    } else if (arg == "--journal" && i + 1 < argc) {
      flags.journal_path = argv[++i];
    }
  }
  if (flags.resume && flags.journal_path.empty()) {
    flags.journal_path = bench_name + ".journal";
  }
  return flags;
}

inline core::GridOptions ToGridOptions(const GridFlags& flags) {
  core::GridOptions options;
  options.journal_path = flags.journal_path;
  options.resume = flags.resume;
  return options;
}

// Table cell for one grid outcome: mean(std) on success, a structured
// FAILED(CODE) marker on graceful degradation — the bench keeps printing
// the rest of the table instead of aborting.
inline std::string FormatCellOutcome(const core::CellOutcome& outcome) {
  if (outcome.status.ok()) {
    return core::FormatMeanStd(outcome.result.stats);
  }
  return StrCat("FAILED(", StatusCodeName(outcome.status.code()), ")");
}

// Writes `table` as CSV into $EMAF_BENCH_CSV_DIR/<name>.csv when that
// directory variable is set; silent no-op otherwise.
inline void MaybeWriteCsv(const core::TablePrinter& table,
                          const std::string& name) {
  std::string dir = GetEnvString("EMAF_BENCH_CSV_DIR", "");
  if (dir.empty()) return;
  std::string path = dir + "/" + name + ".csv";
  Status status = table.WriteCsv(path);
  if (status.ok()) {
    std::cout << "\n[csv] " << path << "\n";
  } else {
    std::cout << "\n[csv] failed: " << status.ToString() << "\n";
  }
}

inline void PrintScale(const char* title, const BenchScale& scale) {
  std::cout << "=== " << title << " ===\n"
            << "scale: " << scale.individuals << " individuals, "
            << scale.days << " days, " << scale.epochs << " epochs, seed "
            << scale.seed << ", "
            << common::ThreadPool::Global().num_threads() << " thread(s)"
            << (scale.full ? " [FULL]" : " [reduced]") << "\n"
            << "(set EMAF_BENCH_FULL=1 for the paper-scale protocol, "
               "EMAF_NUM_THREADS=N to parallelize)\n\n";
}

// RAII run reporter: measures the bench's wall clock and, on destruction,
// prints one JSON line and writes BENCH_<name>.json next to it. The record
// carries the thread count so BENCH_*.json trajectories stay comparable
// across PRs (a faster wall clock at 4 threads is not a kernel win), and —
// when the build has instrumentation compiled in (EMAF_METRICS=ON, the
// default) — a "metrics" object holding the obs::Registry snapshot of the
// run (counters / gauges / histograms; the registry is reset when the
// reporter is constructed so the snapshot covers exactly this run).
// EMAF_BENCH_JSON_DIR overrides the output directory (default: cwd);
// EMAF_BENCH_JSON_DIR=- disables the file, keeping the stdout line.
// If EMAF_TRACE_FILE is set, the buffered trace spans are flushed here too.
class RunReporter {
 public:
  RunReporter(std::string name, const BenchScale& scale)
      : name_(std::move(name)),
        scale_(scale),
        start_(std::chrono::steady_clock::now()) {
    obs::Registry::Global().Reset();
  }

  RunReporter(const RunReporter&) = delete;
  RunReporter& operator=(const RunReporter&) = delete;

  ~RunReporter() {
    double wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    std::string json = StrCat(
        "{\"bench\": \"", name_, "\", \"wall_seconds\": ", wall_seconds,
        ", \"threads\": ", common::ThreadPool::Global().num_threads(),
        ", \"individuals\": ", scale_.individuals,
        ", \"epochs\": ", scale_.epochs, ", \"days\": ", scale_.days,
        ", \"seed\": ", scale_.seed,
        ", \"full\": ", scale_.full ? "true" : "false");
    obs::MetricsSnapshot snapshot = obs::Registry::Global().Snapshot();
    if (!snapshot.empty()) {
      json = StrCat(json, ", \"metrics\": ", snapshot.ToJson());
    }
    json += "}";
    std::cout << "\n[json] " << json << "\n";
    std::string dir = GetEnvString("EMAF_BENCH_JSON_DIR", ".");
    if (dir != "-") {
      std::string path = dir + "/BENCH_" + name_ + ".json";
      std::ofstream out(path);
      if (out) {
        out << json << "\n";
      } else {
        std::cout << "[json] failed to write " << path << "\n";
      }
    }
    if (obs::Trace::Enabled()) {
      Status trace_status = obs::Trace::Flush();
      if (!trace_status.ok()) {
        std::cout << "[trace] " << trace_status.ToString() << "\n";
      }
    }
  }

 private:
  std::string name_;
  BenchScale scale_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace emaf::bench

#endif  // EMAF_BENCH_BENCH_COMMON_H_
