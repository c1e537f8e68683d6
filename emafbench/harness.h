// Shared pieces of the emaf benchmark: run options, latency
// summaries, per-cause outcome tallies, benchmark-side trace spans with
// per-layer self time, and the result record that becomes the final JSON
// line. See README.md for the workloads and metric definitions.

#ifndef EMAFBENCH_HARNESS_H_
#define EMAFBENCH_HARNESS_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/trace.h"
#include "serve/model_store.h"

namespace emafbench {

using Clock = std::chrono::steady_clock;

inline double Ms(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}
inline double MsSince(Clock::time_point from) { return Ms(from, Clock::now()); }

// Seed of the generated data and the models. It is fixed, so every --seed
// does the same work (the models' weights set how many zeros the kernels
// skip, which moved one seed's runs by 10 to 14 %); --seed draws the order
// of the work: the request plans and the grid-cell order.
inline constexpr uint64_t kDataSeed = 20240113;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Smoke scale: tiny inputs and sub-second phases, for the self-test.
  bool smoke = false;
  // Scratch directory of this run (snapshots, logs); removed at exit.
  std::string work_dir;
  // Where the traced run writes its Chrome trace.
  std::string out_dir;
};

// Median plus the highest percentile that still has at least ten samples
// beyond it (capped at p99), with the sample count.
struct Timing {
  double p50 = 0;
  double tail = 0;
  double tail_q = 0;
  int64_t n = 0;
};
Timing Summarize(std::vector<double> samples);
double Median(std::vector<double> samples);
double Percentile(std::vector<double> samples, double q);
std::string Describe(const Timing& timing, const char* unit);

// Why an attempted operation did not count as a correct result.
enum class Outcome {
  kOk,
  kUnavailable,
  kResourceExhausted,
  kDeadlineExceeded,
  kOtherCode,
  kWrongBytes,
};
inline constexpr int kNumOutcomes = 6;
Outcome OutcomeOf(const emaf::Status& status);

// Outcomes of one phase. `attempted` is counted by whoever sends the
// operations and the outcomes by whoever observes them, so the phase
// check ok + failed == attempted is a real cross-check.
struct Tally {
  int64_t attempted = 0;
  std::array<int64_t, kNumOutcomes> outcomes{};

  void Record(Outcome outcome) { ++outcomes[static_cast<int>(outcome)]; }
  int64_t count(Outcome outcome) const {
    return outcomes[static_cast<int>(outcome)];
  }
  int64_t ok() const { return count(Outcome::kOk); }
  int64_t failed() const;
  int64_t observed() const { return ok() + failed(); }
  void Merge(const Tally& other) {
    attempted += other.attempted;
    for (int i = 0; i < kNumOutcomes; ++i) outcomes[i] += other.outcomes[i];
  }
};

// Benchmark-side spans. Each Span is recorded around one call into a
// layer; nesting on a thread gives self time (a span's duration minus its
// children's). With tracing on, every span also becomes a Chrome-trace
// event named "<layer>#<id>" through the library's trace writer, so the
// spans of one request share its wire request id.
class SpanLog {
 public:
  SpanLog() = default;
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  // Per-operation root spans: "forecast" (a replayed serving request) and
  // "update" (an online update). Self-time shares are taken beneath them.
  static bool IsRoot(const std::string& layer) {
    return layer == "forecast" || layer == "update";
  }

  struct LayerTime {
    double self_us = 0;
    double rooted_self_us = 0;  // the part recorded beneath a root span
    double total_us = 0;
    int64_t spans = 0;
  };
  void Add(const std::string& layer, double self_us, double total_us,
           bool under_root);
  std::map<std::string, LayerTime> layers() const;
  int64_t spans() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, LayerTime> layers_;  // guarded by mu_
};

class Span {
 public:
  // `log` null makes the span inert (the untraced run).
  Span(SpanLog* log, std::string layer, uint64_t id);
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span();

 private:
  SpanLog* log_;
  std::string layer_;
  Span* parent_ = nullptr;
  bool under_root_ = false;
  double child_us_ = 0;
  Clock::time_point begin_;
  std::unique_ptr<emaf::obs::ScopedSpan> chrome_;
};

// Everything one run reports: the metrics it measured, by name. run.py
// holds them against BENCHMARK.json, the one list of metrics and units.
class Result {
 public:
  void Set(const std::string& name, double value);
  double Get(const std::string& name) const;
  void Detail(const std::string& key, const std::string& value);
  void AddPhase(const std::string& name, const Tally& tally);
  // Marks the run incorrect (wrong bytes, broken accounting, bad MSE).
  void Fail(const std::string& why);
  bool correct() const { return problems_.empty(); }

  // Detail lines ("# key: value") followed by the final JSON line with
  // every measured metric as "name": value.
  std::string Render() const;

 private:
  std::map<std::string, double> values_;
  std::vector<std::pair<std::string, std::string>> details_;
  std::vector<std::pair<std::string, Tally>> phases_;
  std::vector<std::string> problems_;
};

// Peak resident set of this process (VmHWM), in MiB.
double PeakRssMb();

// Throws std::runtime_error("<what>: <status>") unless `status` is OK: a
// run whose set-up or harness fails ends without a result.
void ThrowIfError(const emaf::Status& status, const std::string& what);

// store.{hit_rate,cold_loads,evictions} over the interval between two
// ModelStore::stats() snapshots, and store.resident_bytes at its end.
void ReportStoreDelta(const emaf::serve::ModelStore::Stats& before,
                      const emaf::serve::ModelStore::Stats& after,
                      Result* result);

// Current value of a library counter in the metrics registry.
uint64_t CounterValue(const char* name);

// Starts the Chrome trace of this run (spans of the benchmark and of the
// library) at <out_dir>/trace-<workload>-<seed>.json; main flushes it.
void StartChromeTrace(const Options& options);

// Records the run context every result carries as a detail line: seed,
// nproc, pool threads and build type.
void ReportContext(const Options& options, int64_t pool_threads,
                   Result* result);

// Shares of each failure cause against `attempted`, as per-layer metrics,
// plus the end-to-end ok share.
void ReportOutcomes(const Tally& total, Result* result);

// Self-time shares of the recorded layers and the span count.
void ReportSelfTime(const SpanLog& log, Result* result);

}  // namespace emafbench

#endif  // EMAFBENCH_HARNESS_H_
