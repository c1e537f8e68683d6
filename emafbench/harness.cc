#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/metrics.h"
#include "common/string_util.h"

namespace emafbench {

namespace {

std::string FormatNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

const char* OutcomeName(int outcome) {
  static const char* const kNames[kNumOutcomes] = {
      "ok",        "unavailable", "resource_exhausted", "deadline_exceeded",
      "other_code", "wrong_bytes"};
  return kNames[outcome];
}

thread_local Span* current_span = nullptr;

}  // namespace

// --- Timing -----------------------------------------------------------------

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  // Linear interpolation between closest ranks.
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

Timing Summarize(std::vector<double> samples) {
  Timing timing;
  timing.n = static_cast<int64_t>(samples.size());
  if (samples.empty()) return timing;
  timing.p50 = Percentile(samples, 0.5);
  // At least ten samples must lie above the reported percentile.
  const double n = static_cast<double>(samples.size());
  timing.tail_q = std::clamp(1.0 - 10.0 / n, 0.5, 0.99);
  timing.tail = Percentile(std::move(samples), timing.tail_q);
  return timing;
}

std::string Describe(const Timing& timing, const char* unit) {
  return emaf::StrCat("p50=", FormatNumber(timing.p50), unit, " p",
                      FormatNumber(100 * timing.tail_q), "=",
                      FormatNumber(timing.tail), unit, " n=", timing.n);
}

// --- Outcomes ----------------------------------------------------------------

Outcome OutcomeOf(const emaf::Status& status) {
  switch (status.code()) {
    case emaf::StatusCode::kOk:
      return Outcome::kOk;
    case emaf::StatusCode::kUnavailable:
      return Outcome::kUnavailable;
    case emaf::StatusCode::kResourceExhausted:
      return Outcome::kResourceExhausted;
    case emaf::StatusCode::kDeadlineExceeded:
      return Outcome::kDeadlineExceeded;
    default:
      return Outcome::kOtherCode;
  }
}

int64_t Tally::failed() const {
  int64_t failed = 0;
  for (int i = 1; i < kNumOutcomes; ++i) failed += outcomes[i];
  return failed;
}

// --- Spans -------------------------------------------------------------------

void SpanLog::Add(const std::string& layer, double self_us, double total_us,
                  bool under_root) {
  std::lock_guard<std::mutex> lock(mu_);
  LayerTime& time = layers_[layer];
  time.self_us += self_us;
  if (under_root) time.rooted_self_us += self_us;
  time.total_us += total_us;
  ++time.spans;
}

std::map<std::string, SpanLog::LayerTime> SpanLog::layers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return layers_;
}

int64_t SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t total = 0;
  for (const auto& [layer, time] : layers_) total += time.spans;
  return total;
}

Span::Span(SpanLog* log, std::string layer, uint64_t id)
    : log_(log), layer_(std::move(layer)) {
  if (log_ == nullptr) return;
  parent_ = current_span;
  under_root_ = parent_ != nullptr &&
                (parent_->under_root_ || SpanLog::IsRoot(parent_->layer_));
  current_span = this;
  chrome_ = std::make_unique<emaf::obs::ScopedSpan>(
      emaf::StrCat(layer_, "#", id), "emafbench");
  begin_ = Clock::now();
}

Span::~Span() {
  if (log_ == nullptr) return;
  const double total_us =
      std::chrono::duration<double, std::micro>(Clock::now() - begin_)
          .count();
  chrome_.reset();
  current_span = parent_;
  if (parent_ != nullptr) parent_->child_us_ += total_us;
  log_->Add(layer_, total_us - child_us_, total_us, under_root_);
}

// --- Result ------------------------------------------------------------------

void Result::Set(const std::string& name, double value) {
  if (!std::isfinite(value)) {
    Fail(emaf::StrCat("metric ", name, " is not finite"));
    value = 0;
  }
  values_[name] = value;
}

double Result::Get(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0 : it->second;
}

void Result::Detail(const std::string& key, const std::string& value) {
  details_.emplace_back(key, value);
}

void Result::AddPhase(const std::string& name, const Tally& tally) {
  phases_.emplace_back(name, tally);
  if (tally.observed() != tally.attempted) {
    Fail(emaf::StrCat("phase ", name, ": ok + failed = ", tally.observed(),
                      " but attempted = ", tally.attempted));
  }
}

void Result::Fail(const std::string& why) { problems_.push_back(why); }

std::string Result::Render() const {
  std::ostringstream out;
  for (const auto& [key, value] : details_) {
    out << "# " << key << ": " << value << "\n";
  }
  int64_t attempted = 0;
  int64_t ok = 0;
  for (const auto& [name, tally] : phases_) {
    out << "# phase " << name << ": attempted=" << tally.attempted;
    for (int i = 0; i < kNumOutcomes; ++i) {
      out << " " << OutcomeName(i) << "=" << tally.outcomes[i];
    }
    out << "\n";
    attempted += tally.attempted;
    ok += tally.ok();
  }
  for (const std::string& problem : problems_) {
    out << "# INCORRECT: " << problem << "\n";
  }
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted
      << ", \"failed\": " << std::max<int64_t>(0, attempted - ok)
      << ", \"metrics\": {";
  const char* separator = "";
  for (const auto& [name, value] : values_) {
    out << separator << "\"" << name << "\": " << FormatNumber(value);
    separator = ", ";
  }
  out << "}}\n";
  return out.str();
}

// --- Shared reporting -----------------------------------------------------------

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

void ThrowIfError(const emaf::Status& status, const std::string& what) {
  if (!status.ok()) {
    throw std::runtime_error(emaf::StrCat(what, ": ", status.ToString()));
  }
}

void ReportStoreDelta(const emaf::serve::ModelStore::Stats& before,
                      const emaf::serve::ModelStore::Stats& after,
                      Result* result) {
  const double lookups = static_cast<double>(after.lookups - before.lookups);
  result->Set("store.hit_rate",
              lookups > 0 ? static_cast<double>(after.warm_hits -
                                                before.warm_hits) /
                                lookups
                          : 0);
  result->Set("store.cold_loads",
              static_cast<double>(after.cold_loads - before.cold_loads));
  result->Set("store.evictions",
              static_cast<double>(after.evictions - before.evictions));
  result->Set("store.resident_bytes",
              static_cast<double>(after.resident_bytes));
}

uint64_t CounterValue(const char* name) {
  return emaf::obs::Registry::Global().GetCounter(name)->value();
}

void StartChromeTrace(const Options& options) {
  emaf::obs::Trace::Enable(emaf::StrCat(options.out_dir, "/trace-",
                                        options.workload, "-", options.seed,
                                        ".json"));
}

void ReportContext(const Options& options, int64_t pool_threads,
                   Result* result) {
  result->Detail("context",
                 emaf::StrCat("workload=", options.workload,
                              " seed=", options.seed,
                              " seconds=", FormatNumber(options.seconds),
                              " trace=", options.trace ? 1 : 0,
                              " nproc=", std::thread::hardware_concurrency(),
                              " pool_threads=", pool_threads,
                              " build_type=", EMAFBENCH_BUILD_TYPE,
                              options.smoke ? " smoke=1" : ""));
}

void ReportOutcomes(const Tally& total, Result* result) {
  const double attempted =
      static_cast<double>(std::max<int64_t>(1, total.attempted));
  result->Set("ok_share", static_cast<double>(total.ok()) / attempted);
  static const char* const kShares[kNumOutcomes] = {
      nullptr,
      "failed.unavailable_share",
      "failed.resource_exhausted_share",
      "failed.deadline_exceeded_share",
      "failed.other_code_share",
      "failed.wrong_bytes_share"};
  for (int i = 1; i < kNumOutcomes; ++i) {
    result->Set(kShares[i],
                static_cast<double>(total.outcomes[i]) / attempted);
  }
}

void ReportSelfTime(const SpanLog& log, Result* result) {
  // Module shares: self time of the layers beneath the root spans against
  // the roots' total time.
  const std::map<std::string, SpanLog::LayerTime> layers = log.layers();
  double root_total = 0;
  double root_self = 0;
  std::map<std::string, double> module_self;
  for (const auto& [layer, time] : layers) {
    if (SpanLog::IsRoot(layer)) {
      root_total += time.total_us;
      root_self += time.self_us;
    } else {
      module_self[layer.substr(0, layer.find('.'))] += time.rooted_self_us;
    }
  }
  if (root_total > 0) {
    for (const char* module : {"store", "plan", "protocol", "online"}) {
      result->Set(emaf::StrCat("selftime.", module, "_share"),
                  module_self[module] / root_total);
    }
    result->Set("selftime.root_share", root_self / root_total);
  }
  result->Set("trace.spans", static_cast<double>(log.spans()));
}

}  // namespace emafbench
