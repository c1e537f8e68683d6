#include "core/experiment.h"

#include <cmath>
#include <exception>
#include <memory>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/checkpoint.h"
#include "graph/metrics.h"
#include "models/registry.h"
#include "tensor/ops.h"

namespace emaf::core {

namespace {

// Mixes cell coordinates into a distinct RNG stream id.
uint64_t StreamId(const CellSpec& spec, int64_t individual, int64_t repeat) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  mix(static_cast<uint64_t>(spec.model));
  mix(static_cast<uint64_t>(spec.metric));
  mix(static_cast<uint64_t>(spec.gdt * 1000.0));
  mix(static_cast<uint64_t>(spec.input_length));
  mix(spec.use_learned_graph ? 1 : 0);
  mix(static_cast<uint64_t>(individual));
  mix(static_cast<uint64_t>(repeat));
  return h;
}

// Cache key of a learned-graph extraction (internal to this file).
std::string LearnedKey(graph::GraphMetric metric, double gdt,
                       int64_t input_length) {
  return StrCat(graph::GraphMetricName(metric), "|", gdt, "|", input_length);
}

bool AdjacencyHasNonFinite(const graph::AdjacencyMatrix& adjacency) {
  for (double v : adjacency.values()) {
    if (!std::isfinite(v)) return true;
  }
  return false;
}

}  // namespace

std::string ModelKindName(ModelKind kind) {
  switch (kind) {
    case ModelKind::kLstm:
      return "LSTM";
    case ModelKind::kA3tgcn:
      return "A3TGCN";
    case ModelKind::kAstgcn:
      return "ASTGCN";
    case ModelKind::kMtgnn:
      return "MTGNN";
  }
  return "UNKNOWN";
}

std::string CellSpec::Label() const {
  if (model == ModelKind::kLstm) return "LSTM";
  std::string label =
      StrCat(ModelKindName(model), "_", graph::GraphMetricName(metric));
  if (use_learned_graph) label += "_learned";
  return label;
}

std::string CellKey(const CellSpec& spec) {
  // Every spec field, not just the label: an LSTM cell's RNG stream still
  // mixes metric and gdt, so two LSTM cells with different metrics are
  // different cells. ':' keeps the key free of the journal's '|' separator.
  return StrCat(ModelKindName(spec.model), ":",
                graph::GraphMetricName(spec.metric), ":",
                FormatExact(spec.gdt), ":", spec.input_length, ":",
                spec.use_learned_graph ? "learned" : "static");
}

int64_t CellResult::TotalRetries() const {
  int64_t total = 0;
  for (int64_t r : per_individual_retries) total += r;
  return total;
}

ExperimentRunner::ExperimentRunner(data::Cohort cohort,
                                   ExperimentConfig config)
    : cohort_(std::move(cohort)), config_(std::move(config)) {
  EMAF_CHECK_GT(cohort_.size(), 0);
}

graph::AdjacencyMatrix ExperimentRunner::BuildStaticGraph(
    int64_t individual_index, graph::GraphMetric metric, double gdt,
    int64_t repeat) {
  const data::Individual& individual =
      cohort_.individuals[static_cast<size_t>(individual_index)];
  // Graphs are built on the training region only (no test leakage).
  int64_t split = ts::SequentialSplitIndex(individual.num_time_points(),
                                           config_.train_fraction);
  tensor::Tensor train_region =
      tensor::Slice(individual.observations, 0, 0, split);

  graph::GraphBuildOptions options;
  options.metric = metric;
  options.knn_k = config_.knn_k;
  options.dtw_window = config_.dtw_window;
  Rng rng = Rng(config_.seed).Fork(
      0x72616e64ULL + static_cast<uint64_t>(individual_index) * 131 +
      static_cast<uint64_t>(repeat));
  graph::AdjacencyMatrix full =
      graph::BuildSimilarityGraph(train_region, options, &rng);
  return graph::KeepTopFraction(full, gdt);
}

Result<ExperimentRunner::IndividualRun> ExperimentRunner::RunIndividual(
    const CellSpec& spec, int64_t individual_index, int64_t repeat,
    bool extract_learned) {
  EMAF_TRACE_SPAN_DYN(
      StrCat("cell/", spec.Label(), "/individual_", individual_index));
  EMAF_METRIC_SCOPED_TIMER("experiment.individual_seconds");
  EMAF_METRIC_COUNTER_ADD("experiment.individuals_total", 1);
  const data::Individual& individual =
      cohort_.individuals[static_cast<size_t>(individual_index)];
  data::IndividualSplit split =
      data::MakeSplit(individual, spec.input_length, config_.train_fraction);
  const uint64_t base_stream = StreamId(spec, individual_index, repeat);

  std::string last_failure = "never attempted";
  for (int64_t attempt = 0; attempt <= config_.max_train_retries; ++attempt) {
    // Attempt 0 is byte-identical to fault-free training; recovery
    // attempts re-seed the model from a perturbed stream, halve the
    // learning rate per attempt, and force gradient clipping on.
    uint64_t stream = base_stream;
    TrainConfig train = config_.train;
    // Scoped by CellKey, not Label: two cells may share a label (same
    // model and metric, different input length) and a fault spec must be
    // able to target exactly one of them.
    train.fault_scope = StrCat(CellKey(spec), "/i", individual_index);
    if (attempt > 0) {
      stream ^= 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(attempt);
      train.learning_rate =
          config_.train.learning_rate / static_cast<double>(1LL << attempt);
      if (train.grad_clip_norm <= 0.0) {
        train.grad_clip_norm = config_.recovery_grad_clip_norm;
      }
      EMAF_METRIC_COUNTER_ADD("experiment.recovery_retries_total", 1);
      EMAF_LOG(WARNING) << spec.Label() << " individual " << individual_index
                        << ": retry " << attempt << "/"
                        << config_.max_train_retries << " after "
                        << last_failure << " (lr " << train.learning_rate
                        << ", clip " << train.grad_clip_norm << ")";
    }
    Rng rng = Rng(config_.seed).Fork(stream);

    // Every model family goes through the registry; the cell's job here is
    // only to assemble the ModelConfig (including the adjacency, which the
    // graph models bake into constants at construction). CreateForecaster
    // invokes the same constructors with the same `rng` as the former
    // inline construction, so RNG streams — and the golden experiment
    // bytes — are unchanged.
    models::ModelConfig model_config;
    model_config.num_variables = individual.num_variables();
    model_config.input_length = spec.input_length;
    model_config.lstm = config_.lstm;
    model_config.a3tgcn = config_.a3tgcn;
    model_config.astgcn = config_.astgcn;
    model_config.mtgnn = config_.mtgnn;
    // Kept alive through training for the learned-vs-static correlation.
    graph::AdjacencyMatrix static_graph(1);
    switch (spec.model) {
      case ModelKind::kLstm:
        model_config.family = "LSTM";
        break;
      case ModelKind::kA3tgcn:
      case ModelKind::kAstgcn: {
        model_config.family =
            spec.model == ModelKind::kA3tgcn ? "A3TGCN" : "ASTGCN";
        graph::AdjacencyMatrix adjacency(individual.num_variables());
        if (spec.use_learned_graph) {
          // RunCell populates the cache before its parallel region, so
          // this lookup is read-only here; a miss is a programming error.
          auto it = learned_cache_.find(
              LearnedKey(spec.metric, spec.gdt, spec.input_length));
          EMAF_CHECK(it != learned_cache_.end())
              << "learned-graph cache not pre-populated for "
              << spec.Label();
          // Learned graphs are directed: symmetrize, then apply the same
          // GDT so the comparison against the static graph is edge-count
          // matched.
          graph::AdjacencyMatrix g =
              it->second.graphs[static_cast<size_t>(individual_index)];
          g.Symmetrize();
          g.ZeroDiagonal();
          adjacency = graph::KeepTopFraction(g, spec.gdt);
        } else {
          adjacency = BuildStaticGraph(individual_index, spec.metric,
                                       spec.gdt, repeat);
        }
        if (AdjacencyHasNonFinite(adjacency)) {
          // Corrupt input, not a training accident: re-seeding cannot fix
          // a deterministically rebuilt graph, so fail without retrying.
          return Status::DataLoss(
              StrCat(spec.Label(), " individual ", individual_index,
                     ": adjacency matrix has non-finite entries"));
        }
        model_config.adjacency = std::move(adjacency);
        break;
      }
      case ModelKind::kMtgnn: {
        model_config.family = "MTGNN";
        static_graph = BuildStaticGraph(individual_index, spec.metric,
                                        spec.gdt, repeat);
        if (AdjacencyHasNonFinite(static_graph)) {
          return Status::DataLoss(
              StrCat(spec.Label(), " individual ", individual_index,
                     ": adjacency matrix has non-finite entries"));
        }
        model_config.adjacency = static_graph;
        break;
      }
    }
    Result<std::unique_ptr<models::Forecaster>> created =
        models::CreateForecaster(model_config, &rng);
    if (!created.ok()) return created.status();
    std::unique_ptr<models::Forecaster> model = std::move(created).value();
    auto* mtgnn = dynamic_cast<models::Mtgnn*>(model.get());

    TrainResult trained = TrainForecaster(model.get(), split.train, train);
    if (trained.diverged) {
      last_failure = StrCat("divergence at epoch ", trained.divergence_epoch,
                            " (loss ", trained.final_loss, ")");
      continue;
    }
    double mse = EvaluateMse(model.get(), split.test);
    if (!std::isfinite(mse)) {
      last_failure = "non-finite test MSE";
      continue;
    }

    IndividualRun run;
    run.mse = mse;
    run.retries = attempt;
    if (extract_learned) {
      EMAF_CHECK(mtgnn != nullptr)
          << "learned-graph extraction requires an MTGNN cell";
      run.learned = mtgnn->CurrentAdjacency();
      graph::AdjacencyMatrix learned_sym = run.learned;
      learned_sym.Symmetrize();
      learned_sym.ZeroDiagonal();
      run.static_correlation =
          graph::GraphCorrelation(learned_sym, static_graph);
    }
    return run;
  }
  return Status::Aborted(
      StrCat(spec.Label(), " individual ", individual_index,
             ": recovery budget exhausted after ", config_.max_train_retries,
             " retries; last failure: ", last_failure));
}

CellOutcome ExperimentRunner::RunCellOutcome(const CellSpec& spec) {
  EMAF_TRACE_SPAN_DYN(StrCat("RunCell/", spec.Label()));
  EMAF_METRIC_SCOPED_TIMER("experiment.cell_seconds");
  EMAF_METRIC_COUNTER_ADD("experiment.cells_total", 1);
  CellOutcome outcome;
  outcome.spec = spec;
  outcome.result.spec = spec;

  if (EMAF_FAULT_SHOULD_FAIL(StrCat("experiment.cell/", CellKey(spec)))) {
    outcome.status = Status::Unavailable(
        StrCat("injected fault: experiment.cell/", CellKey(spec)));
    return outcome;
  }

  bool is_random = spec.metric == graph::GraphMetric::kRandom &&
                   spec.model != ModelKind::kLstm;
  int64_t repeats = is_random ? config_.random_graph_repeats : 1;

  // Non-random MTGNN cells reuse the learned-graph cache (identical
  // training procedure) so Experiments A/B/C stay consistent and cheap.
  if (spec.model == ModelKind::kMtgnn && !is_random &&
      config_.mtgnn.use_graph_learning) {
    Result<const LearnedGraphSet*> learned =
        LearnedGraphs(spec.metric, spec.gdt, spec.input_length);
    if (!learned.ok()) {
      outcome.status = learned.status();
      return outcome;
    }
    const LearnedGraphSet& set = *learned.value();
    outcome.result.per_individual_mse = set.mtgnn_mse;
    outcome.result.per_individual_retries = set.retries;
    outcome.result.stats = Aggregate(outcome.result.per_individual_mse);
    outcome.retries = outcome.result.TotalRetries();
    return outcome;
  }

  // Learned-graph cells read the shared cache from every task: populate it
  // once up front so the parallel region is read-only on `learned_cache_`.
  if (spec.use_learned_graph) {
    Result<const LearnedGraphSet*> learned =
        LearnedGraphs(spec.metric, spec.gdt, spec.input_length);
    if (!learned.ok()) {
      outcome.status = learned.status();
      return outcome;
    }
  }

  // Per-individual cells are independent: each task forks its own Rng from
  // StreamId(spec, i, r) and writes into its pre-sized slot, so any
  // schedule produces bitwise the serial result, with no mutex on the hot
  // path and a single aggregation at the end. Failures land in per-index
  // Status slots; the lowest failing index wins, so the reported error is
  // schedule-independent too.
  size_t n = static_cast<size_t>(cohort_.size());
  outcome.result.per_individual_mse.assign(n, 0.0);
  outcome.result.per_individual_retries.assign(n, 0);
  std::vector<Status> statuses(n);
  try {
    common::ThreadPool::Global().ParallelFor(
        0, cohort_.size(), /*grain=*/1, [&](int64_t lo, int64_t hi) {
          for (int64_t i = lo; i < hi; ++i) {
            double total = 0.0;
            int64_t retries = 0;
            for (int64_t r = 0; r < repeats; ++r) {
              Result<IndividualRun> run =
                  RunIndividual(spec, i, r, /*extract_learned=*/false);
              if (!run.ok()) {
                statuses[static_cast<size_t>(i)] = run.status();
                retries += config_.max_train_retries;
                break;
              }
              total += run.value().mse;
              retries += run.value().retries;
            }
            outcome.result.per_individual_mse[static_cast<size_t>(i)] =
                total / static_cast<double>(repeats);
            outcome.result.per_individual_retries[static_cast<size_t>(i)] =
                retries;
          }
        });
  } catch (const std::exception& e) {
    // A worker task died (e.g. injected threadpool fault). The pool stays
    // usable; the cell reports a transient failure.
    outcome.status = Status::Unavailable(
        StrCat(spec.Label(), ": worker task failed: ", e.what()));
    outcome.result = CellResult{};
    outcome.result.spec = spec;
    return outcome;
  }
  outcome.retries = outcome.result.TotalRetries();
  for (size_t i = 0; i < n; ++i) {
    if (!statuses[i].ok()) {
      outcome.status = statuses[i];
      // Partially filled slots must not leak into reports or journals:
      // a failed cell's result is default-initialized by contract.
      outcome.result = CellResult{};
      outcome.result.spec = spec;
      return outcome;
    }
  }
  outcome.result.stats = Aggregate(outcome.result.per_individual_mse);
  EMAF_LOG(DEBUG) << spec.Label() << " mse " << outcome.result.stats.mean
                  << " (" << outcome.result.stats.stddev << ")";
  return outcome;
}

Result<CellResult> ExperimentRunner::RunCell(const CellSpec& spec) {
  CellOutcome outcome = RunCellOutcome(spec);
  if (!outcome.status.ok()) return outcome.status;
  return std::move(outcome.result);
}

CellResult ExperimentRunner::RunCellOrDie(const CellSpec& spec) {
  Result<CellResult> result = RunCell(spec);
  EMAF_CHECK(result.ok()) << "cell " << spec.Label()
                          << " failed: " << result.status().ToString();
  return std::move(result).value();
}

GridResult ExperimentRunner::RunGrid(const std::vector<CellSpec>& grid,
                                     const GridOptions& options) {
  EMAF_TRACE_SPAN_DYN(StrCat("RunGrid/", grid.size(), "_cells"));
  GridResult result;

  // Resume: reload completed outcomes (success AND failure — a failed cell
  // was a *completed* decision; silently re-running it would make the
  // resumed report diverge from the uninterrupted one).
  std::unordered_map<std::string, JournalRecord> resumed;
  std::optional<CheckpointJournal> journal;
  if (!options.journal_path.empty()) {
    std::vector<JournalRecord> records;
    Result<CheckpointJournal> opened =
        CheckpointJournal::Open(options.journal_path, &records);
    // A corrupt journal cannot honor the byte-for-byte resume contract;
    // that is a harness error, not a degradable cell failure.
    EMAF_CHECK(opened.ok()) << "cannot open journal " << options.journal_path
                            << ": " << opened.status().ToString();
    journal.emplace(std::move(opened).value());
    if (options.resume) {
      for (JournalRecord& record : records) {
        std::string key = record.key;
        resumed.emplace(std::move(key), std::move(record));
      }
    }
  }

  for (const CellSpec& spec : grid) {
    const std::string key = CellKey(spec);
    auto it = resumed.find(key);
    if (it != resumed.end()) {
      const JournalRecord& record = it->second;
      CellOutcome outcome;
      outcome.spec = spec;
      outcome.result.spec = spec;
      outcome.status = record.cell_status;
      outcome.retries = record.retries;
      outcome.resumed = true;
      if (outcome.status.ok()) {
        outcome.result.per_individual_mse = record.per_individual_mse;
        outcome.result.per_individual_retries =
            record.per_individual_retries;
        // Exact round-tripping (FormatExact) makes this recomputed
        // aggregate bitwise the original.
        outcome.result.stats = Aggregate(outcome.result.per_individual_mse);
      } else {
        ++result.num_failed;
      }
      ++result.num_resumed;
      EMAF_LOG(INFO) << "resume: skipping completed cell " << key;
      result.cells.push_back(std::move(outcome));
      continue;
    }

    CellOutcome outcome = RunCellOutcome(spec);
    if (!outcome.status.ok()) {
      ++result.num_failed;
      EMAF_METRIC_COUNTER_ADD("experiment.cells_failed", 1);
      EMAF_LOG(ERROR) << "cell " << key
                      << " failed: " << outcome.status.ToString();
    }
    if (journal.has_value()) {
      JournalRecord record;
      record.key = key;
      record.cell_status = outcome.status;
      record.retries = outcome.retries;
      if (outcome.status.ok()) {
        record.per_individual_mse = outcome.result.per_individual_mse;
        record.per_individual_retries =
            outcome.result.per_individual_retries;
      }
      Status appended = journal->Append(record);
      EMAF_CHECK(appended.ok()) << appended.ToString();
      // Crash site for fault_recovery_test: dying here proves the record
      // just written survives and the next run resumes past this cell.
      EMAF_FAULT_CRASH_POINT("checkpoint.post_append");
    }
    result.cells.push_back(std::move(outcome));
  }
  return result;
}

Result<const LearnedGraphSet*> ExperimentRunner::LearnedGraphs(
    graph::GraphMetric metric, double gdt, int64_t input_length) {
  std::string key = LearnedKey(metric, gdt, input_length);
  auto it = learned_cache_.find(key);
  if (it != learned_cache_.end()) {
    EMAF_METRIC_COUNTER_ADD("experiment.learned_cache_hits", 1);
    return &it->second;
  }
  EMAF_METRIC_COUNTER_ADD("experiment.learned_cache_misses", 1);
  EMAF_TRACE_SPAN_DYN(StrCat("LearnedGraphs/", key));
  EMAF_METRIC_SCOPED_TIMER("experiment.learned_graphs_seconds");

  LearnedGraphSet set;
  CellSpec spec;
  spec.model = ModelKind::kMtgnn;
  spec.metric = metric;
  spec.gdt = gdt;
  spec.input_length = input_length;
  // Same slot discipline as RunCell: every individual trains independently
  // into pre-sized vectors; the correlation reduction runs serially in
  // index order afterwards so the mean is bitwise schedule-independent.
  size_t n = static_cast<size_t>(cohort_.size());
  // 1-node placeholders: AdjacencyMatrix has no default constructor; every
  // slot is overwritten by its individual's task.
  set.graphs.assign(n, graph::AdjacencyMatrix(1));
  set.mtgnn_mse.assign(n, 0.0);
  set.retries.assign(n, 0);
  std::vector<double> correlations(n, 0.0);
  std::vector<Status> statuses(n);
  try {
    common::ThreadPool::Global().ParallelFor(
        0, cohort_.size(), /*grain=*/1, [&](int64_t lo, int64_t hi) {
          for (int64_t i = lo; i < hi; ++i) {
            Result<IndividualRun> run =
                RunIndividual(spec, i, /*repeat=*/0,
                              /*extract_learned=*/true);
            if (!run.ok()) {
              statuses[static_cast<size_t>(i)] = run.status();
              continue;
            }
            set.mtgnn_mse[static_cast<size_t>(i)] = run.value().mse;
            set.retries[static_cast<size_t>(i)] = run.value().retries;
            correlations[static_cast<size_t>(i)] =
                run.value().static_correlation;
            set.graphs[static_cast<size_t>(i)] =
                std::move(run.value().learned);
          }
        });
  } catch (const std::exception& e) {
    return Status::Unavailable(
        StrCat("LearnedGraphs/", key, ": worker task failed: ", e.what()));
  }
  for (size_t i = 0; i < n; ++i) {
    // A partial extraction is NOT cached: a later call retries from
    // scratch instead of serving poisoned entries.
    if (!statuses[i].ok()) return statuses[i];
  }
  double correlation_total = 0.0;
  for (double c : correlations) correlation_total += c;
  set.mean_static_correlation =
      correlation_total / static_cast<double>(cohort_.size());
  auto [inserted, unused] = learned_cache_.emplace(key, std::move(set));
  return &inserted->second;
}

const LearnedGraphSet& ExperimentRunner::LearnedGraphsOrDie(
    graph::GraphMetric metric, double gdt, int64_t input_length) {
  Result<const LearnedGraphSet*> learned =
      LearnedGraphs(metric, gdt, input_length);
  EMAF_CHECK(learned.ok()) << "learned-graph extraction failed: "
                           << learned.status().ToString();
  return *learned.value();
}

double ExperimentRunner::MeanRelativeChangePercent(const CellResult& a,
                                                   const CellResult& b) {
  EMAF_CHECK_EQ(a.per_individual_mse.size(), b.per_individual_mse.size());
  EMAF_CHECK(!a.per_individual_mse.empty());
  double total = 0.0;
  for (size_t i = 0; i < a.per_individual_mse.size(); ++i) {
    double base = a.per_individual_mse[i];
    EMAF_CHECK_GT(base, 0.0);
    total += 100.0 * (b.per_individual_mse[i] - base) / base;
  }
  return total / static_cast<double>(a.per_individual_mse.size());
}

}  // namespace emaf::core
