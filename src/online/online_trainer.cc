#include "online/online_trainer.h"

#include <algorithm>
#include <utility>

#include "common/fault_injection.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "nn/serialize.h"
#include "ts/window.h"

namespace emaf::online {

OnlineTrainer::OnlineTrainer(OnlineTrainOptions options)
    : options_(std::move(options)) {}

Result<FineTuneResult> OnlineTrainer::FineTune(
    const std::string& id, const std::string& snapshot_path,
    const tensor::Tensor& window_data,
    const std::optional<graph::AdjacencyMatrix>& adjacency) {
  if (EMAF_FAULT_SHOULD_FAIL(StrCat("online.train/", id))) {
    return Status::Unavailable(StrCat("injected fault: online.train/", id));
  }
  Result<std::string> blob = nn::ReadSnapshotConfig(snapshot_path);
  if (!blob.ok()) return blob.status();
  if (blob.value().empty()) {
    return Status::InvalidArgument(
        StrCat("snapshot ", snapshot_path,
               " embeds no model config; online fine-tuning needs a "
               "snapshot written by models::SaveForecasterSnapshot"));
  }
  Result<models::ModelConfig> parsed = models::ParseModelConfig(blob.value());
  if (!parsed.ok()) return parsed.status();
  models::ModelConfig config = std::move(parsed).value();

  if (window_data.rank() != 2 || window_data.dim(1) != config.num_variables) {
    return Status::InvalidArgument(StrCat(
        "fine-tune window for ", id, " must be [T, ", config.num_variables,
        "] to match the snapshot config"));
  }
  const int64_t rows = window_data.dim(0);
  if (rows <= config.input_length) {
    return Status::FailedPrecondition(
        StrCat("fine-tune for ", id, " has ", rows,
               " rows but needs more than input_length=", config.input_length,
               " for one training window"));
  }
  if (adjacency.has_value() && config.adjacency.has_value()) {
    if (adjacency->num_nodes() != config.num_variables) {
      return Status::InvalidArgument(
          StrCat("re-derived adjacency has ", adjacency->num_nodes(),
                 " nodes; snapshot config expects ", config.num_variables));
    }
    config.adjacency = *adjacency;
  }

  const ts::WindowDataset train = ts::BuildWindows(
      window_data, config.input_length, /*start=*/0, /*end=*/rows,
      /*allow_context=*/false);

  Status last_divergence = Status::Ok();
  for (int64_t attempt = 0; attempt < std::max<int64_t>(1, options_.max_attempts);
       ++attempt) {
    // The seed folds in the attempt so a retry's dropout stream differs
    // from the diverged one, but each (snapshot, window, attempt) triple
    // is still fully deterministic.
    Rng rng(options_.seed + static_cast<uint64_t>(attempt));
    Result<std::unique_ptr<models::Forecaster>> built =
        models::CreateForecaster(config, &rng);
    if (!built.ok()) return built.status();
    std::unique_ptr<models::Forecaster> model = std::move(built).value();
    // Warm start: parameters load by name/shape, and the adjacency —
    // being a baked constant, not a parameter — may differ from the
    // snapshot's without any shape mismatch.
    EMAF_RETURN_IF_ERROR(nn::LoadParameters(model.get(), snapshot_path));

    // epochs <= 0 is a pure warm-start rebind: the snapshot's weights
    // under the (possibly swapped) adjacency, no optimizer step. Used by
    // tests to witness the warm start.
    if (options_.epochs <= 0) {
      model->SetTraining(false);
      EMAF_METRIC_COUNTER_ADD("online.train.fine_tunes_total", 1);
      FineTuneResult out;
      out.model = std::move(model);
      out.config = std::move(config);
      out.attempts = attempt + 1;
      return out;
    }

    core::TrainConfig train_config;
    train_config.epochs = options_.epochs;
    train_config.learning_rate =
        options_.learning_rate / static_cast<double>(int64_t{1} << attempt);
    train_config.detect_divergence = true;
    // First attempt honors the configured clip; retries force it on, as
    // the offline divergence-recovery policy does.
    train_config.grad_clip_norm =
        attempt == 0 ? options_.grad_clip_norm
                     : (options_.grad_clip_norm > 0.0 ? options_.grad_clip_norm
                                                      : 5.0);
    train_config.fault_scope = StrCat("online/", id);
    core::TrainResult result =
        core::TrainForecaster(model.get(), train, train_config);
    if (!result.diverged) {
      model->SetTraining(false);
      EMAF_METRIC_COUNTER_ADD("online.train.fine_tunes_total", 1);
      FineTuneResult out;
      out.model = std::move(model);
      out.config = std::move(config);
      out.train = std::move(result);
      out.attempts = attempt + 1;
      return out;
    }
    EMAF_METRIC_COUNTER_ADD("online.train.divergence_retries_total", 1);
    last_divergence = Status::Aborted(StrCat(
        "fine-tune for ", id, " diverged at epoch ", result.divergence_epoch,
        " (attempt ", attempt + 1, "/", options_.max_attempts,
        ", lr=", train_config.learning_rate, ")"));
  }
  EMAF_METRIC_COUNTER_ADD("online.train.refused_total", 1);
  return Status(last_divergence.code(),
                StrCat(last_divergence.message(),
                       "; refusing to publish — the previous snapshot keeps "
                       "serving"));
}

}  // namespace emaf::online
