// Few-epoch warm-start fine-tuning for streaming ingestion (DESIGN.md,
// "Online ingestion & hot-swap").
//
// The offline protocol (core/trainer) trains 300 epochs from random
// initialization. Online updates invert both choices: the model starts
// from the latest published snapshot's weights and takes only a few
// gentle epochs over the sliding window, so an update costs milliseconds
// and cannot wander far from a model that was already serving well.
//
// When the windowed graph builder re-derived a fresher adjacency, the
// warm start crosses graphs: the model is *constructed* from the
// snapshot's embedded config with the adjacency swapped (graph operators
// are baked constants, not parameters), then the snapshot's parameters
// are loaded by name/shape — valid because the adjacency never appears in
// the parameter list, so every shape matches.
//
// Divergence is refused, not published: the trainer reuses the offline
// divergence guard, retries a bounded number of times with a halved
// learning rate and gradient clipping forced on (the same recovery
// policy the experiment grid uses), and if every attempt diverges returns
// kAborted — the caller publishes nothing and the previous snapshot
// keeps serving.
//
// Instrumentation: online.train.fine_tunes_total /
// divergence_retries_total / refused_total (counters). Fault site
// online.train/<id> fails one FineTune with kUnavailable before any work.

#ifndef EMAF_ONLINE_ONLINE_TRAINER_H_
#define EMAF_ONLINE_ONLINE_TRAINER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "common/status.h"
#include "core/trainer.h"
#include "graph/adjacency.h"
#include "models/registry.h"
#include "tensor/tensor.h"

namespace emaf::online {

struct OnlineTrainOptions {
  // Warm-start epochs per update (vs. 300 offline). <= 0 skips training
  // entirely: a pure warm-start rebind of the snapshot's weights under
  // the (possibly swapped) adjacency.
  int64_t epochs = 20;
  // First-attempt learning rate — a fifth of the offline 0.01, since the
  // weights already sit near a minimum.
  double learning_rate = 0.002;
  // Divergence retries: attempt k trains at learning_rate / 2^k with
  // grad_clip_norm forced on (the offline recovery policy).
  int64_t max_attempts = 2;
  double grad_clip_norm = 5.0;
  // Seeds model construction (weights are then overwritten by the warm
  // start, so this only fixes dropout/aux streams deterministically).
  uint64_t seed = 0xf1e77e5ULL;
};

struct FineTuneResult {
  // The fine-tuned model (train mode off) and the config it was built
  // from — the snapshot's embedded config, adjacency swapped when a
  // fresher one was supplied. Both feed straight into
  // SnapshotPublisher::Publish.
  std::unique_ptr<models::Forecaster> model;
  models::ModelConfig config;
  core::TrainResult train;
  int64_t attempts = 1;
};

class OnlineTrainer {
 public:
  explicit OnlineTrainer(OnlineTrainOptions options);

  // Warm-starts from `snapshot_path` and fine-tunes on all 1-lag windows
  // of `window_data` ([T, V], oldest first — an ObservationLog tail).
  // `adjacency`, when present, replaces the config's baked graph; it is
  // ignored for configs without one (LSTM/VAR, pure-graph-learning
  // MTGNN), where swapping would change the module structure.
  //   kUnavailable        — fault site online.train/<id> fired;
  //   kInvalidArgument    — snapshot config missing or unreadable, V
  //                         mismatch, or adjacency of the wrong size;
  //   kFailedPrecondition — too few rows for one training window;
  //   kAborted            — every attempt diverged; publish nothing, the
  //                         previous snapshot keeps serving.
  Result<FineTuneResult> FineTune(
      const std::string& id, const std::string& snapshot_path,
      const tensor::Tensor& window_data,
      const std::optional<graph::AdjacencyMatrix>& adjacency = std::nullopt);

  const OnlineTrainOptions& options() const { return options_; }

 private:
  OnlineTrainOptions options_;
};

}  // namespace emaf::online

#endif  // EMAF_ONLINE_ONLINE_TRAINER_H_
