// Model registry: build any of the paper's five forecaster families
// (Table 2: LSTM, VAR, A3TGCN, ASTGCN, MTGNN) from a declarative
// ModelConfig, and snapshot a model with its config embedded so a serving
// process can reconstruct it without the training code (DESIGN.md,
// "Serving layer").
//
// Configs serialize to a key=value text blob with doubles rendered via
// FormatExact, so a parsed config is bit-identical to the original — the
// graph models bake the normalized adjacency operator into constants at
// construction, which is why the adjacency is part of the config and must
// round-trip exactly for a served model to match the trained one
// byte-for-byte.

#ifndef EMAF_MODELS_REGISTRY_H_
#define EMAF_MODELS_REGISTRY_H_

#include <memory>
#include <optional>
#include <string>

#include "common/rng.h"
#include "common/status.h"
#include "graph/adjacency.h"
#include "models/a3tgcn.h"
#include "models/astgcn.h"
#include "models/forecaster.h"
#include "models/lstm_forecaster.h"
#include "models/mtgnn.h"
#include "models/var_forecaster.h"

namespace emaf::models {

struct ModelConfig {
  // Registry name: "LSTM", "VAR", "A3TGCN", "ASTGCN" or "MTGNN".
  std::string family;
  int64_t num_variables = 0;
  int64_t input_length = 0;

  // Family-specific settings; only the active family's struct is read.
  LstmConfig lstm;
  VarConfig var;
  A3tgcnConfig a3tgcn;
  AstgcnConfig astgcn;
  MtgnnConfig mtgnn;

  // Variable graph: required by A3TGCN/ASTGCN, optional static prior for
  // MTGNN (absent = pure graph learning), ignored by LSTM/VAR.
  std::optional<graph::AdjacencyMatrix> adjacency;
};

// One key=value per line, fixed key order, FormatExact doubles. Two
// configs are equivalent iff their blobs are equal.
std::string SerializeModelConfig(const ModelConfig& config);
Result<ModelConfig> ParseModelConfig(const std::string& text);

// Constructs the forecaster named by `config.family`, drawing weight
// initialization and dropout streams from `rng` in the same order as the
// former inline construction sites (the experiment grid's RNG-stream and
// golden-byte contract depends on this).
Result<std::unique_ptr<Forecaster>> CreateForecaster(
    const ModelConfig& config, Rng* rng);
std::unique_ptr<Forecaster> CreateForecasterOrDie(const ModelConfig& config,
                                                  Rng* rng);

// Snapshot-to-serve path, layered on nn::serialize v3:
//   SaveForecasterSnapshot embeds the serialized config in the snapshot;
//   LoadForecasterSnapshot rebuilds the model from the embedded config and
//     restores its parameters (`rng` only seeds construction — every
//     weight is overwritten by the load);
//   LoadForecasterInto loads into an existing model and rejects a snapshot
//     whose embedded config does not match `expected` exactly.
Status SaveForecasterSnapshot(Forecaster* model, const ModelConfig& config,
                              const std::string& path);
Result<std::unique_ptr<Forecaster>> LoadForecasterSnapshot(
    const std::string& path, Rng* rng);
Status LoadForecasterInto(Forecaster* model, const ModelConfig& expected,
                          const std::string& path);

}  // namespace emaf::models

#endif  // EMAF_MODELS_REGISTRY_H_
