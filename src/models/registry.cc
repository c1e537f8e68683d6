#include "models/registry.h"

#include <utility>
#include <vector>

#include "common/check.h"
#include "common/string_util.h"
#include "nn/serialize.h"

namespace emaf::models {

namespace {

const char* LearnerKindName(GraphLearnerKind kind) {
  switch (kind) {
    case GraphLearnerKind::kEmbedding:
      return "embedding";
    case GraphLearnerKind::kEdgeLogits:
      return "edge_logits";
  }
  return "unknown";
}

void AppendLine(std::string* out, std::string_view key,
                const std::string& value) {
  out->append(key);
  out->push_back('=');
  out->append(value);
  out->push_back('\n');
}

void AppendInt(std::string* out, std::string_view key, int64_t value) {
  AppendLine(out, key, StrCat(value));
}

void AppendDouble(std::string* out, std::string_view key, double value) {
  AppendLine(out, key, FormatExact(value));
}

// Parse-side helpers: each setter returns false on a malformed value so
// the caller can report the offending line.
bool SetInt(const std::string& value, int64_t* field) {
  long long parsed = 0;
  if (!ParseInt64(value, &parsed)) return false;
  *field = static_cast<int64_t>(parsed);
  return true;
}

bool SetDouble(const std::string& value, double* field) {
  return ParseDouble(value, field);
}

}  // namespace

std::string SerializeModelConfig(const ModelConfig& config) {
  std::string out;
  AppendLine(&out, "family", config.family);
  AppendInt(&out, "num_variables", config.num_variables);
  AppendInt(&out, "input_length", config.input_length);
  if (config.family == "LSTM") {
    AppendInt(&out, "lstm.hidden_units", config.lstm.hidden_units);
    AppendDouble(&out, "lstm.dropout", config.lstm.dropout);
  } else if (config.family == "VAR") {
    AppendDouble(&out, "var.ridge", config.var.ridge);
  } else if (config.family == "A3TGCN") {
    AppendInt(&out, "a3tgcn.hidden_units", config.a3tgcn.hidden_units);
    AppendDouble(&out, "a3tgcn.dropout", config.a3tgcn.dropout);
  } else if (config.family == "ASTGCN") {
    AppendInt(&out, "astgcn.num_blocks", config.astgcn.num_blocks);
    AppendInt(&out, "astgcn.hidden_units", config.astgcn.hidden_units);
    AppendInt(&out, "astgcn.cheb_order", config.astgcn.cheb_order);
    AppendInt(&out, "astgcn.time_kernel", config.astgcn.time_kernel);
    AppendDouble(&out, "astgcn.dropout", config.astgcn.dropout);
  } else if (config.family == "MTGNN") {
    AppendInt(&out, "mtgnn.residual_channels", config.mtgnn.residual_channels);
    AppendInt(&out, "mtgnn.conv_channels", config.mtgnn.conv_channels);
    AppendInt(&out, "mtgnn.skip_channels", config.mtgnn.skip_channels);
    AppendInt(&out, "mtgnn.end_channels", config.mtgnn.end_channels);
    AppendInt(&out, "mtgnn.layers", config.mtgnn.layers);
    AppendInt(&out, "mtgnn.gcn_depth", config.mtgnn.gcn_depth);
    AppendDouble(&out, "mtgnn.prop_beta", config.mtgnn.prop_beta);
    AppendDouble(&out, "mtgnn.dropout", config.mtgnn.dropout);
    AppendInt(&out, "mtgnn.use_graph_learning",
              config.mtgnn.use_graph_learning ? 1 : 0);
    AppendLine(&out, "mtgnn.learner_kind",
               LearnerKindName(config.mtgnn.learner_kind));
    AppendInt(&out, "mtgnn.embedding_dim", config.mtgnn.embedding_dim);
    AppendDouble(&out, "mtgnn.saturation_alpha",
                 config.mtgnn.saturation_alpha);
    AppendInt(&out, "mtgnn.top_k", config.mtgnn.top_k);
    AppendDouble(&out, "mtgnn.static_prior_weight",
                 config.mtgnn.static_prior_weight);
  }
  if (config.adjacency.has_value()) {
    AppendInt(&out, "adjacency.num_nodes", config.adjacency->num_nodes());
    std::vector<std::string> cells;
    cells.reserve(config.adjacency->values().size());
    for (double v : config.adjacency->values()) {
      cells.push_back(FormatExact(v));
    }
    AppendLine(&out, "adjacency.values", StrJoin(cells, ","));
  }
  return out;
}

Result<ModelConfig> ParseModelConfig(const std::string& text) {
  ModelConfig config;
  int64_t adjacency_nodes = 0;
  std::vector<double> adjacency_values;
  for (const std::string& raw : StrSplit(text, '\n')) {
    std::string line = StrTrim(raw);
    if (line.empty()) continue;
    size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument(
          StrCat("model config line missing '=': ", line));
    }
    std::string key = line.substr(0, eq);
    std::string value = line.substr(eq + 1);
    bool ok = true;
    if (key == "family") {
      config.family = value;
    } else if (key == "num_variables") {
      ok = SetInt(value, &config.num_variables);
    } else if (key == "input_length") {
      ok = SetInt(value, &config.input_length);
    } else if (key == "lstm.hidden_units") {
      ok = SetInt(value, &config.lstm.hidden_units);
    } else if (key == "lstm.dropout") {
      ok = SetDouble(value, &config.lstm.dropout);
    } else if (key == "var.ridge") {
      ok = SetDouble(value, &config.var.ridge);
    } else if (key == "a3tgcn.hidden_units") {
      ok = SetInt(value, &config.a3tgcn.hidden_units);
    } else if (key == "a3tgcn.dropout") {
      ok = SetDouble(value, &config.a3tgcn.dropout);
    } else if (key == "astgcn.num_blocks") {
      ok = SetInt(value, &config.astgcn.num_blocks);
    } else if (key == "astgcn.hidden_units") {
      ok = SetInt(value, &config.astgcn.hidden_units);
    } else if (key == "astgcn.cheb_order") {
      ok = SetInt(value, &config.astgcn.cheb_order);
    } else if (key == "astgcn.time_kernel") {
      ok = SetInt(value, &config.astgcn.time_kernel);
    } else if (key == "astgcn.dropout") {
      ok = SetDouble(value, &config.astgcn.dropout);
    } else if (key == "mtgnn.residual_channels") {
      ok = SetInt(value, &config.mtgnn.residual_channels);
    } else if (key == "mtgnn.conv_channels") {
      ok = SetInt(value, &config.mtgnn.conv_channels);
    } else if (key == "mtgnn.skip_channels") {
      ok = SetInt(value, &config.mtgnn.skip_channels);
    } else if (key == "mtgnn.end_channels") {
      ok = SetInt(value, &config.mtgnn.end_channels);
    } else if (key == "mtgnn.layers") {
      ok = SetInt(value, &config.mtgnn.layers);
    } else if (key == "mtgnn.gcn_depth") {
      ok = SetInt(value, &config.mtgnn.gcn_depth);
    } else if (key == "mtgnn.prop_beta") {
      ok = SetDouble(value, &config.mtgnn.prop_beta);
    } else if (key == "mtgnn.dropout") {
      ok = SetDouble(value, &config.mtgnn.dropout);
    } else if (key == "mtgnn.use_graph_learning") {
      int64_t flag = 0;
      ok = SetInt(value, &flag);
      config.mtgnn.use_graph_learning = flag != 0;
    } else if (key == "mtgnn.learner_kind") {
      if (value == "embedding") {
        config.mtgnn.learner_kind = GraphLearnerKind::kEmbedding;
      } else if (value == "edge_logits") {
        config.mtgnn.learner_kind = GraphLearnerKind::kEdgeLogits;
      } else {
        ok = false;
      }
    } else if (key == "mtgnn.embedding_dim") {
      ok = SetInt(value, &config.mtgnn.embedding_dim);
    } else if (key == "mtgnn.saturation_alpha") {
      ok = SetDouble(value, &config.mtgnn.saturation_alpha);
    } else if (key == "mtgnn.top_k") {
      ok = SetInt(value, &config.mtgnn.top_k);
    } else if (key == "mtgnn.static_prior_weight") {
      ok = SetDouble(value, &config.mtgnn.static_prior_weight);
    } else if (key == "adjacency.num_nodes") {
      ok = SetInt(value, &adjacency_nodes);
    } else if (key == "adjacency.values") {
      for (const std::string& cell : StrSplit(value, ',')) {
        double v = 0.0;
        if (!ParseDouble(cell, &v)) {
          return Status::InvalidArgument(
              StrCat("bad adjacency value in model config: ", cell));
        }
        adjacency_values.push_back(v);
      }
    } else {
      return Status::InvalidArgument(
          StrCat("unknown model config key: ", key));
    }
    if (!ok) {
      return Status::InvalidArgument(
          StrCat("bad model config value for ", key, ": ", value));
    }
  }
  if (adjacency_nodes > 0) {
    if (static_cast<int64_t>(adjacency_values.size()) !=
        adjacency_nodes * adjacency_nodes) {
      return Status::InvalidArgument(
          StrCat("model config adjacency has ", adjacency_values.size(),
                 " values, expected ", adjacency_nodes * adjacency_nodes));
    }
    graph::AdjacencyMatrix adjacency(adjacency_nodes);
    adjacency.mutable_values() = std::move(adjacency_values);
    config.adjacency = std::move(adjacency);
  }
  if (config.family.empty()) {
    return Status::InvalidArgument("model config has no family");
  }
  return config;
}

Result<std::unique_ptr<Forecaster>> CreateForecaster(
    const ModelConfig& config, Rng* rng) {
  EMAF_CHECK(rng != nullptr);
  if (config.num_variables <= 0 || config.input_length <= 0) {
    return Status::InvalidArgument(
        StrCat("model config needs positive num_variables/input_length, got ",
               config.num_variables, "/", config.input_length));
  }
  const bool needs_graph =
      config.family == "A3TGCN" || config.family == "ASTGCN";
  if (config.adjacency.has_value() &&
      config.adjacency->num_nodes() != config.num_variables) {
    return Status::InvalidArgument(
        StrCat("model config adjacency is over ",
               config.adjacency->num_nodes(), " nodes but num_variables is ",
               config.num_variables));
  }
  if (needs_graph && !config.adjacency.has_value()) {
    return Status::InvalidArgument(
        StrCat(config.family, " requires an adjacency in the model config"));
  }
  if (config.family == "LSTM") {
    return std::unique_ptr<Forecaster>(std::make_unique<LstmForecaster>(
        config.num_variables, config.input_length, config.lstm, rng));
  }
  if (config.family == "VAR") {
    return std::unique_ptr<Forecaster>(std::make_unique<VarForecaster>(
        config.num_variables, config.input_length, config.var));
  }
  if (config.family == "A3TGCN") {
    return std::unique_ptr<Forecaster>(std::make_unique<A3tgcn>(
        *config.adjacency, config.input_length, config.a3tgcn, rng));
  }
  if (config.family == "ASTGCN") {
    return std::unique_ptr<Forecaster>(std::make_unique<Astgcn>(
        *config.adjacency, config.input_length, config.astgcn, rng));
  }
  if (config.family == "MTGNN") {
    if (!config.mtgnn.use_graph_learning && !config.adjacency.has_value()) {
      return Status::InvalidArgument(
          "MTGNN without graph learning requires an adjacency");
    }
    const graph::AdjacencyMatrix* static_adjacency =
        config.adjacency.has_value() ? &*config.adjacency : nullptr;
    return std::unique_ptr<Forecaster>(std::make_unique<Mtgnn>(
        static_adjacency, config.num_variables, config.input_length,
        config.mtgnn, rng));
  }
  return Status::InvalidArgument(
      StrCat("unknown model family: ", config.family));
}

std::unique_ptr<Forecaster> CreateForecasterOrDie(const ModelConfig& config,
                                                  Rng* rng) {
  Result<std::unique_ptr<Forecaster>> model = CreateForecaster(config, rng);
  EMAF_CHECK(model.ok()) << "CreateForecaster(" << config.family
                         << ") failed: " << model.status().ToString();
  return std::move(model).value();
}

Status SaveForecasterSnapshot(Forecaster* model, const ModelConfig& config,
                              const std::string& path) {
  EMAF_CHECK(model != nullptr);
  if (model->name() != config.family) {
    return Status::InvalidArgument(
        StrCat("snapshot config family ", config.family,
               " does not match model ", model->name()));
  }
  return nn::SaveParameters(model, path, SerializeModelConfig(config));
}

Result<std::unique_ptr<Forecaster>> LoadForecasterSnapshot(
    const std::string& path, Rng* rng) {
  Result<std::string> blob = nn::ReadSnapshotConfig(path);
  if (!blob.ok()) return blob.status();
  if (blob.value().empty()) {
    return Status::InvalidArgument(StrCat(
        "snapshot ", path, " has an empty embedded model config; expected ",
        "a snapshot written by models::SaveForecasterSnapshot"));
  }
  Result<ModelConfig> config = ParseModelConfig(blob.value());
  if (!config.ok()) return config.status();
  Result<std::unique_ptr<Forecaster>> model =
      CreateForecaster(config.value(), rng);
  if (!model.ok()) return model.status();
  EMAF_RETURN_IF_ERROR(nn::LoadParameters(model.value().get(), path));
  return model;
}

Status LoadForecasterInto(Forecaster* model, const ModelConfig& expected,
                          const std::string& path) {
  EMAF_CHECK(model != nullptr);
  Result<std::string> blob = nn::ReadSnapshotConfig(path);
  if (!blob.ok()) return blob.status();
  // Blob equality is exact config equality: fixed key order and FormatExact
  // doubles make serialization canonical.
  if (!blob.value().empty() &&
      blob.value() != SerializeModelConfig(expected)) {
    return Status::InvalidArgument(
        StrCat("snapshot config mismatch for ", path,
               ": embedded config does not match the target model"));
  }
  return nn::LoadParameters(model, path);
}

}  // namespace emaf::models
