// MTGNN: Multivariate Time Series Forecasting with Graph Neural Networks
// (Wu et al. 2020) — the paper's best-performing model and the source of
// the learned graphs evaluated in Experiment C.
//
// Architecture: start conv -> L layers of {dilated-inception gated temporal
// convolution, mix-hop graph propagation in both edge directions, residual,
// layer norm} with per-layer skip connections that collapse time, then two
// 1x1 end convolutions. The graph-learning module builds a sparse directed
// adjacency from trainable node embeddings; optionally a static similarity
// graph is added as a prior ("starting from an initial graph structure",
// Section V-C). With graph learning disabled the model runs purely on the
// provided static graph.
//
// Deviation from the original (documented in DESIGN.md): the inception
// kernel set is {2, 3} with left padding so the short EMA windows (L <= 10)
// keep their length; top-k defaults to max(3, V/5) instead of 20.

#ifndef EMAF_MODELS_MTGNN_H_
#define EMAF_MODELS_MTGNN_H_

#include <memory>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "graph/adjacency.h"
#include "models/forecaster.h"
#include "nn/conv.h"
#include "nn/dropout.h"
#include "nn/graph_conv.h"
#include "nn/layer_norm.h"
#include "nn/linear.h"

namespace emaf::models {

// Which graph-learning module MTGNN uses (paper Section VII-C suggests
// comparing MTGNN's learner against approaches like GTS/NRI).
enum class GraphLearnerKind {
  // MTGNN's original antisymmetric node-embedding learner (Wu et al.).
  kEmbedding,
  // GTS-inspired direct edge parameterization: one logit per directed
  // edge, adjacency = sigmoid(logit), optionally initialized from the
  // static graph. A deterministic relaxation of GTS's Bernoulli edges
  // (Shang et al. 2021).
  kEdgeLogits,
};

struct MtgnnConfig {
  int64_t residual_channels = 32;
  int64_t conv_channels = 32;
  int64_t skip_channels = 32;
  int64_t end_channels = 64;
  int64_t layers = 2;
  int64_t gcn_depth = 2;
  double prop_beta = 0.05;  // mix-hop input-retain ratio
  double dropout = 0.3;

  bool use_graph_learning = true;
  GraphLearnerKind learner_kind = GraphLearnerKind::kEmbedding;
  int64_t embedding_dim = 10;
  double saturation_alpha = 3.0;
  // Neighbours kept per node in the learned graph; 0 = max(3, V/5).
  int64_t top_k = 0;
  // Weight of the static graph added to the learned one (0 = pure
  // learning, i.e. the "random start" condition when no static graph is
  // given).
  double static_prior_weight = 1.0;
};

// Interface of graph-learning modules: produce a non-negative [V, V]
// adjacency whose entries carry gradients back into the module.
class GraphLearnerBase : public nn::Module {
 public:
  virtual Tensor Forward() = 0;
};

// Learns a sparse directed adjacency from node embeddings (MTGNN eq. 3-6).
class GraphLearner : public GraphLearnerBase {
 public:
  GraphLearner(int64_t num_nodes, int64_t embedding_dim, double alpha,
               int64_t top_k, Rng* rng);

  // Non-negative [V, V] adjacency; gradients flow into the embeddings.
  Tensor Forward() override;

 private:
  int64_t num_nodes_;
  double alpha_;
  int64_t top_k_;
  Tensor* emb1_;
  Tensor* emb2_;
  nn::Linear* lin1_;
  nn::Linear* lin2_;
};

// GTS-inspired learner: a free logit per directed edge, adjacency =
// sigmoid(logit) with the diagonal masked and per-row top-k retention.
// When a static graph is supplied its (max-normalized) weights initialize
// the edge probabilities, i.e. "starting from an initial graph structure".
class EdgeLogitGraphLearner : public GraphLearnerBase {
 public:
  EdgeLogitGraphLearner(int64_t num_nodes, int64_t top_k,
                        const graph::AdjacencyMatrix* initial, Rng* rng);

  Tensor Forward() override;

 private:
  int64_t num_nodes_;
  int64_t top_k_;
  Tensor off_diagonal_mask_;  // constant (1 - I)
  Tensor* logits_;
};

class Mtgnn : public Forecaster {
 public:
  // `static_adjacency` may be null: pure graph learning from random
  // initialization. With graph learning disabled it must be provided.
  Mtgnn(const graph::AdjacencyMatrix* static_adjacency, int64_t num_variables,
        int64_t input_length, const MtgnnConfig& config, Rng* rng);

  Tensor Forward(const Tensor& window) override;
  std::string name() const override { return "MTGNN"; }
  int64_t num_variables() const override { return num_variables_; }
  int64_t input_length() const override { return input_length_; }

  // The adjacency currently used by the model (learned + prior), evaluated
  // without gradients. This is what Experiment C feeds to the other GNNs.
  graph::AdjacencyMatrix CurrentAdjacency();

 private:
  class InceptionConv;

  // Combined adjacency (learned and/or static), before normalization.
  Tensor ComputeAdjacency();

  int64_t num_variables_;
  int64_t input_length_;
  MtgnnConfig config_;
  Tensor static_adjacency_;  // undefined when not provided
  Tensor identity_;          // cached [V, V] eye
  GraphLearnerBase* learner_ = nullptr;
  nn::Conv2dLayer* start_conv_;
  std::vector<InceptionConv*> filter_convs_;
  std::vector<InceptionConv*> gate_convs_;
  std::vector<nn::Conv2dLayer*> skip_convs_;
  std::vector<nn::MixProp*> mixprop_fwd_;
  std::vector<nn::MixProp*> mixprop_bwd_;
  std::vector<nn::LayerNorm*> layer_norms_;
  nn::Conv2dLayer* skip_start_;
  nn::Conv2dLayer* skip_end_;
  nn::Conv2dLayer* end_conv1_;
  nn::Conv2dLayer* end_conv2_;
  nn::Dropout* dropout_;
};

}  // namespace emaf::models

#endif  // EMAF_MODELS_MTGNN_H_
