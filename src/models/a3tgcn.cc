#include "models/a3tgcn.h"

#include <memory>
#include <vector>

#include "common/check.h"
#include "graph/spectral.h"
#include "tensor/ops.h"

namespace emaf::models {

using tensor::Shape;

A3tgcn::A3tgcn(const graph::AdjacencyMatrix& adjacency, int64_t input_length,
               const A3tgcnConfig& config, Rng* rng)
    : num_variables_(adjacency.num_nodes()),
      input_length_(input_length),
      hidden_(config.hidden_units) {
  EMAF_CHECK_GE(input_length, 1);
  Tensor a_hat = graph::SymNormalizedAdjacency(adjacency);
  gate_conv_ = RegisterModule(
      "gate_conv",
      std::make_unique<nn::GcnConv>(a_hat, 1 + hidden_, 2 * hidden_, rng));
  candidate_conv_ = RegisterModule(
      "candidate_conv",
      std::make_unique<nn::GcnConv>(a_hat, 1 + hidden_, hidden_, rng));
  period_attention_ =
      RegisterParameter("period_attention", Tensor::Zeros(Shape{input_length}));
  dropout_ = RegisterModule("dropout",
                            std::make_unique<nn::Dropout>(config.dropout, rng));
  readout_ = RegisterModule(
      "readout", std::make_unique<nn::Linear>(hidden_, 1, /*bias=*/true, rng));
}

Tensor A3tgcn::TgcnStep(const Tensor& x_t, const Tensor& h) {
  // Gates from the graph-convolved concatenation [x_t | h].
  Tensor concat = tensor::Cat({x_t, h}, /*dim=*/2);  // [B, V, 1+H]
  Tensor gates = tensor::Sigmoid(gate_conv_->Forward(concat));  // [B, V, 2H]
  Tensor u = tensor::Slice(gates, -1, 0, hidden_);
  Tensor r = tensor::Slice(gates, -1, hidden_, 2 * hidden_);
  Tensor candidate_in = tensor::Cat({x_t, tensor::Mul(r, h)}, /*dim=*/2);
  Tensor c = tensor::Tanh(candidate_conv_->Forward(candidate_in));
  // h' = u * h + (1 - u) * c.
  return tensor::Add(tensor::Mul(u, h),
                     tensor::Mul(tensor::AddScalar(tensor::Neg(u), 1.0), c));
}

Tensor A3tgcn::Forward(const Tensor& window) {
  CheckWindow(window);
  int64_t batch = window.dim(0);
  Tensor h = Tensor::Zeros(Shape{batch, num_variables_, hidden_});
  std::vector<Tensor> hidden_states;
  hidden_states.reserve(static_cast<size_t>(input_length_));
  for (int64_t t = 0; t < input_length_; ++t) {
    // Step input: all variables at time t as per-node scalar features.
    Tensor x_t = tensor::Select(window, 1, t);          // [B, V]
    x_t = tensor::Unsqueeze(x_t, 2);                    // [B, V, 1]
    h = TgcnStep(x_t, h);
    hidden_states.push_back(h);
  }
  // Attention over periods: context = sum_t softmax(a)_t * h_t.
  Tensor probs = tensor::Softmax(*period_attention_, 0);  // [L]
  Tensor context;
  for (int64_t t = 0; t < input_length_; ++t) {
    Tensor weight = tensor::Select(probs, 0, t);  // scalar tensor
    Tensor weighted =
        tensor::Mul(hidden_states[static_cast<size_t>(t)],
                    tensor::Reshape(weight, Shape{1, 1, 1}));
    context = context.defined() ? tensor::Add(context, weighted) : weighted;
  }
  context = dropout_->Forward(context);          // [B, V, H]
  Tensor out = readout_->Forward(context);       // [B, V, 1]
  return tensor::Squeeze(out, 2);                // [B, V]
}

}  // namespace emaf::models
