// Graph convolution layers.
//
// The graph operator (symmetric-normalized adjacency, Chebyshev polynomial
// stack) is supplied as constant tensors at construction — produced by
// emaf::graph::Spectral* helpers — so these layers stay independent of the
// graph-construction subsystem.

#ifndef EMAF_NN_GRAPH_CONV_H_
#define EMAF_NN_GRAPH_CONV_H_

#include <vector>

#include "common/rng.h"
#include "nn/module.h"

namespace emaf::nn {

// First-order GCN layer (Kipf & Welling): y = A_hat x W + b, with
// A_hat = D^-1/2 (A + I) D^-1/2 precomputed by the caller.
class GcnConv : public Module {
 public:
  GcnConv(Tensor normalized_adjacency, int64_t in_features,
          int64_t out_features, Rng* rng);

  // x: [..., V, in] -> [..., V, out].
  Tensor Forward(const Tensor& x);

  int64_t num_nodes() const { return a_hat_.dim(0); }

 private:
  Tensor a_hat_;  // [V, V], constant
  int64_t in_features_;
  int64_t out_features_;
  Tensor* weight_;
  Tensor* bias_;
};

// K-order Chebyshev graph convolution (Defferrard et al.):
//   y = sum_k T_k(L_scaled) x W_k + b,
// where the polynomial stack {T_k} is precomputed. Optionally each T_k is
// modulated elementwise by a (batched) spatial attention matrix, as in
// ASTGCN.
class ChebConv : public Module {
 public:
  // `polynomials`: K tensors of shape [V, V].
  ChebConv(std::vector<Tensor> polynomials, int64_t in_features,
           int64_t out_features, Rng* rng);

  // x: [B, V, in]; attention (optional): [B, V, V] -> [B, V, out].
  Tensor Forward(const Tensor& x, const Tensor& attention = Tensor());

  int64_t order() const { return static_cast<int64_t>(polynomials_.size()); }

 private:
  std::vector<Tensor> polynomials_;  // constants
  int64_t in_features_;
  int64_t out_features_;
  Tensor* weight_;  // [K, in, out]
  Tensor* bias_;    // [out]
};

// MTGNN mix-hop propagation (Wu et al. 2020):
//   H_0 = x;  H_k = beta * x + (1 - beta) * A_norm H_{k-1};
//   y = concat(H_0..H_K) W.
// The adjacency is supplied per call so the layer works with both static
// and freshly-learned graphs.
class MixProp : public Module {
 public:
  MixProp(int64_t in_channels, int64_t out_channels, int64_t depth,
          double beta, Rng* rng);

  // x: [B, C, V, T]; adjacency_norm: [V, V] (row-normalized, may track
  // gradients when produced by a graph-learning module).
  Tensor Forward(const Tensor& x, const Tensor& adjacency_norm);

 private:
  int64_t in_channels_;
  int64_t out_channels_;
  int64_t depth_;
  double beta_;
  Tensor* weight_;  // [(depth+1) * in, out] applied on channel axis
};

}  // namespace emaf::nn

#endif  // EMAF_NN_GRAPH_CONV_H_
