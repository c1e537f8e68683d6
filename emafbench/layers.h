// Layer probes for the traced run: each one times a public entry point of
// one layer directly (tensor kernels, model forward/training, graph
// builders, the wire codec) and records the per-layer metrics.

#ifndef EMAFBENCH_LAYERS_H_
#define EMAFBENCH_LAYERS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "graph/adjacency.h"
#include "harness.h"
#include "models/registry.h"
#include "tensor/tensor.h"

namespace emafbench {

// The five served families, registry spelling, in report order.
const std::vector<std::string>& Families();
// "MTGNN" -> "mtgnn", the metric-name suffix.
std::string Lower(std::string text);

// Registry config for `family` at V variables and input length L; the
// graph families bake `adjacency`.
emaf::models::ModelConfig FamilyConfig(
    const std::string& family, int64_t num_variables, int64_t input_length,
    const emaf::graph::AdjacencyMatrix& adjacency);

// Builds `family` from `config` and fits it on `train`: VAR by its closed
// form, the rest by `epochs` of full-batch Adam.
std::unique_ptr<emaf::models::Forecaster> TrainFamily(
    const emaf::models::ModelConfig& config, const emaf::ts::WindowDataset& train,
    int64_t epochs, uint64_t seed);

// tensor.{matmul,conv2d,permute}_{us,gflops,gbps}.<mode> at MTGNN's
// shapes (V = 26, L = 5, 32 channels) with `batch` windows: batch 1 is the
// serving shape, the training-split size the full-batch training shape.
void ProbeKernels(const std::string& mode, int64_t batch, double budget_s,
                  SpanLog* spans, Result* result);

// core.train_epoch_ms.<family> and core.evaluate_ms on one individual.
void ProbeTraining(const emaf::data::Individual& person, int64_t input_length,
                   int64_t epochs, uint64_t seed, SpanLog* spans,
                   Result* result);

// graph.build_ms.{euc,dtw,knn,corr} over the training region of `person`.
void ProbeGraphBuilds(const emaf::data::Individual& person, int64_t dtw_window,
                      double budget_s, SpanLog* spans, Result* result);

// Median wall time of `fn` in microseconds: at least `min_reps` calls,
// then more until `budget_s` is spent.
template <typename Fn>
double MedianUs(Fn&& fn, int min_reps, double budget_s) {
  std::vector<double> us;
  const Clock::time_point start = Clock::now();
  while (static_cast<int>(us.size()) < min_reps ||
         MsSince(start) < budget_s * 1000) {
    const Clock::time_point t0 = Clock::now();
    fn();
    us.push_back(MsSince(t0) * 1000);
    if (us.size() >= 100000) break;
  }
  return Median(std::move(us));
}

}  // namespace emafbench

#endif  // EMAFBENCH_LAYERS_H_
