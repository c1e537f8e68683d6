// OnlinePipeline: the closed loop from a live observation to a served
// forecast (DESIGN.md, "Online ingestion & hot-swap").
//
// UpdateIndividual(id) runs the whole chain for one individual:
//
//   ObservationLog tail  ->  WindowedGraphBuilder (re-derived adjacency)
//     ->  OnlineTrainer (warm start from the snapshot the store serves)
//     ->  SnapshotPublisher (new `<id>.v<N>.snapshot` + MANIFEST rewrite)
//     ->  ModelStore::Publish (zero-downtime hot swap)
//
// Each stage can refuse — too few rows, a diverged fine-tune, an injected
// publish fault — and a refusal anywhere leaves the previously published
// version serving untouched: the pipeline never mutates the store before
// the publisher has durably landed the new file.
//
// The graph stage is skipped (not failed) when the individual's window is
// still below the builder's minimum or the snapshot's family bakes no
// graph; the fine-tune then keeps the snapshot's own adjacency.
//
// Instrumentation: online.pipeline.updates_total / refused_total
// (counters), online.pipeline.update_seconds (histogram — the whole
// update's latency).

#ifndef EMAF_ONLINE_PIPELINE_H_
#define EMAF_ONLINE_PIPELINE_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "online/observation_log.h"
#include "online/online_trainer.h"
#include "online/publisher.h"
#include "online/windowed_graph.h"
#include "serve/model_store.h"

namespace emaf::online {

struct OnlinePipelineOptions {
  WindowedGraphOptions graph;
  OnlineTrainOptions train;
  // When false the fine-tune always keeps the snapshot's baked adjacency
  // (graph re-derivation off — the "static graph" ablation arm).
  bool rederive_graph = true;
};

struct UpdateOutcome {
  uint64_t version = 0;      // version just published and swapped in
  std::string path;          // its snapshot file
  int64_t rows_used = 0;     // log rows the fine-tune saw
  bool graph_rederived = false;
  int64_t edges_changed = -1;  // vs. previous build; -1 when unknown
  double final_loss = 0.0;
  int64_t attempts = 1;
};

class OnlinePipeline {
 public:
  // Borrows all four collaborators; they must outlive the pipeline. The
  // publisher's directory is typically the store's snapshot directory, so
  // a store opened later on the same directory (its MANIFEST) serves the
  // same mapping this pipeline pushes into `store` with Publish.
  OnlinePipeline(ObservationLog* log, SnapshotPublisher* publisher,
                 serve::ModelStore* store, OnlinePipelineOptions options);

  // Runs the full update chain for `id`. Error codes are the stages' own
  // (see each header); whatever the stage, a failure means the previous
  // snapshot version is still the one serving.
  Result<UpdateOutcome> UpdateIndividual(const std::string& id);

  const OnlinePipelineOptions& options() const { return options_; }

 private:
  ObservationLog* log_;
  SnapshotPublisher* publisher_;
  serve::ModelStore* store_;
  OnlinePipelineOptions options_;
  WindowedGraphBuilder graph_builder_;
  OnlineTrainer trainer_;
};

}  // namespace emaf::online

#endif  // EMAF_ONLINE_PIPELINE_H_
