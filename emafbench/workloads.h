// The four benchmark workloads. Each sets up its inputs from the seed,
// measures for options.seconds, checks every output, and fills `result`:
// the end-to-end metrics in an untraced run, the per-layer metrics (and
// the Chrome trace) in a traced one.

#ifndef EMAFBENCH_WORKLOADS_H_
#define EMAFBENCH_WORKLOADS_H_

#include "harness.h"

namespace emafbench {

void RunTrainGrid(const Options& options, Result* result);
void RunServeFamilies(const Options& options, Result* result);
void RunServeChurn(const Options& options, Result* result);
void RunOnlineUpdate(const Options& options, Result* result);

}  // namespace emafbench

#endif  // EMAFBENCH_WORKLOADS_H_
