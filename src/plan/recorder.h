// Plan recording: one warm-up forward, compiled to a static Plan.
//
// Compile() runs `model->Forward(window)` once under a tensor::plan_hook
// sink (tape-free, arena routing suspended so captured tensors own their
// storage) and lowers the recorded leaf-op stream:
//
//   1. capture   — every tensor the stream consumes that no recorded op
//                  produced (parameters, baked adjacency operators, ...)
//                  becomes a constant; the window is register 0;
//   2. fold      — an op whose inputs are all constants is dropped and
//                  its recorded output becomes a constant (this swallows
//                  parameter-only subgraphs like MTGNN's graph learner);
//   3. DCE       — ops whose results never reach the output are dropped;
//   4. allocate  — each surviving op becomes one instruction; values get
//                  dense register ids and per-instruction release lists
//                  (arena buffers recycle within a request).
//
// The compiled plan is then *verified* before it is returned: it must
// reproduce the warm-up output bitwise, and — on a perturbed copy of the
// window — a fresh module forward bitwise. The second check is the guard
// against input-dependent data being wrongly captured as a constant (an
// unhooked op would be invisible to the recorder, not silently wrong at
// serve time): any such plan fails Compile and the caller stays on the
// module path. kFailedPrecondition is the expected failure for forwards the
// recorder cannot express; it is a fallback signal, not a bug.

#ifndef EMAF_PLAN_RECORDER_H_
#define EMAF_PLAN_RECORDER_H_

#include <memory>

#include "common/status.h"
#include "models/forecaster.h"
#include "plan/ir.h"
#include "tensor/tensor.h"

namespace emaf::plan {

Result<std::shared_ptr<const Plan>> Compile(models::Forecaster* model,
                                            const tensor::Tensor& window);

}  // namespace emaf::plan

#endif  // EMAF_PLAN_RECORDER_H_
