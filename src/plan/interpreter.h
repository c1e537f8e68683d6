// Plan execution: a flat loop over Instruction, no tape, no virtual
// dispatch, no graph walk.
//
// Every instruction replays through exactly the free tensor-op function
// the module forward called — same kernels, same floating-point order,
// hence bitwise-identical bytes at any thread-pool size (PR-1
// determinism). Outputs draw from the caller's arena exactly like module
// intermediates, and each instruction's release list returns dead
// registers to the pool mid-request.

#ifndef EMAF_PLAN_INTERPRETER_H_
#define EMAF_PLAN_INTERPRETER_H_

#include "common/status.h"
#include "plan/ir.h"
#include "tensor/arena.h"
#include "tensor/tensor.h"

namespace emaf::plan {

// Runs `plan` on `input` (must match plan.input_shape exactly — the cache
// keys plans by shape). `arena` may be null (plain heap). Bumps
// plan.instructions_total once per call.
Result<tensor::Tensor> Execute(const Plan& plan, const tensor::Tensor& input,
                               tensor::InferenceArena* arena);

}  // namespace emaf::plan

#endif  // EMAF_PLAN_INTERPRETER_H_
