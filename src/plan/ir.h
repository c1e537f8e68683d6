// The compiled-plan IR (DESIGN.md, "Compiled plans").
//
// A Plan is a flat instruction list over numbered register slots plus a
// table of constants captured at record time (parameters, adjacency
// operators, parameter-only subgraph outputs). Register 0 is the request
// window; every other register is written exactly once by one instruction
// (SSA over a dense register file), and a release list on each
// instruction drops registers after their last use so the backing arena
// buffers recycle within a single request, exactly like the module path's
// intermediates dying as the forward walks the graph.
//
// Slot references are signed: ref >= 0 names a register, ref < 0 names
// constants[-1 - ref]. The sentinel kNoSlot sits far outside both ranges
// and marks an absent operand (Conv2d without bias).
//
// Every opcode is one recorded tensor op: the interpreter replays each
// instruction through the free tensor-op function the module forward
// called, so plan and module run the same arithmetic.

#ifndef EMAF_PLAN_IR_H_
#define EMAF_PLAN_IR_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "tensor/shape.h"
#include "tensor/tensor.h"

namespace emaf::plan {

enum class OpCode : uint8_t {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMaximum,
  kMinimum,
  kNeg,
  kExp,
  kLog,
  kSqrt,
  kAbs,
  kPow,        // s0 = exponent
  kClamp,      // s0 = low, s1 = high
  kAddScalar,  // s0 = addend
  kMulScalar,  // s0 = factor
  kRelu,
  kLeakyRelu,  // s0 = negative_slope
  kElu,        // s0 = alpha
  kSigmoid,
  kTanh,
  kSoftmax,     // ints = {axis}
  kLogSoftmax,  // ints = {axis}
  kMatMul,
  kSumTo,        // ints = target shape dims (empty = rank-0)
  kReshape,      // ints = output shape dims
  kPermute,      // ints = permutation
  kSlice,        // ints = {axis, start, end}
  kCat,          // ints = {axis}
  kPad,          // ints = {before_0, after_0, ...}
  kBroadcastTo,  // ints = output shape dims
  kConv2d,       // inputs = {input, weight[, bias]}; ints = {stride_h,
                 // stride_w, pad_h, pad_w, dilation_h, dilation_w}
};

const char* OpCodeName(OpCode op);

// ref >= 0: register id (0 = request input). ref < 0: constants[-1-ref].
using SlotRef = int32_t;
inline constexpr SlotRef kInputReg = 0;
inline constexpr SlotRef kNoSlot = std::numeric_limits<int32_t>::min();

inline bool IsRegister(SlotRef ref) { return ref >= 0; }
inline bool IsConstant(SlotRef ref) { return ref < 0 && ref != kNoSlot; }
inline int32_t ConstantIndex(SlotRef ref) { return -1 - ref; }
inline SlotRef ConstantRef(int32_t index) { return -1 - index; }

struct Instruction {
  OpCode op;
  std::vector<SlotRef> inputs;
  int32_t out = 0;  // register written (never a constant)
  // Resolved at record time; the disassembly prints it.
  tensor::Shape out_shape;
  tensor::Scalar s0 = 0.0;
  tensor::Scalar s1 = 0.0;
  std::vector<int64_t> ints;
  std::vector<int32_t> release;   // registers dead after this instruction
};

struct Plan {
  std::string family;            // Forecaster::name() at record time
  tensor::Shape input_shape;     // the window shape the plan was built for
  tensor::Shape output_shape;
  int32_t num_regs = 1;          // register file size (>= 1: the input)
  SlotRef output = kInputReg;    // where the forecast lands
  std::vector<tensor::Tensor> constants;
  std::vector<Instruction> instructions;

  // Compile-time accounting (surfaced by the disassembly, golden-pinned).
  int64_t recorded_ops = 0;      // leaf ops in the raw recording
  int64_t folded_constants = 0;  // ops constant-folded away
};

}  // namespace emaf::plan

#endif  // EMAF_PLAN_IR_H_
