#include "plan/ir.h"

namespace emaf::plan {

const char* OpCodeName(OpCode op) {
  switch (op) {
    case OpCode::kAdd: return "Add";
    case OpCode::kSub: return "Sub";
    case OpCode::kMul: return "Mul";
    case OpCode::kDiv: return "Div";
    case OpCode::kMaximum: return "Maximum";
    case OpCode::kMinimum: return "Minimum";
    case OpCode::kNeg: return "Neg";
    case OpCode::kExp: return "Exp";
    case OpCode::kLog: return "Log";
    case OpCode::kSqrt: return "Sqrt";
    case OpCode::kAbs: return "Abs";
    case OpCode::kPow: return "Pow";
    case OpCode::kClamp: return "Clamp";
    case OpCode::kAddScalar: return "AddScalar";
    case OpCode::kMulScalar: return "MulScalar";
    case OpCode::kRelu: return "Relu";
    case OpCode::kLeakyRelu: return "LeakyRelu";
    case OpCode::kElu: return "Elu";
    case OpCode::kSigmoid: return "Sigmoid";
    case OpCode::kTanh: return "Tanh";
    case OpCode::kSoftmax: return "Softmax";
    case OpCode::kLogSoftmax: return "LogSoftmax";
    case OpCode::kMatMul: return "MatMul";
    case OpCode::kSumTo: return "SumTo";
    case OpCode::kReshape: return "Reshape";
    case OpCode::kPermute: return "Permute";
    case OpCode::kSlice: return "Slice";
    case OpCode::kCat: return "Cat";
    case OpCode::kPad: return "Pad";
    case OpCode::kBroadcastTo: return "BroadcastTo";
    case OpCode::kConv2d: return "Conv2d";
  }
  return "?";
}

}  // namespace emaf::plan
