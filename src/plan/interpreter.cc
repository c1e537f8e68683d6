#include "plan/interpreter.h"

#include <utility>
#include <vector>

#include "common/check.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "tensor/autograd.h"
#include "tensor/ops.h"

namespace emaf::plan {

using tensor::Scalar;
using tensor::Shape;
using tensor::Tensor;

Result<Tensor> Execute(const Plan& plan, const Tensor& input,
                       tensor::InferenceArena* arena) {
  if (!(input.shape() == plan.input_shape)) {
    return Status::InvalidArgument(
        StrCat("plan: ", plan.family, " compiled for input ",
               plan.input_shape.ToString(), ", got ",
               input.shape().ToString()));
  }
  EMAF_METRIC_COUNTER_ADD("plan.instructions_total",
                          static_cast<int64_t>(plan.instructions.size()));

  tensor::NoGradGuard guard;
  tensor::ArenaScope scope(arena);
  std::vector<Tensor> regs(plan.num_regs);
  regs[kInputReg] = input;
  auto resolve = [&](SlotRef ref) -> const Tensor& {
    return IsRegister(ref) ? regs[ref] : plan.constants[ConstantIndex(ref)];
  };

  for (const Instruction& ins : plan.instructions) {
    Tensor out;
    switch (ins.op) {
      case OpCode::kAdd:
        out = tensor::Add(resolve(ins.inputs[0]), resolve(ins.inputs[1]));
        break;
      case OpCode::kSub:
        out = tensor::Sub(resolve(ins.inputs[0]), resolve(ins.inputs[1]));
        break;
      case OpCode::kMul:
        out = tensor::Mul(resolve(ins.inputs[0]), resolve(ins.inputs[1]));
        break;
      case OpCode::kDiv:
        out = tensor::Div(resolve(ins.inputs[0]), resolve(ins.inputs[1]));
        break;
      case OpCode::kMaximum:
        out = tensor::Maximum(resolve(ins.inputs[0]), resolve(ins.inputs[1]));
        break;
      case OpCode::kMinimum:
        out = tensor::Minimum(resolve(ins.inputs[0]), resolve(ins.inputs[1]));
        break;
      case OpCode::kNeg:
        out = tensor::Neg(resolve(ins.inputs[0]));
        break;
      case OpCode::kExp:
        out = tensor::Exp(resolve(ins.inputs[0]));
        break;
      case OpCode::kLog:
        out = tensor::Log(resolve(ins.inputs[0]));
        break;
      case OpCode::kSqrt:
        out = tensor::Sqrt(resolve(ins.inputs[0]));
        break;
      case OpCode::kAbs:
        out = tensor::Abs(resolve(ins.inputs[0]));
        break;
      case OpCode::kPow:
        out = tensor::Pow(resolve(ins.inputs[0]), ins.s0);
        break;
      case OpCode::kClamp:
        out = tensor::Clamp(resolve(ins.inputs[0]), ins.s0, ins.s1);
        break;
      case OpCode::kAddScalar:
        out = tensor::AddScalar(resolve(ins.inputs[0]), ins.s0);
        break;
      case OpCode::kMulScalar:
        out = tensor::MulScalar(resolve(ins.inputs[0]), ins.s0);
        break;
      case OpCode::kRelu:
        out = tensor::Relu(resolve(ins.inputs[0]));
        break;
      case OpCode::kLeakyRelu:
        out = tensor::LeakyRelu(resolve(ins.inputs[0]), ins.s0);
        break;
      case OpCode::kElu:
        out = tensor::Elu(resolve(ins.inputs[0]), ins.s0);
        break;
      case OpCode::kSigmoid:
        out = tensor::Sigmoid(resolve(ins.inputs[0]));
        break;
      case OpCode::kTanh:
        out = tensor::Tanh(resolve(ins.inputs[0]));
        break;
      case OpCode::kSoftmax:
        out = tensor::Softmax(resolve(ins.inputs[0]), ins.ints[0]);
        break;
      case OpCode::kLogSoftmax:
        out = tensor::LogSoftmax(resolve(ins.inputs[0]), ins.ints[0]);
        break;
      case OpCode::kMatMul:
        out = tensor::MatMul(resolve(ins.inputs[0]), resolve(ins.inputs[1]));
        break;
      case OpCode::kSumTo:
        out = tensor::internal::SumTo(resolve(ins.inputs[0]),
                                      Shape(ins.ints));
        break;
      case OpCode::kReshape:
        out = tensor::Reshape(resolve(ins.inputs[0]), Shape(ins.ints));
        break;
      case OpCode::kPermute:
        out = tensor::Permute(resolve(ins.inputs[0]), ins.ints);
        break;
      case OpCode::kSlice:
        out = tensor::Slice(resolve(ins.inputs[0]), ins.ints[0], ins.ints[1],
                            ins.ints[2]);
        break;
      case OpCode::kCat: {
        std::vector<Tensor> parts;
        parts.reserve(ins.inputs.size());
        for (SlotRef ref : ins.inputs) parts.push_back(resolve(ref));
        out = tensor::Cat(parts, ins.ints[0]);
        break;
      }
      case OpCode::kPad: {
        std::vector<std::pair<int64_t, int64_t>> padding;
        padding.reserve(ins.ints.size() / 2);
        for (size_t i = 0; i + 1 < ins.ints.size(); i += 2) {
          padding.emplace_back(ins.ints[i], ins.ints[i + 1]);
        }
        out = tensor::Pad(resolve(ins.inputs[0]), padding);
        break;
      }
      case OpCode::kBroadcastTo:
        out = tensor::BroadcastTo(resolve(ins.inputs[0]), Shape(ins.ints));
        break;
      case OpCode::kConv2d: {
        tensor::Conv2dOptions options;
        options.stride_h = ins.ints[0];
        options.stride_w = ins.ints[1];
        options.pad_h = ins.ints[2];
        options.pad_w = ins.ints[3];
        options.dilation_h = ins.ints[4];
        options.dilation_w = ins.ints[5];
        Tensor bias;  // stays undefined when the record had no bias
        if (ins.inputs.size() > 2 && ins.inputs[2] != kNoSlot) {
          bias = resolve(ins.inputs[2]);
        }
        out = tensor::Conv2d(resolve(ins.inputs[0]), resolve(ins.inputs[1]),
                             bias, options);
        break;
      }
    }
    regs[ins.out] = std::move(out);
    for (int32_t dead : ins.release) regs[dead] = Tensor();
  }

  Tensor result = resolve(plan.output);
  EMAF_CHECK(result.impl() != nullptr);
  return result;
}

}  // namespace emaf::plan
