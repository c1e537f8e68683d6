#include "plan/disassembler.h"

#include <sstream>

#include "common/string_util.h"

namespace emaf::plan {
namespace {

void AppendRef(std::ostringstream* out, SlotRef ref) {
  if (ref == kNoSlot) {
    *out << "_";
  } else if (IsConstant(ref)) {
    *out << "c" << ConstantIndex(ref);
  } else {
    *out << "%" << ref;
  }
}

bool HasScalarParams(OpCode op) {
  switch (op) {
    case OpCode::kPow:
    case OpCode::kAddScalar:
    case OpCode::kMulScalar:
    case OpCode::kLeakyRelu:
    case OpCode::kElu:
      return true;
    default:
      return false;
  }
}

void AppendParams(std::ostringstream* out, OpCode op, double s0, double s1,
                  const std::vector<int64_t>& ints) {
  if (HasScalarParams(op)) *out << ", " << FormatExact(s0);
  if (op == OpCode::kClamp) {
    *out << ", " << FormatExact(s0) << ", " << FormatExact(s1);
  }
  if (!ints.empty()) {
    *out << ", {";
    for (size_t i = 0; i < ints.size(); ++i) {
      if (i > 0) *out << ", ";
      *out << ints[i];
    }
    *out << "}";
  }
}

}  // namespace

std::string Disassemble(const Plan& plan) {
  std::ostringstream out;
  out << "plan " << plan.family << " input=" << plan.input_shape.ToString()
      << " output=" << plan.output_shape.ToString()
      << " regs=" << plan.num_regs << " constants=" << plan.constants.size()
      << " instructions=" << plan.instructions.size() << "\n";
  out << "  recorded=" << plan.recorded_ops
      << " folded=" << plan.folded_constants << "\n";
  for (size_t i = 0; i < plan.constants.size(); ++i) {
    out << "  c" << i << " = const " << plan.constants[i].shape().ToString()
        << "\n";
  }
  for (const Instruction& ins : plan.instructions) {
    out << "  %" << ins.out << " = " << OpCodeName(ins.op) << "(";
    for (size_t i = 0; i < ins.inputs.size(); ++i) {
      if (i > 0) out << ", ";
      AppendRef(&out, ins.inputs[i]);
    }
    AppendParams(&out, ins.op, ins.s0, ins.s1, ins.ints);
    out << ") -> " << ins.out_shape.ToString();
    if (!ins.release.empty()) {
      out << " release";
      for (int32_t reg : ins.release) out << " %" << reg;
    }
    out << "\n";
  }
  out << "  return ";
  AppendRef(&out, plan.output);
  out << "\n";
  return out.str();
}

}  // namespace emaf::plan
