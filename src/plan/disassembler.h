// Deterministic text rendering of a Plan, for humans and for the golden
// disassembly test (tests/golden/plan_*.txt): instruction-selection or
// folding drift shows up as a diff, not a silent perf change.

#ifndef EMAF_PLAN_DISASSEMBLER_H_
#define EMAF_PLAN_DISASSEMBLER_H_

#include <string>

#include "plan/ir.h"

namespace emaf::plan {

std::string Disassemble(const Plan& plan);

}  // namespace emaf::plan

#endif  // EMAF_PLAN_DISASSEMBLER_H_
