#include "plan/recorder.h"

#include <cstring>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "core/evaluator.h"
#include "plan/interpreter.h"
#include "tensor/arena.h"
#include "tensor/autograd.h"
#include "tensor/plan_hook.h"

namespace emaf::plan {
namespace {

using tensor::Scalar;
using tensor::Shape;
using tensor::Tensor;
namespace ph = tensor::plan_hook;

// One recorded leaf op, inputs already resolved to slot refs. `value` is
// the op's SSA id (value 0 is the window; op i produces value i + 1).
struct Node {
  OpCode op;
  std::vector<SlotRef> inputs;
  Scalar s0 = 0.0;
  Scalar s1 = 0.0;
  std::vector<int64_t> ints;
  Shape out_shape;
  Tensor out_tensor;  // the warm-up value; becomes a constant if folded
  int32_t value = 0;
  bool dead = false;
};

// plan_hook::OpKind and OpCode share layout by construction; keep the
// cast checked at both ends.
static_assert(static_cast<int>(ph::OpKind::kAdd) ==
              static_cast<int>(OpCode::kAdd));
static_assert(static_cast<int>(ph::OpKind::kConv2d) ==
              static_cast<int>(OpCode::kConv2d));

class RecordingSink final : public ph::Sink {
 public:
  explicit RecordingSink(const Tensor& window) {
    slots_[window.impl().get()] = 0;
  }

  void Record(ph::OpRecord record) override {
    Node node;
    node.op = static_cast<OpCode>(record.kind);
    node.inputs.reserve(record.inputs.size());
    for (const Tensor& in : record.inputs) node.inputs.push_back(SlotFor(in));
    node.s0 = record.s0;
    node.s1 = record.s1;
    node.ints = std::move(record.ints);
    node.out_shape = record.output.shape();
    node.value = static_cast<int32_t>(nodes_.size()) + 1;
    // Later ops must resolve this output by impl identity; holding the
    // tensor also pins the impl address against reuse while recording.
    slots_[record.output.impl().get()] = node.value;
    node.out_tensor = std::move(record.output);
    nodes_.push_back(std::move(node));
  }

  // The slot a tensor resolves to: a previously recorded value, or a new
  // captured constant (parameters, baked operators, Zeros/Ones fills).
  SlotRef SlotFor(const Tensor& t) {
    if (t.impl() == nullptr) return kNoSlot;  // Conv2d's absent bias
    auto it = slots_.find(t.impl().get());
    if (it != slots_.end()) return it->second;
    SlotRef ref = ConstantRef(static_cast<int32_t>(constants_.size()));
    constants_.push_back(t);
    slots_[t.impl().get()] = ref;
    return ref;
  }

  // Resolves without capturing: kNoSlot when the tensor was never seen.
  SlotRef Lookup(const Tensor& t) const {
    auto it = slots_.find(t.impl().get());
    return it == slots_.end() ? kNoSlot : it->second;
  }

  std::vector<Node>& nodes() { return nodes_; }
  std::vector<Tensor>& constants() { return constants_; }

 private:
  std::unordered_map<const void*, SlotRef> slots_;
  std::vector<Node> nodes_;
  std::vector<Tensor> constants_;
};

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  if (!(a.shape() == b.shape())) return false;
  return std::memcmp(a.raw_data(), b.raw_data(),
                     static_cast<size_t>(a.byte_size())) == 0;
}

}  // namespace

Result<std::shared_ptr<const Plan>> Compile(models::Forecaster* model,
                                            const Tensor& window) {
  EMAF_CHECK(model != nullptr);
  EMAF_CHECK(window.impl() != nullptr);

  // ---- Record the warm-up forward. Arena routing is suspended so every
  // tensor the plan keeps (constants, the verification baseline) owns its
  // storage instead of borrowing a recyclable arena buffer.
  RecordingSink sink(window);
  Tensor recorded_out;
  {
    tensor::ArenaScope no_arena(nullptr);
    ph::ScopedSink scope(&sink);
    recorded_out = core::Predict(model, window);
  }

  std::vector<Node>& nodes = sink.nodes();
  std::vector<Tensor>& constants = sink.constants();
  SlotRef output = sink.Lookup(recorded_out);
  if (output == kNoSlot) {
    return Status::FailedPrecondition(
        StrCat("plan: ", model->name(),
               " forward is opaque to recording (output produced outside "
               "the hooked ops)"));
  }
  const int64_t recorded_ops = static_cast<int64_t>(nodes.size());

  // ---- Constant fold: an op fed only by constants is evaluated once at
  // record time (we already have its value) and dropped. This swallows
  // parameter-only subgraphs — MTGNN's graph learner, A3TGCN's period
  // attention — whole.
  std::vector<SlotRef> value_ref(nodes.size() + 1);
  value_ref[0] = kInputReg;
  for (Node& node : nodes) value_ref[node.value] = node.value;
  int64_t folded = 0;
  for (Node& node : nodes) {
    bool all_const = true;
    for (SlotRef& in : node.inputs) {
      if (IsRegister(in)) in = value_ref[in];  // producer may have folded
      if (IsRegister(in)) all_const = false;
    }
    if (!all_const) continue;
    SlotRef ref = ConstantRef(static_cast<int32_t>(constants.size()));
    constants.push_back(node.out_tensor);
    value_ref[node.value] = ref;
    node.dead = true;
    ++folded;
  }
  if (IsRegister(output)) output = value_ref[output];

  // ---- Dead-code elimination, backwards from the output.
  {
    std::vector<char> live(nodes.size() + 1, 0);
    if (IsRegister(output) && output != kInputReg) live[output] = 1;
    for (auto it = nodes.rbegin(); it != nodes.rend(); ++it) {
      if (it->dead) continue;
      if (!live[it->value]) {
        it->dead = true;
        continue;
      }
      for (SlotRef in : it->inputs) {
        if (IsRegister(in) && in != kInputReg) live[in] = 1;
      }
    }
  }

  // ---- Emit: one instruction per surviving op, registers in program
  // order. Constants are deep-copied into the plan (a captured parameter
  // tensor aliases the live module storage; a folded value may be a
  // Reshape view of one), so a compiled plan is a true snapshot of the
  // weights it was recorded from and owns heap storage independent of any
  // arena.
  tensor::ArenaScope no_arena(nullptr);
  auto plan = std::make_shared<Plan>();
  plan->family = model->name();
  plan->input_shape = window.shape();
  plan->output_shape = recorded_out.shape();
  plan->recorded_ops = recorded_ops;
  plan->folded_constants = folded;

  std::unordered_map<SlotRef, int32_t> reg_of;  // value -> register
  reg_of[kInputReg] = kInputReg;
  std::unordered_map<int32_t, int32_t> const_of;  // old const idx -> new
  auto remap = [&](SlotRef ref) -> SlotRef {
    if (ref == kNoSlot) return ref;
    if (IsRegister(ref)) return reg_of.at(ref);
    auto [it, inserted] =
        const_of.try_emplace(ConstantIndex(ref),
                             static_cast<int32_t>(plan->constants.size()));
    if (inserted) {
      plan->constants.push_back(constants[ConstantIndex(ref)].Clone());
    }
    return ConstantRef(it->second);
  };

  for (const Node& node : nodes) {
    if (node.dead) continue;
    Instruction ins;
    ins.op = node.op;
    ins.s0 = node.s0;
    ins.s1 = node.s1;
    ins.ints = node.ints;
    ins.out_shape = node.out_shape;
    for (SlotRef in : node.inputs) ins.inputs.push_back(remap(in));
    ins.out = plan->num_regs++;
    reg_of[node.value] = ins.out;
    plan->instructions.push_back(std::move(ins));
  }
  plan->output = remap(output);

  // ---- Release lists: a register's backing buffer returns to the arena
  // right after its last reader, like module intermediates dying.
  {
    std::vector<int32_t> last_use(plan->num_regs, -1);
    for (int32_t k = 0; k < static_cast<int32_t>(plan->instructions.size());
         ++k) {
      const Instruction& ins = plan->instructions[k];
      for (SlotRef in : ins.inputs) {
        if (IsRegister(in)) last_use[in] = k;
      }
    }
    if (IsRegister(plan->output)) last_use[plan->output] = -1;  // kept
    for (int32_t r = 0; r < plan->num_regs; ++r) {
      if (last_use[r] >= 0) {
        plan->instructions[last_use[r]].release.push_back(r);
      }
    }
  }

  // ---- Verify before anyone serves from this plan. First: replaying the
  // plan on the warm-up window must reproduce the recorded output
  // bitwise. Second: on a perturbed window, the plan must match a fresh
  // module forward bitwise — the check that catches input-dependent data
  // wrongly captured as a constant (a forward step the hooks cannot see
  // fails here, at compile time, instead of silently serving stale data).
  Result<Tensor> replay = Execute(*plan, window, nullptr);
  if (!replay.ok()) return replay.status();
  if (!BitwiseEqual(replay.value(), recorded_out)) {
    return Status::Internal(StrCat("plan: ", plan->family,
                                   " replay diverged from the recorded "
                                   "forward"));
  }
  Tensor probe = window.Clone();
  {
    // The nudge is a multiple of 2^-7, so it is exact.
    const int64_t n = probe.NumElements();
    Scalar* d = probe.data();
    for (int64_t i = 0; i < n; ++i) {
      d[i] += 0.0078125 * static_cast<Scalar>(1 + (i % 5));
    }
  }
  Tensor module_probe;
  {
    tensor::ArenaScope no_arena(nullptr);
    module_probe = core::Predict(model, probe);
  }
  Result<Tensor> plan_probe = Execute(*plan, probe, nullptr);
  if (!plan_probe.ok()) return plan_probe.status();
  if (!BitwiseEqual(plan_probe.value(), module_probe)) {
    return Status::FailedPrecondition(
        StrCat("plan: ", plan->family,
               " forward does not track the input through hooked ops "
               "(perturbed-window verification failed)"));
  }

  EMAF_METRIC_COUNTER_ADD("plan.compiles_total", 1);
  return std::shared_ptr<const Plan>(std::move(plan));
}

}  // namespace emaf::plan
