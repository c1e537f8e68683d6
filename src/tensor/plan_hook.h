// plan_hook: a thread-local recording tap inside the tensor ops.
//
// When a Sink is installed (ScopedSink), every *leaf* op — the ones that
// actually touch scalar storage, not the composites built from them —
// reports one OpRecord after computing its output: the op kind, the input
// and output tensors (by handle, so the recorder can key on TensorImpl
// identity), and the op's scalar/integer parameters. emaf::plan replays a
// model forward under a sink to build a compiled inference plan
// (DESIGN.md, "Compiled plans").
//
// The tap is deliberately dumb: it neither interprets nor validates the
// stream, and with no sink installed each op pays a single thread-local
// pointer load. Recording is per-thread, so one thread compiling a plan
// never observes ops executed by concurrent requests.

#ifndef EMAF_TENSOR_PLAN_HOOK_H_
#define EMAF_TENSOR_PLAN_HOOK_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "tensor/tensor.h"

namespace emaf::tensor::plan_hook {

// Leaf ops that can appear in a recorded stream. Composite ops (Transpose,
// Select, Stack, Mean, ...) decompose into these before the tap fires, so
// the enum stays closed over what the interpreter must replay.
enum class OpKind : uint8_t {
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
  kSlice,        // ints = {axis, start, end} (canonical)
  kCat,          // ints = {axis}
  kPad,          // ints = {before_0, after_0, before_1, after_1, ...}
  kBroadcastTo,  // ints = output shape dims
  kConv2d,       // inputs = {input, weight, bias?}; ints = {stride_h,
                 // stride_w, pad_h, pad_w, dilation_h, dilation_w}
};

struct OpRecord {
  OpKind kind;
  // Input handles in op-argument order. May contain an undefined Tensor
  // (Conv2d's optional bias), which the recorder passes through as-is.
  std::vector<Tensor> inputs;
  Tensor output;
  Scalar s0 = 0.0;
  Scalar s1 = 0.0;
  std::vector<int64_t> ints;
};

class Sink {
 public:
  virtual ~Sink() = default;
  virtual void Record(OpRecord record) = 0;
};

namespace internal {
extern thread_local Sink* tls_sink;
}  // namespace internal

// True when the calling thread has a sink installed — the only cost ops
// pay when nothing is recording.
inline bool Active() { return internal::tls_sink != nullptr; }

// Forwards one record to the calling thread's sink (must be Active()).
void Record(OpRecord record);

// The same, for ops whose only attribute (if any) is s0.
inline void Record(OpKind kind, std::vector<Tensor> inputs, Tensor output,
                   Scalar s0 = 0.0) {
  Record(OpRecord{kind, std::move(inputs), std::move(output), s0, 0.0, {}});
}

// Installs `sink` as the calling thread's recorder for the scope's
// lifetime; restores the previous sink (normally none) on exit.
class ScopedSink {
 public:
  explicit ScopedSink(Sink* sink);
  ~ScopedSink();
  ScopedSink(const ScopedSink&) = delete;
  ScopedSink& operator=(const ScopedSink&) = delete;

 private:
  Sink* previous_;
};

}  // namespace emaf::tensor::plan_hook

#endif  // EMAF_TENSOR_PLAN_HOOK_H_
