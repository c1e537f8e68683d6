// Reverse-mode autodiff tape.
//
// Every differentiable op attaches a GradFn to its output. GradFn keeps the
// op's input tensors alive and a closure mapping the output gradient to
// per-input gradients. RunBackward topologically sorts the graph reachable
// from the root and accumulates gradients into leaf tensors that were
// created with requires_grad.

#ifndef EMAF_TENSOR_AUTOGRAD_H_
#define EMAF_TENSOR_AUTOGRAD_H_

#include <functional>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace emaf::tensor {

struct GradFn {
  // Op name, for error messages and debugging.
  std::string name;
  // The op's inputs (graph edges point from output to inputs).
  std::vector<Tensor> inputs;
  // Maps d(loss)/d(output) to {d(loss)/d(input_i)}. Entries may be undefined
  // Tensors for inputs that do not need gradients. Ownership rule: a
  // backward never writes into `grad_output` or into a tensor it returns,
  // so it may return `grad_output` itself, or a view of it, for any number
  // of inputs. RunBackward copies a returned gradient only when something
  // else still references it, and then at most once.
  std::function<std::vector<Tensor>(const Tensor& grad_output)> backward;
};

// Whether ops currently record GradFn nodes (thread-local).
bool GradModeEnabled();

// RAII guard that disables gradient recording in its scope (evaluation,
// data preprocessing, optimizer updates).
class NoGradGuard {
 public:
  NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;
  ~NoGradGuard();
};

// Backward sweep from `root` (must be a single-element tensor). Gradients
// are accumulated (+=) into the .grad of reachable leaves, so call
// ZeroGrad between steps (optimizers do this).
void RunBackward(const Tensor& root);

// Helper for op implementations: true if the op applied to `inputs` should
// record a GradFn (grad mode on and at least one input tracks gradients).
bool ShouldRecord(const std::vector<Tensor>& inputs);

// Attaches a GradFn to `output` (sets grad_fn; marks it as tracking grads).
void SetGradFn(Tensor* output, std::string name, std::vector<Tensor> inputs,
               std::function<std::vector<Tensor>(const Tensor&)> backward);

}  // namespace emaf::tensor

#endif  // EMAF_TENSOR_AUTOGRAD_H_
