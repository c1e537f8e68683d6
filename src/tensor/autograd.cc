#include "tensor/autograd.h"

#include <unordered_map>
#include <unordered_set>

#include "common/check.h"
#include "common/metrics.h"

namespace emaf::tensor {

namespace {

thread_local int no_grad_depth = 0;

// True when `t` is the only handle on its impl and its storage, and is
// outside the graph: adopting it cannot expose a buffer that another
// tensor (a view, a tensor a GradFn saved, a caller's handle) still reads.
bool UniquelyOwned(const Tensor& t) {
  const std::shared_ptr<TensorImpl>& impl = t.impl();
  return impl.use_count() == 1 && impl->storage.use_count() == 1 &&
         impl->grad_fn == nullptr && !impl->requires_grad;
}

// Adds `delta` into `acc`. On first use `acc` adopts `delta` when nothing
// else references it, and clones it otherwise, so `acc` always owns its
// buffer and the in-place add never writes through an alias. Shapes must
// match exactly; ops are responsible for reducing broadcasts beforehand.
void AccumulateGrad(Tensor* acc, Tensor delta) {
  if (!acc->defined()) {
    *acc = UniquelyOwned(delta) ? std::move(delta) : delta.Clone();
    return;
  }
  EMAF_CHECK(acc->shape() == delta.shape())
      << "gradient shape mismatch: " << acc->shape().ToString() << " vs "
      << delta.shape().ToString();
  Scalar* a = acc->data();
  const Scalar* d = delta.data();
  const int64_t n = acc->NumElements();
  for (int64_t i = 0; i < n; ++i) a[i] += d[i];
}

}  // namespace

bool GradModeEnabled() { return no_grad_depth == 0; }

NoGradGuard::NoGradGuard() { ++no_grad_depth; }
NoGradGuard::~NoGradGuard() { --no_grad_depth; }

bool ShouldRecord(const std::vector<Tensor>& inputs) {
  if (!GradModeEnabled()) return false;
  for (const Tensor& t : inputs) {
    if (t.defined() && t.TracksGrad()) return true;
  }
  return false;
}

void SetGradFn(Tensor* output, std::string name, std::vector<Tensor> inputs,
               std::function<std::vector<Tensor>(const Tensor&)> backward) {
  EMAF_CHECK(output->defined());
  EMAF_METRIC_COUNTER_ADD("tensor.gradfn_allocs", 1);
  auto fn = std::make_shared<GradFn>();
  fn->name = std::move(name);
  fn->inputs = std::move(inputs);
  fn->backward = std::move(backward);
  output->impl()->grad_fn = std::move(fn);
}

void RunBackward(const Tensor& root) {
  EMAF_CHECK(root.defined());
  EMAF_CHECK_EQ(root.NumElements(), 1)
      << "Backward() requires a single-element tensor";

  // Post-order DFS (iterative) to get a topological order of impls.
  std::vector<TensorImpl*> topo;
  std::unordered_set<TensorImpl*> visited;
  // Keep shared ownership of every visited impl for the duration.
  std::unordered_map<TensorImpl*, std::shared_ptr<TensorImpl>> owned;

  struct Frame {
    std::shared_ptr<TensorImpl> impl;
    size_t next_child = 0;
  };
  std::vector<Frame> stack;
  stack.push_back({root.impl(), 0});
  visited.insert(root.impl().get());
  owned[root.impl().get()] = root.impl();

  while (!stack.empty()) {
    Frame& frame = stack.back();
    GradFn* fn = frame.impl->grad_fn.get();
    size_t num_children = fn == nullptr ? 0 : fn->inputs.size();
    if (frame.next_child < num_children) {
      const Tensor& child = fn->inputs[frame.next_child++];
      if (child.defined() && child.TracksGrad() &&
          visited.insert(child.impl().get()).second) {
        owned[child.impl().get()] = child.impl();
        stack.push_back({child.impl(), 0});
      }
    } else {
      topo.push_back(frame.impl.get());
      stack.pop_back();
    }
  }
  // topo is children-before-parents; reverse for root-first traversal.

  std::unordered_map<TensorImpl*, Tensor> grads;
  grads[root.impl().get()] =
      Tensor::Ones(root.shape());

  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    TensorImpl* impl = *it;
    auto grad_it = grads.find(impl);
    if (grad_it == grads.end()) continue;  // unreachable branch
    // Take this node's gradient out of the map (freeing the entry early),
    // so that once the backward has run nothing but its results holds it.
    Tensor grad = std::move(grad_it->second);
    grads.erase(grad_it);

    if (impl->grad_fn == nullptr) {
      if (impl->requires_grad) {
        // Leaf: accumulate into persistent .grad.
        Tensor current = impl->grad == nullptr ? Tensor() : Tensor(impl->grad);
        AccumulateGrad(&current, std::move(grad));
        impl->grad = current.impl();
      }
      continue;
    }

    GradFn* fn = impl->grad_fn.get();
    std::vector<Tensor> input_grads = fn->backward(grad);
    grad = Tensor();  // a returned view of it may now be adopted
    EMAF_CHECK_EQ(input_grads.size(), fn->inputs.size())
        << "op " << fn->name << " returned wrong number of gradients";
    for (size_t i = 0; i < fn->inputs.size(); ++i) {
      const Tensor& input = fn->inputs[i];
      if (!input.defined() || !input.TracksGrad()) continue;
      Tensor& ig = input_grads[i];
      if (!ig.defined()) continue;
      EMAF_CHECK(ig.shape() == input.shape())
          << "op " << fn->name << " produced gradient of shape "
          << ig.shape().ToString() << " for input of shape "
          << input.shape().ToString();
      AccumulateGrad(&grads[input.impl().get()], std::move(ig));
    }
  }
}

}  // namespace emaf::tensor
