// Tensor: contiguous row-major N-d array of f64 (`Scalar`) with
// tape-based reverse-mode autodiff.
//
// A Tensor is a cheap handle (shared_ptr) onto a TensorImpl. Math lives in
// free functions (tensor/ops.h); each differentiable op records a GradFn
// node so `loss.Backward()` can later accumulate gradients into every leaf
// created with requires_grad — see tensor/autograd.h.
//
// Tensors are always contiguous; Reshape shares storage, every other shape
// op copies. No in-place differentiable ops exist: optimizers mutate
// parameter storage directly through data(), outside the tape.

#ifndef EMAF_TENSOR_TENSOR_H_
#define EMAF_TENSOR_TENSOR_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "tensor/dtype.h"
#include "tensor/shape.h"

namespace emaf::tensor {

using Scalar = double;

struct GradFn;  // defined in tensor/autograd.h

// Internal representation. Treat as private to the tensor subsystem.
struct TensorImpl {
  Shape shape;
  std::shared_ptr<std::vector<std::byte>> storage;
  bool requires_grad = false;
  // Non-null for op outputs that participate in the autodiff graph.
  std::shared_ptr<GradFn> grad_fn;
  // Gradient accumulated by Backward() for leaves with requires_grad.
  std::shared_ptr<TensorImpl> grad;
};

class Tensor {
 public:
  // An undefined tensor; defined() is false, most other calls CHECK-fail.
  Tensor() = default;

  // --- Factories -----------------------------------------------------------
  static Tensor Zeros(const Shape& shape);
  static Tensor Ones(const Shape& shape);
  static Tensor Full(const Shape& shape, Scalar value);
  static Tensor FromVector(const Shape& shape, std::vector<Scalar> values);
  static Tensor FromScalar(Scalar value);  // rank-0
  static Tensor Eye(int64_t n);
  static Tensor Arange(int64_t n);  // [0, 1, ..., n-1], shape [n]
  static Tensor Uniform(const Shape& shape, Scalar low, Scalar high, Rng* rng);
  static Tensor Normal(const Shape& shape, Scalar mean, Scalar stddev,
                       Rng* rng);
  static Tensor Bernoulli(const Shape& shape, Scalar p, Rng* rng);

  // --- Introspection -------------------------------------------------------
  bool defined() const { return impl_ != nullptr; }
  const Shape& shape() const;
  // Always kF64; kept for callers that still check it.
  DType dtype() const { return DType::kF64; }
  int64_t rank() const { return shape().rank(); }
  int64_t dim(int64_t axis) const { return shape().DimChecked(axis); }
  int64_t NumElements() const { return shape().NumElements(); }
  // NumElements() * sizeof(Scalar): the in-memory payload size.
  int64_t byte_size() const;
  std::string ToString() const;  // shape + values (small tensors only)

  // --- Data access ---------------------------------------------------------
  Scalar* data();
  const Scalar* data() const;
  // Untyped storage pointer; size is byte_size().
  void* raw_data();
  const void* raw_data() const;
  // Element by multi-index.
  Scalar At(const std::vector<int64_t>& index) const;
  void Set(const std::vector<int64_t>& index, Scalar value);
  // Value of a single-element tensor.
  Scalar item() const;
  std::vector<Scalar> ToVector() const;
  void Fill(Scalar value);

  // Deep copy of values; result is a leaf outside the autodiff graph.
  Tensor Clone() const;
  // Same storage, detached from the graph (no grad_fn, requires_grad off).
  Tensor Detach() const;

  // --- Autograd ------------------------------------------------------------
  Tensor& SetRequiresGrad(bool requires_grad);
  bool requires_grad() const;
  // True if gradients flow through this tensor (leaf flag or recorded op).
  bool TracksGrad() const;
  // Gradient accumulated by Backward(); undefined Tensor if none.
  Tensor grad() const;
  void ZeroGrad();
  // Reverse-mode sweep from this (single-element) tensor.
  void Backward() const;

  // Internal: wraps an impl. Used by ops and the autograd engine.
  explicit Tensor(std::shared_ptr<TensorImpl> impl) : impl_(std::move(impl)) {}
  const std::shared_ptr<TensorImpl>& impl() const { return impl_; }

 private:
  std::shared_ptr<TensorImpl> impl_;
};

// Creates a defined tensor with uninitialized storage (ops use this).
Tensor MakeUninitialized(const Shape& shape);

}  // namespace emaf::tensor

#endif  // EMAF_TENSOR_TENSOR_H_
