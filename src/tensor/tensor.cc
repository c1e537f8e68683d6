#include "tensor/tensor.h"

#include <cstring>
#include <sstream>

#include "common/check.h"
#include "common/metrics.h"
#include "tensor/arena.h"
#include "tensor/autograd.h"

namespace emaf::tensor {

namespace {

std::shared_ptr<TensorImpl> NewImpl(const Shape& shape) {
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = shape;
  const int64_t bytes =
      shape.NumElements() * static_cast<int64_t>(sizeof(Scalar));
  if (InferenceArena* arena = CurrentArena()) {
    // Serving path: recycle a pooled buffer of matching byte count instead
    // of heap-allocating (DESIGN.md, "Serving layer"). Recycled buffers
    // hold stale values — exactly the MakeUninitialized contract.
    impl->storage = arena->Acquire(bytes);
  } else {
    EMAF_METRIC_COUNTER_ADD("tensor.storage_allocs", 1);
    impl->storage =
        std::make_shared<std::vector<std::byte>>(static_cast<size_t>(bytes));
  }
  return impl;
}

}  // namespace

Tensor MakeUninitialized(const Shape& shape) {
  return Tensor(NewImpl(shape));
}

Tensor Tensor::Zeros(const Shape& shape) {
  Tensor t = MakeUninitialized(shape);
  // A fresh byte vector is value-initialized to all-zero bytes (which is
  // 0.0), so the heap path is already zero; an arena buffer is recycled
  // and must be cleared.
  if (CurrentArena() != nullptr) {
    std::memset(t.raw_data(), 0, static_cast<size_t>(t.byte_size()));
  }
  return t;
}

Tensor Tensor::Ones(const Shape& shape) { return Full(shape, 1.0); }

Tensor Tensor::Full(const Shape& shape, Scalar value) {
  Tensor t = MakeUninitialized(shape);
  t.Fill(value);
  return t;
}

Tensor Tensor::FromVector(const Shape& shape, std::vector<Scalar> values) {
  EMAF_CHECK_EQ(shape.NumElements(), static_cast<int64_t>(values.size()));
  // A fresh heap buffer for the caller's values, so this always counts as
  // a storage allocation — even under an ArenaScope, which FromVector
  // bypasses.
  EMAF_METRIC_COUNTER_ADD("tensor.storage_allocs", 1);
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = shape;
  const size_t bytes = values.size() * sizeof(Scalar);
  impl->storage = std::make_shared<std::vector<std::byte>>(bytes);
  // Both data() pointers may be null for zero elements, where memcpy is
  // undefined even with a zero length.
  if (bytes != 0) std::memcpy(impl->storage->data(), values.data(), bytes);
  return Tensor(std::move(impl));
}

Tensor Tensor::FromScalar(Scalar value) {
  return FromVector(Shape{}, {value});
}

Tensor Tensor::Eye(int64_t n) {
  Tensor t = Zeros(Shape{n, n});
  Scalar* d = t.data();
  for (int64_t i = 0; i < n; ++i) d[i * n + i] = 1.0;
  return t;
}

Tensor Tensor::Arange(int64_t n) {
  Tensor t = MakeUninitialized(Shape{n});
  Scalar* d = t.data();
  for (int64_t i = 0; i < n; ++i) d[i] = static_cast<Scalar>(i);
  return t;
}

Tensor Tensor::Uniform(const Shape& shape, Scalar low, Scalar high, Rng* rng) {
  EMAF_CHECK(rng != nullptr);
  Tensor t = MakeUninitialized(shape);
  Scalar* d = t.data();
  const int64_t emaf_n = t.NumElements();
  for (int64_t i = 0; i < emaf_n; ++i) d[i] = rng->Uniform(low, high);
  return t;
}

Tensor Tensor::Normal(const Shape& shape, Scalar mean, Scalar stddev,
                      Rng* rng) {
  EMAF_CHECK(rng != nullptr);
  Tensor t = MakeUninitialized(shape);
  Scalar* d = t.data();
  const int64_t emaf_n = t.NumElements();
  for (int64_t i = 0; i < emaf_n; ++i) d[i] = rng->Normal(mean, stddev);
  return t;
}

Tensor Tensor::Bernoulli(const Shape& shape, Scalar p, Rng* rng) {
  EMAF_CHECK(rng != nullptr);
  Tensor t = MakeUninitialized(shape);
  Scalar* d = t.data();
  const int64_t emaf_n = t.NumElements();
  for (int64_t i = 0; i < emaf_n; ++i) {
    d[i] = rng->Bernoulli(p) ? 1.0 : 0.0;
  }
  return t;
}

const Shape& Tensor::shape() const {
  EMAF_CHECK(defined());
  return impl_->shape;
}

int64_t Tensor::byte_size() const {
  EMAF_CHECK(defined());
  return static_cast<int64_t>(impl_->storage->size());
}

Scalar* Tensor::data() { return static_cast<Scalar*>(raw_data()); }

const Scalar* Tensor::data() const {
  return static_cast<const Scalar*>(raw_data());
}

void* Tensor::raw_data() {
  EMAF_CHECK(defined());
  return impl_->storage->data();
}

const void* Tensor::raw_data() const {
  EMAF_CHECK(defined());
  return impl_->storage->data();
}

Scalar Tensor::At(const std::vector<int64_t>& index) const {
  const Shape& s = shape();
  EMAF_CHECK_EQ(static_cast<int64_t>(index.size()), s.rank());
  std::vector<int64_t> strides = s.Strides();
  int64_t offset = 0;
  for (int64_t i = 0; i < s.rank(); ++i) {
    EMAF_CHECK_GE(index[i], 0);
    EMAF_CHECK_LT(index[i], s.dim(i));
    offset += index[i] * strides[i];
  }
  return data()[offset];
}

void Tensor::Set(const std::vector<int64_t>& index, Scalar value) {
  const Shape& s = shape();
  EMAF_CHECK_EQ(static_cast<int64_t>(index.size()), s.rank());
  std::vector<int64_t> strides = s.Strides();
  int64_t offset = 0;
  for (int64_t i = 0; i < s.rank(); ++i) {
    EMAF_CHECK_GE(index[i], 0);
    EMAF_CHECK_LT(index[i], s.dim(i));
    offset += index[i] * strides[i];
  }
  data()[offset] = value;
}

Scalar Tensor::item() const {
  EMAF_CHECK_EQ(NumElements(), 1);
  return data()[0];
}

std::vector<Scalar> Tensor::ToVector() const {
  EMAF_CHECK(defined());
  const Scalar* d = data();
  return std::vector<Scalar>(d, d + NumElements());
}

void Tensor::Fill(Scalar value) {
  const int64_t n = NumElements();
  Scalar* d = data();
  for (int64_t i = 0; i < n; ++i) d[i] = value;
}

Tensor Tensor::Clone() const {
  EMAF_CHECK(defined());
  // Copies through MakeUninitialized (not FromVector) so clones made under
  // an active ArenaScope reuse pooled storage instead of heap-allocating.
  Tensor out = MakeUninitialized(shape());
  std::memcpy(out.raw_data(), raw_data(), static_cast<size_t>(byte_size()));
  return out;
}

Tensor Tensor::Detach() const {
  EMAF_CHECK(defined());
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = impl_->shape;
  impl->storage = impl_->storage;  // shares data
  return Tensor(std::move(impl));
}

Tensor& Tensor::SetRequiresGrad(bool requires_grad) {
  EMAF_CHECK(defined());
  EMAF_CHECK(impl_->grad_fn == nullptr)
      << "SetRequiresGrad is only valid on leaf tensors";
  impl_->requires_grad = requires_grad;
  return *this;
}

bool Tensor::requires_grad() const {
  EMAF_CHECK(defined());
  return impl_->requires_grad;
}

bool Tensor::TracksGrad() const {
  EMAF_CHECK(defined());
  return impl_->requires_grad || impl_->grad_fn != nullptr;
}

Tensor Tensor::grad() const {
  EMAF_CHECK(defined());
  if (impl_->grad == nullptr) return Tensor();
  return Tensor(impl_->grad);
}

void Tensor::ZeroGrad() {
  EMAF_CHECK(defined());
  impl_->grad = nullptr;
}

void Tensor::Backward() const { RunBackward(*this); }

std::string Tensor::ToString() const {
  if (!defined()) return "Tensor(undefined)";
  std::ostringstream out;
  out << "Tensor" << shape().ToString();
  constexpr int64_t kMaxPrinted = 64;
  if (NumElements() <= kMaxPrinted) {
    out << " {";
    const Scalar* d = data();
    for (int64_t i = 0; i < NumElements(); ++i) {
      if (i > 0) out << ", ";
      out << d[i];
    }
    out << "}";
  }
  return out.str();
}

}  // namespace emaf::tensor
