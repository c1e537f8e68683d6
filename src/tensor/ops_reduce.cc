#include <algorithm>
#include <cmath>
#include <numeric>

#include "tensor/op_common.h"
#include "tensor/ops.h"
#include "tensor/plan_hook.h"

namespace emaf::tensor {

namespace {
namespace ph = plan_hook;
}  // namespace

namespace internal {

namespace {

// Adds every element of `x` into `out` (shape `target`, read through
// `t_strides` aligned to x's axes), one StridedWalk run at a time. Each
// output's additions happen in ascending input order, exactly as in a
// per-element odometer walk, so the bytes do not depend on the run
// length: a streaming run adds elementwise, and a run along a reduced
// axis folds into one register from the output's current value.
void SumToAccumulate(const Tensor& x, Tensor* out,
                     std::vector<int64_t> t_strides) {
  const int64_t n = x.NumElements();
  if (n == 0) return;
  StridedWalk<1> walk(x.shape().dims(), {std::move(t_strides)});
  const int64_t run = walk.run();
  const bool streams = walk.step(0) != 0;
  const Scalar* xd = x.data();
  Scalar* od = out->data();
  for (int64_t start = 0; start < n; start += run, walk.NextRun()) {
    const Scalar* src = xd + start;
    Scalar* dst = od + walk.offset(0);
    if (streams) {
      for (int64_t j = 0; j < run; ++j) dst[j] += src[j];
    } else {
      Scalar acc = *dst;
      for (int64_t j = 0; j < run; ++j) acc += src[j];
      *dst = acc;
    }
  }
}

}  // namespace

Tensor SumTo(const Tensor& x, const Shape& target) {
  if (x.shape() == target) {
    Tensor out = x.Clone();
    if (ph::Active()) {
      ph::Record({ph::OpKind::kSumTo, {x}, out, 0.0, 0.0, target.dims()});
    }
    return out;
  }
  EMAF_CHECK(IsBroadcastableTo(target, x.shape()))
      << "cannot sum-reduce " << x.shape().ToString() << " to "
      << target.ToString();
  Tensor out = Tensor::Zeros(target);
  SumToAccumulate(x, &out, BroadcastStrides(target, x.shape()));
  if (ph::Active()) {
    ph::Record({ph::OpKind::kSumTo, {x}, out, 0.0, 0.0, target.dims()});
  }
  return out;
}

}  // namespace internal

namespace {

// Canonicalizes reduction axes: sorted, unique, non-negative.
std::vector<int64_t> CanonicalDims(const Shape& shape,
                                   const std::vector<int64_t>& dims) {
  std::vector<int64_t> out;
  out.reserve(dims.size());
  for (int64_t d : dims) out.push_back(shape.CanonicalAxis(d));
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// Shape with reduced axes kept as size 1.
Shape KeepShape(const Shape& shape, const std::vector<int64_t>& dims) {
  std::vector<int64_t> kept = shape.dims();
  for (int64_t d : dims) kept[d] = 1;
  return Shape(kept);
}

// Shape with reduced axes removed.
Shape DropShape(const Shape& shape, const std::vector<int64_t>& dims) {
  std::vector<int64_t> out;
  size_t j = 0;
  for (int64_t i = 0; i < shape.rank(); ++i) {
    if (j < dims.size() && dims[j] == i) {
      ++j;
      continue;
    }
    out.push_back(shape.dim(i));
  }
  return Shape(out);
}

// Decomposes `shape` around `dim` into [outer, d, inner] extents.
void OuterInner(const Shape& shape, int64_t dim, int64_t* outer, int64_t* d,
                int64_t* inner) {
  *outer = 1;
  *inner = 1;
  for (int64_t i = 0; i < dim; ++i) *outer *= shape.dim(i);
  *d = shape.dim(dim);
  for (int64_t i = dim + 1; i < shape.rank(); ++i) *inner *= shape.dim(i);
}

enum class ExtremeKind { kMax, kMin };

void ExtremeScan(const Tensor& x, Tensor* values, std::vector<int64_t>* arg,
                 int64_t outer, int64_t d, int64_t inner, ExtremeKind kind) {
  const Scalar* xd = x.data();
  Scalar* vd = values->data();
  for (int64_t o = 0; o < outer; ++o) {
    for (int64_t i = 0; i < inner; ++i) {
      int64_t best_k = 0;
      Scalar best = xd[(o * d) * inner + i];
      for (int64_t k = 1; k < d; ++k) {
        Scalar v = xd[(o * d + k) * inner + i];
        bool better = kind == ExtremeKind::kMax ? v > best : v < best;
        if (better) {
          best = v;
          best_k = k;
        }
      }
      vd[o * inner + i] = best;
      (*arg)[o * inner + i] = best_k;
    }
  }
}

Tensor Extreme(const Tensor& x, int64_t dim, bool keepdim, ExtremeKind kind) {
  int64_t axis = x.shape().CanonicalAxis(dim);
  int64_t outer;
  int64_t d;
  int64_t inner;
  OuterInner(x.shape(), axis, &outer, &d, &inner);
  EMAF_CHECK_GT(d, 0) << "reduction over empty axis";

  Shape keep = KeepShape(x.shape(), {axis});
  Tensor values = MakeUninitialized(keep);
  auto arg = std::make_shared<std::vector<int64_t>>(
      static_cast<size_t>(outer * inner));
  ExtremeScan(x, &values, arg.get(), outer, d, inner, kind);

  Shape out_shape = keepdim ? keep : DropShape(x.shape(), {axis});
  Tensor out = Reshape(values, out_shape);
  // Reshape above may record a GradFn chained to `values` (which has none),
  // so clear autograd state and attach our own node.
  out = out.Detach();
  if (ShouldRecord({x})) {
    Shape x_shape = x.shape();
    const char* name = kind == ExtremeKind::kMax ? "Max" : "Min";
    SetGradFn(&out, name, {x},
              [arg, x_shape, outer, d, inner](const Tensor& g) {
                NoGradGuard guard;
                Tensor gx = Tensor::Zeros(x_shape);
                const Scalar* gd = g.data();
                Scalar* gxd = gx.data();
                for (int64_t o = 0; o < outer; ++o) {
                  for (int64_t i = 0; i < inner; ++i) {
                    int64_t k = (*arg)[o * inner + i];
                    gxd[(o * d + k) * inner + i] += gd[o * inner + i];
                  }
                }
                return std::vector<Tensor>{gx};
              });
  }
  return out;
}

void ArgMaxScan(const Tensor& x, Tensor* out, int64_t outer, int64_t d,
                int64_t inner) {
  const Scalar* xd = x.data();
  Scalar* od = out->data();
  for (int64_t o = 0; o < outer; ++o) {
    for (int64_t i = 0; i < inner; ++i) {
      int64_t best_k = 0;
      Scalar best = xd[(o * d) * inner + i];
      for (int64_t k = 1; k < d; ++k) {
        Scalar v = xd[(o * d + k) * inner + i];
        if (v > best) {
          best = v;
          best_k = k;
        }
      }
      od[o * inner + i] = static_cast<Scalar>(best_k);
    }
  }
}

void TopKMaskCompute(const Tensor& x, Tensor* mask, int64_t k, int64_t outer,
                     int64_t d, int64_t inner) {
  const Scalar* xd = x.data();
  Scalar* md = mask->data();
  std::vector<std::pair<Scalar, int64_t>> slice(static_cast<size_t>(d));
  for (int64_t o = 0; o < outer; ++o) {
    for (int64_t i = 0; i < inner; ++i) {
      for (int64_t j = 0; j < d; ++j) {
        slice[j] = {xd[(o * d + j) * inner + i], j};
      }
      // Keep the k largest; ties resolved toward the lower index.
      std::nth_element(slice.begin(), slice.begin() + (k - 1), slice.end(),
                       [](const auto& a, const auto& b) {
                         if (a.first != b.first) return a.first > b.first;
                         return a.second < b.second;
                       });
      for (int64_t j = 0; j < k; ++j) {
        md[(o * d + slice[j].second) * inner + i] = 1.0;
      }
    }
  }
}

}  // namespace

Tensor Sum(const Tensor& x) {
  Tensor out = Tensor::Zeros(Shape{});
  const int64_t emaf_n = x.NumElements();
  const Scalar* xd = x.data();
  Scalar acc = 0.0;
  for (int64_t i = 0; i < emaf_n; ++i) acc += xd[i];
  out.data()[0] = acc;
  if (ShouldRecord({x})) {
    Shape x_shape = x.shape();
    SetGradFn(&out, "Sum", {x}, [x_shape](const Tensor& g) {
      return std::vector<Tensor>{Tensor::Full(x_shape, g.item())};
    });
  }
  return out;
}

Tensor Sum(const Tensor& x, const std::vector<int64_t>& dims, bool keepdim) {
  if (dims.empty()) {
    // Sum over no axes is the identity (clone to keep value semantics).
    Tensor out = x.Clone();
    if (ShouldRecord({x})) {
      SetGradFn(&out, "SumNoAxes", {x}, [](const Tensor& g) {
        return std::vector<Tensor>{g};
      });
    }
    return out;
  }
  std::vector<int64_t> axes = CanonicalDims(x.shape(), dims);
  Shape keep = KeepShape(x.shape(), axes);
  Tensor reduced = internal::SumTo(x, keep);
  Shape out_shape = keepdim ? keep : DropShape(x.shape(), axes);
  // `reduced` is freshly materialized and tracks no grad, so reshaping it
  // in place (storage-sharing) is safe and avoids a second allocation.
  Tensor out = Reshape(reduced, out_shape);
  if (ShouldRecord({x})) {
    Shape x_shape = x.shape();
    SetGradFn(&out, "SumDims", {x}, [x_shape, keep](const Tensor& g) {
      NoGradGuard guard;
      // A view of `g` in keep-shape, copied out along the summed axes.
      Tensor gk = Reshape(g, keep);
      return std::vector<Tensor>{keep == x_shape ? gk
                                                 : BroadcastTo(gk, x_shape)};
    });
  }
  return out;
}

Tensor Mean(const Tensor& x) {
  int64_t n = x.NumElements();
  EMAF_CHECK_GT(n, 0);
  Tensor out = Tensor::Zeros(Shape{});
  const Scalar* xd = x.data();
  Scalar acc = 0.0;
  for (int64_t i = 0; i < n; ++i) acc += xd[i];
  out.data()[0] = acc / static_cast<Scalar>(n);
  if (ShouldRecord({x})) {
    Shape x_shape = x.shape();
    SetGradFn(&out, "Mean", {x}, [x_shape, n](const Tensor& g) {
      return std::vector<Tensor>{
          Tensor::Full(x_shape, g.item() / static_cast<Scalar>(n))};
    });
  }
  return out;
}

Tensor Mean(const Tensor& x, const std::vector<int64_t>& dims, bool keepdim) {
  std::vector<int64_t> axes = CanonicalDims(x.shape(), dims);
  int64_t count = 1;
  for (int64_t d : axes) count *= x.shape().dim(d);
  EMAF_CHECK_GT(count, 0) << "mean over empty axes";
  Tensor summed = Sum(x, dims, keepdim);
  return MulScalar(summed, 1.0 / static_cast<Scalar>(count));
}

Tensor Max(const Tensor& x, int64_t dim, bool keepdim) {
  return Extreme(x, dim, keepdim, ExtremeKind::kMax);
}

Tensor Min(const Tensor& x, int64_t dim, bool keepdim) {
  return Extreme(x, dim, keepdim, ExtremeKind::kMin);
}

Tensor ArgMax(const Tensor& x, int64_t dim, bool keepdim) {
  int64_t axis = x.shape().CanonicalAxis(dim);
  int64_t outer;
  int64_t d;
  int64_t inner;
  OuterInner(x.shape(), axis, &outer, &d, &inner);
  EMAF_CHECK_GT(d, 0);
  Shape keep = KeepShape(x.shape(), {axis});
  Shape out_shape = keepdim ? keep : DropShape(x.shape(), {axis});
  Tensor out = Tensor::Zeros(out_shape);
  ArgMaxScan(x, &out, outer, d, inner);
  return out;
}

Tensor TopKMask(const Tensor& x, int64_t k, int64_t dim) {
  EMAF_CHECK_GE(k, 0);
  int64_t axis = x.shape().CanonicalAxis(dim);
  int64_t outer;
  int64_t d;
  int64_t inner;
  OuterInner(x.shape(), axis, &outer, &d, &inner);
  Tensor mask = Tensor::Zeros(x.shape());
  if (k >= d) {
    mask.Fill(1.0);
    return mask;
  }
  if (k == 0) return mask;
  TopKMaskCompute(x, &mask, k, outer, d, inner);
  return mask;
}

bool HasNonFinite(const Tensor& x) {
  int64_t n = x.NumElements();
  const Scalar* d = x.data();
  for (int64_t i = 0; i < n; ++i) {
    if (!std::isfinite(d[i])) return true;
  }
  return false;
}

}  // namespace emaf::tensor
