#include <algorithm>
#include <array>
#include <cstddef>

#include "tensor/op_common.h"
#include "tensor/ops.h"
#include "tensor/plan_hook.h"

namespace emaf::tensor {

namespace {

namespace ph = plan_hook;

using internal::StridedWalk;

// Edge of the square tiles a transposing copy moves at a time: 16 x 16
// f64 is 2 KiB, so a tile's source and destination lines stay in L1.
constexpr int64_t kTile = 16;

// Copies x into a tensor of shape `out_shape`, where reading follows
// `in_strides` (aligned to out_shape axes). Shared by Permute/BroadcastTo.
// The output is walked in coalesced runs (StridedWalk): a run the input
// streams (stride 1) is one std::copy, a broadcast run (stride 0) one
// fill. A run that strides through the input (a transposing permutation)
// is copied instead in kTile x kTile tiles spanning it and the output
// axis along which the input streams, so both sides read and write whole
// cache lines. Every output element is written once from one input
// element, so the walk order cannot change a byte.
Tensor StridedCopy(const Tensor& x, const Shape& out_shape,
                   std::vector<int64_t> in_strides) {
  Tensor out = MakeUninitialized(out_shape);
  const int64_t n = out_shape.NumElements();
  if (n == 0) return out;
  const Scalar* xd = x.data();
  Scalar* od = out.data();
  StridedWalk<1> walk(out_shape.dims(), {std::move(in_strides)});
  const int64_t run = walk.run();
  const int64_t step = walk.step(0);
  if (step <= 1) {
    for (int64_t start = 0; start < n; start += run, walk.NextRun()) {
      const Scalar* src = xd + walk.offset(0);
      if (step == 1) {
        std::copy(src, src + run, od + start);
      } else {
        std::fill(od + start, od + start + run, *src);
      }
    }
    return out;
  }
  // Transposing: out axis `p` reads the input contiguously, the last out
  // axis reads it `step` apart. Tile those two; walk the rest.
  const std::vector<int64_t>& dims = walk.dims();
  const std::vector<int64_t>& strides = walk.strides(0);
  const std::vector<int64_t> out_strides = Shape(dims).Strides();
  const int64_t last = static_cast<int64_t>(dims.size()) - 1;
  const int64_t p = std::find(strides.begin(), strides.end(), 1) -
                    strides.begin();
  EMAF_CHECK_LT(p, last) << "strided copy with no contiguous input axis";
  const int64_t rows = dims[p];
  const int64_t row_stride = out_strides[p];
  std::vector<int64_t> rest_dims;
  std::array<std::vector<int64_t>, 2> rest_strides;
  for (int64_t axis = 0; axis < last; ++axis) {
    if (axis == p) continue;
    rest_dims.push_back(dims[axis]);
    rest_strides[0].push_back(strides[axis]);
    rest_strides[1].push_back(out_strides[axis]);
  }
  const int64_t blocks = Shape(rest_dims).NumElements();
  StridedWalk<2> rest(rest_dims, std::move(rest_strides));
  for (int64_t start = 0; start < blocks;
       start += rest.run(), rest.NextRun()) {
    for (int64_t r = 0; r < rest.run(); ++r) {
      const Scalar* src = xd + rest.offset(0) + r * rest.step(0);
      Scalar* dst = od + rest.offset(1) + r * rest.step(1);
      for (int64_t i0 = 0; i0 < rows; i0 += kTile) {
        const int64_t i1 = std::min(i0 + kTile, rows);
        for (int64_t j0 = 0; j0 < run; j0 += kTile) {
          const int64_t j1 = std::min(j0 + kTile, run);
          for (int64_t i = i0; i < i1; ++i) {
            for (int64_t j = j0; j < j1; ++j) {
              dst[i * row_stride + j] = src[i + j * step];
            }
          }
        }
      }
    }
  }
  return out;
}

std::vector<int64_t> InversePerm(const std::vector<int64_t>& perm) {
  std::vector<int64_t> inverse(perm.size());
  for (size_t i = 0; i < perm.size(); ++i) {
    inverse[static_cast<size_t>(perm[i])] = static_cast<int64_t>(i);
  }
  return inverse;
}

}  // namespace

Tensor Reshape(const Tensor& x, const Shape& shape) {
  EMAF_CHECK_EQ(x.NumElements(), shape.NumElements())
      << "reshape " << x.shape().ToString() << " -> " << shape.ToString();
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = shape;
  impl->storage = x.impl()->storage;  // view: same data
  Tensor out(std::move(impl));
  if (ph::Active()) {
    ph::Record({ph::OpKind::kReshape, {x}, out, 0.0, 0.0, shape.dims()});
  }
  if (ShouldRecord({x})) {
    Shape x_shape = x.shape();
    SetGradFn(&out, "Reshape", {x}, [x_shape](const Tensor& g) {
      NoGradGuard guard;
      return std::vector<Tensor>{Reshape(g, x_shape)};  // a view of g
    });
  }
  return out;
}

Tensor Permute(const Tensor& x, const std::vector<int64_t>& perm) {
  const Shape& xs = x.shape();
  EMAF_CHECK_EQ(static_cast<int64_t>(perm.size()), xs.rank());
  std::vector<int64_t> seen(perm.size(), 0);
  std::vector<int64_t> out_dims(perm.size());
  std::vector<int64_t> x_strides = xs.Strides();
  std::vector<int64_t> in_strides(perm.size());
  for (size_t i = 0; i < perm.size(); ++i) {
    int64_t p = xs.CanonicalAxis(perm[i]);
    EMAF_CHECK_EQ(seen[p], 0) << "duplicate axis in permutation";
    seen[p] = 1;
    out_dims[i] = xs.dim(p);
    in_strides[i] = x_strides[p];
  }
  Shape out_shape(out_dims);
  Tensor out = StridedCopy(x, out_shape, std::move(in_strides));
  if (ph::Active()) ph::Record({ph::OpKind::kPermute, {x}, out, 0.0, 0.0, perm});
  if (ShouldRecord({x})) {
    std::vector<int64_t> canonical(perm.size());
    for (size_t i = 0; i < perm.size(); ++i) canonical[i] = xs.CanonicalAxis(perm[i]);
    std::vector<int64_t> inverse = InversePerm(canonical);
    SetGradFn(&out, "Permute", {x}, [inverse](const Tensor& g) {
      NoGradGuard guard;
      return std::vector<Tensor>{Permute(g, inverse)};
    });
  }
  return out;
}

Tensor Transpose(const Tensor& x, int64_t dim0, int64_t dim1) {
  int64_t a = x.shape().CanonicalAxis(dim0);
  int64_t b = x.shape().CanonicalAxis(dim1);
  std::vector<int64_t> perm(x.rank());
  for (int64_t i = 0; i < x.rank(); ++i) perm[i] = i;
  std::swap(perm[a], perm[b]);
  return Permute(x, perm);
}

Tensor TransposeLast2(const Tensor& x) {
  EMAF_CHECK_GE(x.rank(), 2);
  return Transpose(x, x.rank() - 2, x.rank() - 1);
}

Tensor Squeeze(const Tensor& x, int64_t dim) {
  int64_t axis = x.shape().CanonicalAxis(dim);
  EMAF_CHECK_EQ(x.shape().dim(axis), 1)
      << "Squeeze on non-unit axis of " << x.shape().ToString();
  std::vector<int64_t> dims = x.shape().dims();
  dims.erase(dims.begin() + axis);
  return Reshape(x, Shape(dims));
}

Tensor Unsqueeze(const Tensor& x, int64_t dim) {
  int64_t rank = x.rank();
  if (dim < 0) dim += rank + 1;
  EMAF_CHECK_GE(dim, 0);
  EMAF_CHECK_LE(dim, rank);
  std::vector<int64_t> dims = x.shape().dims();
  dims.insert(dims.begin() + dim, 1);
  return Reshape(x, Shape(dims));
}

Tensor Slice(const Tensor& x, int64_t dim, int64_t start, int64_t end) {
  const Shape& xs = x.shape();
  int64_t axis = xs.CanonicalAxis(dim);
  int64_t d = xs.dim(axis);
  if (start < 0) start += d;
  if (end < 0) end += d;
  EMAF_CHECK_GE(start, 0);
  EMAF_CHECK_LE(end, d);
  EMAF_CHECK_LT(start, end) << "empty slice [" << start << ", " << end << ")";

  int64_t outer = 1;
  int64_t inner = 1;
  for (int64_t i = 0; i < axis; ++i) outer *= xs.dim(i);
  for (int64_t i = axis + 1; i < xs.rank(); ++i) inner *= xs.dim(i);
  int64_t len = end - start;

  std::vector<int64_t> out_dims = xs.dims();
  out_dims[axis] = len;
  Tensor out = MakeUninitialized(Shape(out_dims));
  const Scalar* xd = x.data();
  Scalar* od = out.data();
  for (int64_t o = 0; o < outer; ++o) {
    const Scalar* src = xd + (o * d + start) * inner;
    std::copy(src, src + len * inner, od + o * len * inner);
  }
  if (ph::Active()) {
    ph::Record({ph::OpKind::kSlice, {x}, out, 0.0, 0.0, {axis, start, end}});
  }
  if (ShouldRecord({x})) {
    Shape x_shape = xs;
    SetGradFn(&out, "Slice", {x},
              [x_shape, outer, inner, d, len, start](const Tensor& g) {
                Tensor gx = Tensor::Zeros(x_shape);
                const Scalar* gd = g.data();
                Scalar* gxd = gx.data();
                for (int64_t o = 0; o < outer; ++o) {
                  const Scalar* src = gd + o * len * inner;
                  Scalar* dst = gxd + (o * d + start) * inner;
                  std::copy(src, src + len * inner, dst);
                }
                return std::vector<Tensor>{gx};
              });
  }
  return out;
}

Tensor Select(const Tensor& x, int64_t dim, int64_t index) {
  int64_t axis = x.shape().CanonicalAxis(dim);
  if (index < 0) index += x.shape().dim(axis);
  Tensor sliced = Slice(x, axis, index, index + 1);
  return Squeeze(sliced, axis);
}

Tensor Cat(const std::vector<Tensor>& tensors, int64_t dim) {
  EMAF_CHECK(!tensors.empty());
  const Shape& first = tensors[0].shape();
  int64_t axis = first.CanonicalAxis(dim);
  int64_t total = 0;
  for (const Tensor& t : tensors) {
    EMAF_CHECK_EQ(t.rank(), first.rank());
    for (int64_t i = 0; i < first.rank(); ++i) {
      if (i != axis) {
        EMAF_CHECK_EQ(t.shape().dim(i), first.dim(i))
            << "Cat shape mismatch on axis " << i;
      }
    }
    total += t.shape().dim(axis);
  }
  std::vector<int64_t> out_dims = first.dims();
  out_dims[axis] = total;
  Shape out_shape(out_dims);
  Tensor out = MakeUninitialized(out_shape);

  int64_t outer = 1;
  int64_t inner = 1;
  for (int64_t i = 0; i < axis; ++i) outer *= first.dim(i);
  for (int64_t i = axis + 1; i < first.rank(); ++i) inner *= first.dim(i);

  Scalar* od = out.data();
  int64_t written = 0;
  for (const Tensor& t : tensors) {
    int64_t len = t.shape().dim(axis);
    const Scalar* td = t.data();
    for (int64_t o = 0; o < outer; ++o) {
      const Scalar* src = td + o * len * inner;
      std::copy(src, src + len * inner, od + (o * total + written) * inner);
    }
    written += len;
  }

  if (ph::Active()) {
    ph::Record({ph::OpKind::kCat, tensors, out, 0.0, 0.0, {axis}});
  }
  if (ShouldRecord(tensors)) {
    std::vector<int64_t> lengths;
    lengths.reserve(tensors.size());
    for (const Tensor& t : tensors) lengths.push_back(t.shape().dim(axis));
    SetGradFn(&out, "Cat", tensors, [axis, lengths](const Tensor& g) {
      NoGradGuard guard;
      std::vector<Tensor> grads;
      grads.reserve(lengths.size());
      int64_t offset = 0;
      for (int64_t len : lengths) {
        grads.push_back(Slice(g, axis, offset, offset + len));
        offset += len;
      }
      return grads;
    });
  }
  return out;
}

Tensor Stack(const std::vector<Tensor>& tensors, int64_t dim) {
  EMAF_CHECK(!tensors.empty());
  std::vector<Tensor> expanded;
  expanded.reserve(tensors.size());
  for (const Tensor& t : tensors) expanded.push_back(Unsqueeze(t, dim));
  return Cat(expanded, dim);
}

Tensor Pad(const Tensor& x,
           const std::vector<std::pair<int64_t, int64_t>>& padding) {
  const Shape& xs = x.shape();
  EMAF_CHECK_EQ(static_cast<int64_t>(padding.size()), xs.rank());
  std::vector<int64_t> out_dims(xs.rank());
  for (int64_t i = 0; i < xs.rank(); ++i) {
    EMAF_CHECK_GE(padding[i].first, 0);
    EMAF_CHECK_GE(padding[i].second, 0);
    out_dims[i] = xs.dim(i) + padding[i].first + padding[i].second;
  }
  Shape out_shape(out_dims);
  Tensor out = Tensor::Zeros(out_shape);

  // Copy x into the interior region via odometer over x indices.
  std::vector<int64_t> out_strides = out_shape.Strides();
  const std::vector<int64_t>& dims = xs.dims();
  int64_t rank = xs.rank();
  std::vector<int64_t> index(rank, 0);
  const Scalar* xd = x.data();
  Scalar* od = out.data();
  int64_t base = 0;
  for (int64_t i = 0; i < rank; ++i) base += padding[i].first * out_strides[i];
  int64_t n = xs.NumElements();
  // Rows along the innermost axis are contiguous in both tensors.
  int64_t row = dims[rank - 1];
  int64_t rows = n / row;
  int64_t off = base;
  for (int64_t r = 0; r < rows; ++r) {
    std::copy(xd + r * row, xd + (r + 1) * row, od + off);
    for (int64_t axis = rank - 2; axis >= 0; --axis) {
      off += out_strides[axis];
      if (++index[axis] < dims[axis]) break;
      off -= out_strides[axis] * dims[axis];
      index[axis] = 0;
    }
  }

  if (ph::Active()) {
    std::vector<int64_t> flat;
    flat.reserve(padding.size() * 2);
    for (const auto& [before, after] : padding) {
      flat.push_back(before);
      flat.push_back(after);
    }
    ph::Record({ph::OpKind::kPad, {x}, out, 0.0, 0.0, std::move(flat)});
  }
  if (ShouldRecord({x})) {
    Shape x_shape = xs;
    SetGradFn(&out, "Pad", {x}, [x_shape, padding](const Tensor& g) {
      NoGradGuard guard;
      // One Slice (one copy) per padded axis; unpadded axes need none.
      Tensor region = g;
      for (int64_t i = 0; i < x_shape.rank(); ++i) {
        if (padding[i].first == 0 && padding[i].second == 0) continue;
        region = Slice(region, i, padding[i].first,
                       padding[i].first + x_shape.dim(i));
      }
      return std::vector<Tensor>{region};
    });
  }
  return out;
}

Tensor BroadcastTo(const Tensor& x, const Shape& shape) {
  EMAF_CHECK(IsBroadcastableTo(x.shape(), shape))
      << x.shape().ToString() << " -> " << shape.ToString();
  std::vector<int64_t> in_strides = BroadcastStrides(x.shape(), shape);
  Tensor out = StridedCopy(x, shape, std::move(in_strides));
  if (ph::Active()) {
    ph::Record({ph::OpKind::kBroadcastTo, {x}, out, 0.0, 0.0, shape.dims()});
  }
  if (ShouldRecord({x})) {
    Shape x_shape = x.shape();
    SetGradFn(&out, "BroadcastTo", {x}, [x_shape](const Tensor& g) {
      NoGradGuard guard;
      return std::vector<Tensor>{internal::GradSumTo(g, x_shape)};
    });
  }
  return out;
}

}  // namespace emaf::tensor
