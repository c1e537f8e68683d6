#include <cmath>

#include "tensor/op_common.h"
#include "tensor/ops.h"
#include "tensor/plan_hook.h"

namespace emaf::tensor {

namespace {

using internal::MapUnary;

namespace ph = plan_hook;

void DecomposeAround(const Shape& shape, int64_t axis, int64_t* outer,
                     int64_t* d, int64_t* inner) {
  *outer = 1;
  *inner = 1;
  for (int64_t i = 0; i < axis; ++i) *outer *= shape.dim(i);
  *d = shape.dim(axis);
  for (int64_t i = axis + 1; i < shape.rank(); ++i) *inner *= shape.dim(i);
}

void SoftmaxCompute(const Tensor& x, Tensor* out, int64_t outer, int64_t d,
                    int64_t inner) {
  const Scalar* xd = x.data();
  Scalar* od = out->data();
  for (int64_t o = 0; o < outer; ++o) {
    for (int64_t i = 0; i < inner; ++i) {
      Scalar max_v = xd[(o * d) * inner + i];
      for (int64_t k = 1; k < d; ++k) {
        max_v = std::max(max_v, xd[(o * d + k) * inner + i]);
      }
      Scalar denom = 0.0;
      for (int64_t k = 0; k < d; ++k) {
        Scalar e = std::exp(xd[(o * d + k) * inner + i] - max_v);
        od[(o * d + k) * inner + i] = e;
        denom += e;
      }
      for (int64_t k = 0; k < d; ++k) od[(o * d + k) * inner + i] /= denom;
    }
  }
}

void LogSoftmaxCompute(const Tensor& x, Tensor* out, int64_t outer, int64_t d,
                       int64_t inner) {
  const Scalar* xd = x.data();
  Scalar* od = out->data();
  for (int64_t o = 0; o < outer; ++o) {
    for (int64_t i = 0; i < inner; ++i) {
      Scalar max_v = xd[(o * d) * inner + i];
      for (int64_t k = 1; k < d; ++k) {
        max_v = std::max(max_v, xd[(o * d + k) * inner + i]);
      }
      Scalar denom = 0.0;
      for (int64_t k = 0; k < d; ++k) {
        denom += std::exp(xd[(o * d + k) * inner + i] - max_v);
      }
      Scalar log_denom = max_v + std::log(denom);
      for (int64_t k = 0; k < d; ++k) {
        int64_t idx = (o * d + k) * inner + i;
        od[idx] = xd[idx] - log_denom;
      }
    }
  }
}

}  // namespace

Tensor Relu(const Tensor& x) {
  Tensor out = MapUnary(x, [](Scalar v) { return v > 0.0 ? v : 0.0; });
  if (ph::Active()) ph::Record(ph::OpKind::kRelu, {x}, out);
  if (ShouldRecord({x})) {
    Tensor xd = x.Detach();
    SetGradFn(&out, "Relu", {x}, [xd](const Tensor& g) {
      NoGradGuard guard;
      Tensor gx = MakeUninitialized(g.shape());
      const Scalar* gd = g.data();
      const Scalar* xv = xd.data();
      Scalar* o = gx.data();
      const int64_t emaf_n = g.NumElements();
      for (int64_t i = 0; i < emaf_n; ++i) {
        o[i] = xv[i] > 0 ? gd[i] : 0.0;
      }
      return std::vector<Tensor>{gx};
    });
  }
  return out;
}

Tensor LeakyRelu(const Tensor& x, Scalar negative_slope) {
  Tensor out = MapUnary(x, [negative_slope](Scalar v) {
    return v > 0.0 ? v : negative_slope * v;
  });
  if (ph::Active()) {
    ph::Record(ph::OpKind::kLeakyRelu, {x}, out, negative_slope);
  }
  if (ShouldRecord({x})) {
    Tensor xd = x.Detach();
    SetGradFn(&out, "LeakyRelu", {x}, [xd, negative_slope](const Tensor& g) {
      NoGradGuard guard;
      Tensor gx = MakeUninitialized(g.shape());
      const Scalar* gd = g.data();
      const Scalar* xv = xd.data();
      Scalar* o = gx.data();
      const int64_t emaf_n = g.NumElements();
      for (int64_t i = 0; i < emaf_n; ++i) {
        o[i] = xv[i] > 0 ? gd[i] : negative_slope * gd[i];
      }
      return std::vector<Tensor>{gx};
    });
  }
  return out;
}

Tensor Elu(const Tensor& x, Scalar alpha) {
  Tensor out = MapUnary(x, [alpha](Scalar v) {
    return v > 0.0 ? v : alpha * (std::exp(v) - 1.0);
  });
  if (ph::Active()) ph::Record(ph::OpKind::kElu, {x}, out, alpha);
  if (ShouldRecord({x})) {
    Tensor xd = x.Detach();
    Tensor y = out.Detach();
    SetGradFn(&out, "Elu", {x}, [xd, y, alpha](const Tensor& g) {
      NoGradGuard guard;
      Tensor gx = MakeUninitialized(g.shape());
      const Scalar* gd = g.data();
      const Scalar* xv = xd.data();
      const Scalar* yv = y.data();
      Scalar* o = gx.data();
      const int64_t emaf_n = g.NumElements();
      for (int64_t i = 0; i < emaf_n; ++i) {
        // d/dx elu = 1 for x>0 else elu(x)+alpha.
        o[i] = xv[i] > 0 ? gd[i] : gd[i] * (yv[i] + alpha);
      }
      return std::vector<Tensor>{gx};
    });
  }
  return out;
}

Tensor Sigmoid(const Tensor& x) {
  Tensor out = MapUnary(x, [](Scalar v) {
    // Numerically stable logistic.
    if (v >= 0.0) {
      Scalar e = std::exp(-v);
      return 1.0 / (1.0 + e);
    }
    Scalar e = std::exp(v);
    return e / (1.0 + e);
  });
  if (ph::Active()) ph::Record(ph::OpKind::kSigmoid, {x}, out);
  if (ShouldRecord({x})) {
    Tensor y = out.Detach();
    SetGradFn(&out, "Sigmoid", {x}, [y](const Tensor& g) {
      NoGradGuard guard;
      Tensor gx = MakeUninitialized(g.shape());
      const Scalar* gd = g.data();
      const Scalar* yv = y.data();
      Scalar* o = gx.data();
      const int64_t emaf_n = g.NumElements();
      for (int64_t i = 0; i < emaf_n; ++i) {
        o[i] = gd[i] * yv[i] * (1.0 - yv[i]);
      }
      return std::vector<Tensor>{gx};
    });
  }
  return out;
}

Tensor Tanh(const Tensor& x) {
  Tensor out = MapUnary(x, [](Scalar v) { return std::tanh(v); });
  if (ph::Active()) ph::Record(ph::OpKind::kTanh, {x}, out);
  if (ShouldRecord({x})) {
    Tensor y = out.Detach();
    SetGradFn(&out, "Tanh", {x}, [y](const Tensor& g) {
      NoGradGuard guard;
      Tensor gx = MakeUninitialized(g.shape());
      const Scalar* gd = g.data();
      const Scalar* yv = y.data();
      Scalar* o = gx.data();
      const int64_t emaf_n = g.NumElements();
      for (int64_t i = 0; i < emaf_n; ++i) {
        o[i] = gd[i] * (1.0 - yv[i] * yv[i]);
      }
      return std::vector<Tensor>{gx};
    });
  }
  return out;
}

Tensor Softmax(const Tensor& x, int64_t dim) {
  int64_t axis = x.shape().CanonicalAxis(dim);
  int64_t outer;
  int64_t d;
  int64_t inner;
  DecomposeAround(x.shape(), axis, &outer, &d, &inner);
  EMAF_CHECK_GT(d, 0);

  Tensor out = MakeUninitialized(x.shape());
  SoftmaxCompute(x, &out, outer, d, inner);

  if (ph::Active()) {
    ph::Record({ph::OpKind::kSoftmax, {x}, out, 0.0, 0.0, {axis}});
  }
  if (ShouldRecord({x})) {
    Tensor y = out.Detach();
    SetGradFn(&out, "Softmax", {x}, [y, outer, d, inner](const Tensor& g) {
      NoGradGuard guard;
      // gx = (g - sum_k g_k y_k) * y, per slice.
      Tensor gx = MakeUninitialized(g.shape());
      const Scalar* gd = g.data();
      const Scalar* yv = y.data();
      Scalar* o = gx.data();
      for (int64_t ob = 0; ob < outer; ++ob) {
        for (int64_t i = 0; i < inner; ++i) {
          Scalar dot = 0.0;
          for (int64_t k = 0; k < d; ++k) {
            int64_t idx = (ob * d + k) * inner + i;
            dot += gd[idx] * yv[idx];
          }
          for (int64_t k = 0; k < d; ++k) {
            int64_t idx = (ob * d + k) * inner + i;
            o[idx] = (gd[idx] - dot) * yv[idx];
          }
        }
      }
      return std::vector<Tensor>{gx};
    });
  }
  return out;
}

Tensor LogSoftmax(const Tensor& x, int64_t dim) {
  int64_t axis = x.shape().CanonicalAxis(dim);
  int64_t outer;
  int64_t d;
  int64_t inner;
  DecomposeAround(x.shape(), axis, &outer, &d, &inner);
  EMAF_CHECK_GT(d, 0);

  Tensor out = MakeUninitialized(x.shape());
  LogSoftmaxCompute(x, &out, outer, d, inner);

  if (ph::Active()) {
    ph::Record({ph::OpKind::kLogSoftmax, {x}, out, 0.0, 0.0, {axis}});
  }
  if (ShouldRecord({x})) {
    Tensor y = out.Detach();
    SetGradFn(&out, "LogSoftmax", {x}, [y, outer, d, inner](const Tensor& g) {
      NoGradGuard guard;
      // gx = g - softmax(x) * sum_k g_k, per slice.
      Tensor gx = MakeUninitialized(g.shape());
      const Scalar* gd = g.data();
      const Scalar* yv = y.data();
      Scalar* o = gx.data();
      for (int64_t ob = 0; ob < outer; ++ob) {
        for (int64_t i = 0; i < inner; ++i) {
          Scalar total = 0.0;
          for (int64_t k = 0; k < d; ++k) {
            total += gd[(ob * d + k) * inner + i];
          }
          for (int64_t k = 0; k < d; ++k) {
            int64_t idx = (ob * d + k) * inner + i;
            o[idx] = gd[idx] - std::exp(yv[idx]) * total;
          }
        }
      }
      return std::vector<Tensor>{gx};
    });
  }
  return out;
}

Tensor Dropout(const Tensor& x, Scalar p, bool training, Rng* rng) {
  EMAF_CHECK_GE(p, 0.0);
  EMAF_CHECK_LT(p, 1.0) << "Dropout probability must be < 1";
  if (!training || p == 0.0) return x;
  EMAF_CHECK(rng != nullptr);
  Scalar keep = 1.0 - p;
  Tensor mask = MakeUninitialized(x.shape());
  Scalar* md = mask.data();
  const int64_t emaf_n = mask.NumElements();
  for (int64_t i = 0; i < emaf_n; ++i) {
    md[i] = rng->Bernoulli(keep) ? 1.0 / keep : 0.0;
  }
  Tensor out = internal::MapBinary(x, mask, [](Scalar a, Scalar b) { return a * b; });
  if (ShouldRecord({x})) {
    SetGradFn(&out, "Dropout", {x}, [mask](const Tensor& g) {
      NoGradGuard guard;
      return std::vector<Tensor>{internal::MapBinary(
          g, mask, [](Scalar a, Scalar b) { return a * b; })};
    });
  }
  return out;
}

}  // namespace emaf::tensor
