#include <cmath>

#include "tensor/op_common.h"
#include "tensor/ops.h"
#include "tensor/plan_hook.h"

namespace emaf::tensor {

namespace {

using internal::GradSumTo;
using internal::MapBinary;
using internal::MapUnary;
using internal::SumTo;

namespace ph = plan_hook;

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  Tensor out = MapBinary(a, b, [](Scalar x, Scalar y) { return x + y; });
  if (ph::Active()) ph::Record(ph::OpKind::kAdd, {a, b}, out);
  if (ShouldRecord({a, b})) {
    Shape sa = a.shape();
    Shape sb = b.shape();
    SetGradFn(&out, "Add", {a, b}, [sa, sb](const Tensor& g) {
      return std::vector<Tensor>{GradSumTo(g, sa), GradSumTo(g, sb)};
    });
  }
  return out;
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  Tensor out = MapBinary(a, b, [](Scalar x, Scalar y) { return x - y; });
  if (ph::Active()) ph::Record(ph::OpKind::kSub, {a, b}, out);
  if (ShouldRecord({a, b})) {
    Shape sa = a.shape();
    Shape sb = b.shape();
    SetGradFn(&out, "Sub", {a, b}, [sa, sb](const Tensor& g) {
      // SumTo always returns a fresh buffer, so negating it in place
      // cannot reach `g` or the other operand's gradient.
      Tensor gb = SumTo(g, sb);
      Scalar* d = gb.data();
      const int64_t emaf_n = gb.NumElements();
      for (int64_t i = 0; i < emaf_n; ++i) d[i] = -d[i];
      return std::vector<Tensor>{GradSumTo(g, sa), gb};
    });
  }
  return out;
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  Tensor out = MapBinary(a, b, [](Scalar x, Scalar y) { return x * y; });
  if (ph::Active()) ph::Record(ph::OpKind::kMul, {a, b}, out);
  if (ShouldRecord({a, b})) {
    Tensor ad = a.Detach();
    Tensor bd = b.Detach();
    SetGradFn(&out, "Mul", {a, b}, [ad, bd](const Tensor& g) {
      NoGradGuard guard;
      return std::vector<Tensor>{GradSumTo(Mul(g, bd), ad.shape()),
                                 GradSumTo(Mul(g, ad), bd.shape())};
    });
  }
  return out;
}

Tensor Div(const Tensor& a, const Tensor& b) {
  Tensor out = MapBinary(a, b, [](Scalar x, Scalar y) { return x / y; });
  if (ph::Active()) ph::Record(ph::OpKind::kDiv, {a, b}, out);
  if (ShouldRecord({a, b})) {
    Tensor ad = a.Detach();
    Tensor bd = b.Detach();
    SetGradFn(&out, "Div", {a, b}, [ad, bd](const Tensor& g) {
      NoGradGuard guard;
      // d/da = g / b ; d/db = -g * a / b^2
      Tensor ga = GradSumTo(Div(g, bd), ad.shape());
      Tensor gb = GradSumTo(Neg(Div(Mul(g, ad), Mul(bd, bd))), bd.shape());
      return std::vector<Tensor>{ga, gb};
    });
  }
  return out;
}

Tensor Maximum(const Tensor& a, const Tensor& b) {
  Tensor out =
      MapBinary(a, b, [](Scalar x, Scalar y) { return x > y ? x : y; });
  if (ph::Active()) ph::Record(ph::OpKind::kMaximum, {a, b}, out);
  if (ShouldRecord({a, b})) {
    Tensor ad = a.Detach();
    Tensor bd = b.Detach();
    SetGradFn(&out, "Maximum", {a, b}, [ad, bd](const Tensor& g) {
      NoGradGuard guard;
      // Subgradient: ties route to `a`.
      Tensor pick_a =
          MapBinary(ad, bd, [](Scalar x, Scalar y) { return x >= y ? 1.0 : 0.0; });
      Tensor pick_b =
          MapBinary(ad, bd, [](Scalar x, Scalar y) { return x >= y ? 0.0 : 1.0; });
      return std::vector<Tensor>{GradSumTo(Mul(g, pick_a), ad.shape()),
                                 GradSumTo(Mul(g, pick_b), bd.shape())};
    });
  }
  return out;
}

Tensor Minimum(const Tensor& a, const Tensor& b) {
  Tensor out =
      MapBinary(a, b, [](Scalar x, Scalar y) { return x < y ? x : y; });
  if (ph::Active()) ph::Record(ph::OpKind::kMinimum, {a, b}, out);
  if (ShouldRecord({a, b})) {
    Tensor ad = a.Detach();
    Tensor bd = b.Detach();
    SetGradFn(&out, "Minimum", {a, b}, [ad, bd](const Tensor& g) {
      NoGradGuard guard;
      Tensor pick_a =
          MapBinary(ad, bd, [](Scalar x, Scalar y) { return x <= y ? 1.0 : 0.0; });
      Tensor pick_b =
          MapBinary(ad, bd, [](Scalar x, Scalar y) { return x <= y ? 0.0 : 1.0; });
      return std::vector<Tensor>{GradSumTo(Mul(g, pick_a), ad.shape()),
                                 GradSumTo(Mul(g, pick_b), bd.shape())};
    });
  }
  return out;
}

Tensor Neg(const Tensor& x) {
  Tensor out = MapUnary(x, [](Scalar v) { return -v; });
  if (ph::Active()) ph::Record(ph::OpKind::kNeg, {x}, out);
  if (ShouldRecord({x})) {
    SetGradFn(&out, "Neg", {x}, [](const Tensor& g) {
      NoGradGuard guard;
      return std::vector<Tensor>{MapUnary(g, [](Scalar v) { return -v; })};
    });
  }
  return out;
}

Tensor Exp(const Tensor& x) {
  Tensor out = MapUnary(x, [](Scalar v) { return std::exp(v); });
  if (ph::Active()) ph::Record(ph::OpKind::kExp, {x}, out);
  if (ShouldRecord({x})) {
    Tensor y = out.Detach();
    SetGradFn(&out, "Exp", {x}, [y](const Tensor& g) {
      NoGradGuard guard;
      return std::vector<Tensor>{Mul(g, y)};
    });
  }
  return out;
}

Tensor Log(const Tensor& x) {
  Tensor out = MapUnary(x, [](Scalar v) { return std::log(v); });
  if (ph::Active()) ph::Record(ph::OpKind::kLog, {x}, out);
  if (ShouldRecord({x})) {
    Tensor xd = x.Detach();
    SetGradFn(&out, "Log", {x}, [xd](const Tensor& g) {
      NoGradGuard guard;
      return std::vector<Tensor>{Div(g, xd)};
    });
  }
  return out;
}

Tensor Sqrt(const Tensor& x) {
  Tensor out = MapUnary(x, [](Scalar v) { return std::sqrt(v); });
  if (ph::Active()) ph::Record(ph::OpKind::kSqrt, {x}, out);
  if (ShouldRecord({x})) {
    Tensor y = out.Detach();
    SetGradFn(&out, "Sqrt", {x}, [y](const Tensor& g) {
      NoGradGuard guard;
      // d/dx sqrt(x) = 1 / (2 sqrt(x))
      return std::vector<Tensor>{Div(g, MulScalar(y, 2.0))};
    });
  }
  return out;
}

Tensor Abs(const Tensor& x) {
  Tensor out = MapUnary(x, [](Scalar v) { return std::abs(v); });
  if (ph::Active()) ph::Record(ph::OpKind::kAbs, {x}, out);
  if (ShouldRecord({x})) {
    Tensor xd = x.Detach();
    SetGradFn(&out, "Abs", {x}, [xd](const Tensor& g) {
      NoGradGuard guard;
      Tensor sign =
          MapUnary(xd, [](Scalar v) { return v > 0 ? 1.0 : (v < 0 ? -1.0 : 0.0); });
      return std::vector<Tensor>{Mul(g, sign)};
    });
  }
  return out;
}

Tensor Pow(const Tensor& x, Scalar exponent) {
  Tensor out =
      MapUnary(x, [exponent](Scalar v) { return std::pow(v, exponent); });
  if (ph::Active()) ph::Record(ph::OpKind::kPow, {x}, out, exponent);
  if (ShouldRecord({x})) {
    Tensor xd = x.Detach();
    SetGradFn(&out, "Pow", {x}, [xd, exponent](const Tensor& g) {
      NoGradGuard guard;
      Tensor deriv = MapUnary(
          xd, [exponent](Scalar v) { return exponent * std::pow(v, exponent - 1.0); });
      return std::vector<Tensor>{Mul(g, deriv)};
    });
  }
  return out;
}

Tensor Clamp(const Tensor& x, Scalar low, Scalar high) {
  EMAF_CHECK_LE(low, high);
  Tensor out = MapUnary(x, [low, high](Scalar v) {
    return v < low ? low : (v > high ? high : v);
  });
  if (ph::Active()) ph::Record({ph::OpKind::kClamp, {x}, out, low, high, {}});
  if (ShouldRecord({x})) {
    Tensor xd = x.Detach();
    SetGradFn(&out, "Clamp", {x}, [xd, low, high](const Tensor& g) {
      NoGradGuard guard;
      Tensor pass = MapUnary(xd, [low, high](Scalar v) {
        return (v >= low && v <= high) ? 1.0 : 0.0;
      });
      return std::vector<Tensor>{Mul(g, pass)};
    });
  }
  return out;
}

Tensor AddScalar(const Tensor& x, Scalar s) {
  Tensor out = MapUnary(x, [s](Scalar v) { return v + s; });
  if (ph::Active()) ph::Record(ph::OpKind::kAddScalar, {x}, out, s);
  if (ShouldRecord({x})) {
    SetGradFn(&out, "AddScalar", {x}, [](const Tensor& g) {
      return std::vector<Tensor>{g};
    });
  }
  return out;
}

Tensor MulScalar(const Tensor& x, Scalar s) {
  Tensor out = MapUnary(x, [s](Scalar v) { return v * s; });
  if (ph::Active()) ph::Record(ph::OpKind::kMulScalar, {x}, out, s);
  if (ShouldRecord({x})) {
    SetGradFn(&out, "MulScalar", {x}, [s](const Tensor& g) {
      NoGradGuard guard;
      return std::vector<Tensor>{internal::MapUnary(g, [s](Scalar v) { return v * s; })};
    });
  }
  return out;
}

}  // namespace emaf::tensor
