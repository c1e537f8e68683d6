#include "models/var_forecaster.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"
#include "tensor/ops.h"

namespace emaf::models {

using tensor::Shape;

Tensor SolveSpd(const Tensor& a, const Tensor& b) {
  EMAF_CHECK_EQ(a.rank(), 2);
  EMAF_CHECK_EQ(a.dim(0), a.dim(1));
  EMAF_CHECK_EQ(b.rank(), 2);
  EMAF_CHECK_EQ(b.dim(0), a.dim(0));
  int64_t n = a.dim(0);
  int64_t m = b.dim(1);

  // Cholesky factorization A = L L^T.
  std::vector<double> l(static_cast<size_t>(n * n), 0.0);
  const double* ad = a.data();
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j <= i; ++j) {
      double sum = ad[i * n + j];
      for (int64_t k = 0; k < j; ++k) {
        sum -= l[static_cast<size_t>(i * n + k)] *
               l[static_cast<size_t>(j * n + k)];
      }
      if (i == j) {
        EMAF_CHECK_GT(sum, 0.0) << "SolveSpd: matrix not positive definite";
        l[static_cast<size_t>(i * n + i)] = std::sqrt(sum);
      } else {
        l[static_cast<size_t>(i * n + j)] =
            sum / l[static_cast<size_t>(j * n + j)];
      }
    }
  }

  // Forward/back substitution per right-hand-side column.
  Tensor x = Tensor::Zeros(Shape{n, m});
  const double* bd = b.data();
  double* xd = x.data();
  std::vector<double> y(static_cast<size_t>(n), 0.0);
  for (int64_t c = 0; c < m; ++c) {
    for (int64_t i = 0; i < n; ++i) {
      double sum = bd[i * m + c];
      for (int64_t k = 0; k < i; ++k) {
        sum -= l[static_cast<size_t>(i * n + k)] * y[static_cast<size_t>(k)];
      }
      y[static_cast<size_t>(i)] = sum / l[static_cast<size_t>(i * n + i)];
    }
    for (int64_t i = n - 1; i >= 0; --i) {
      double sum = y[static_cast<size_t>(i)];
      for (int64_t k = i + 1; k < n; ++k) {
        sum -= l[static_cast<size_t>(k * n + i)] * xd[k * m + c];
      }
      xd[i * m + c] = sum / l[static_cast<size_t>(i * n + i)];
    }
  }
  return x;
}

VarForecaster::VarForecaster(int64_t num_variables, int64_t input_length,
                             const VarConfig& config)
    : num_variables_(num_variables),
      input_length_(input_length),
      ridge_(config.ridge) {
  EMAF_CHECK_GT(num_variables, 0);
  EMAF_CHECK_GT(input_length, 0);
  int64_t features = input_length * num_variables + 1;
  coefficients_ = RegisterParameter(
      "coefficients", Tensor::Zeros(Shape{features, num_variables}));
}

void VarForecaster::Fit(const Tensor& inputs, const Tensor& targets) {
  EMAF_CHECK_EQ(inputs.rank(), 3);
  EMAF_CHECK_EQ(inputs.dim(1), input_length_);
  EMAF_CHECK_EQ(inputs.dim(2), num_variables_);
  EMAF_CHECK_EQ(targets.rank(), 2);
  EMAF_CHECK_EQ(inputs.dim(0), targets.dim(0));
  EMAF_CHECK_EQ(targets.dim(1), num_variables_);
  int64_t batch = inputs.dim(0);

  int64_t features = input_length_ * num_variables_ + 1;  // + intercept
  // Design matrix with bias column.
  Tensor design = Tensor::Ones(Shape{batch, features});
  const double* in = inputs.data();
  double* dd = design.data();
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t f = 0; f < features - 1; ++f) {
      dd[b * features + f] = in[b * (features - 1) + f];
    }
  }

  Tensor gram = tensor::MatMul(tensor::TransposeLast2(design), design);
  // Ridge on coefficients, not on the intercept (last diagonal entry).
  double* gd = gram.data();
  for (int64_t f = 0; f < features - 1; ++f) {
    gd[f * features + f] += ridge_;
  }
  gd[(features - 1) * features + (features - 1)] += 1e-9;  // numeric safety
  Tensor rhs = tensor::MatMul(tensor::TransposeLast2(design), targets);
  Tensor fitted = SolveSpd(gram, rhs);
  // Copy into the registered parameter in place so the pointer handed out
  // by NamedParameters stays valid.
  std::copy(fitted.data(), fitted.data() + fitted.NumElements(),
            coefficients_->data());
}

Tensor VarForecaster::Forward(const Tensor& window) {
  CheckWindow(window);
  int64_t batch = window.dim(0);
  int64_t features = input_length_ * num_variables_ + 1;
  // The design matrix Fit solves against — the lag block is a row-major
  // copy of the window with a trailing ones column — expressed through
  // tensor ops so the whole forward is visible to plan recording
  // (tensor/plan_hook.h).
  Tensor lags = tensor::Reshape(window, Shape{batch, features - 1});
  Tensor design =
      tensor::Cat({lags, Tensor::Ones(Shape{batch, 1})}, /*dim=*/1);
  return tensor::MatMul(design, *coefficients_);
}

}  // namespace emaf::models
