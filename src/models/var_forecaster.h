// VAR(L) ridge-regression baseline as a Forecaster Module.
//
// The classic comparator in the psychopathology-network literature
// (Section II-A): a linear map from the flattened window to the next step,
// fit in closed form with ridge regularization — there is no iterative
// training. The coefficient matrix is a registered module parameter, so
// VAR is constructible through the registry, serializable through
// nn::serialize, and servable through serve::ModelStore like the neural
// families.

#ifndef EMAF_MODELS_VAR_FORECASTER_H_
#define EMAF_MODELS_VAR_FORECASTER_H_

#include <cstdint>
#include <string>

#include "models/forecaster.h"

namespace emaf::models {

struct VarConfig {
  // L2 penalty on the coefficients (intercept unpenalized).
  double ridge = 1.0;
};

class VarForecaster : public Forecaster {
 public:
  VarForecaster(int64_t num_variables, int64_t input_length,
                const VarConfig& config);

  // Closed-form ridge fit on inputs [B, L, V] -> targets [B, V]; the
  // resulting coefficients land in the registered parameter.
  void Fit(const Tensor& inputs, const Tensor& targets);

  // design([window, 1]) x coefficients. Before Fit (or a parameter load)
  // the coefficients are zero and the forecast is zero.
  Tensor Forward(const Tensor& window) override;

  std::string name() const override { return "VAR"; }
  int64_t num_variables() const override { return num_variables_; }
  int64_t input_length() const override { return input_length_; }

  double ridge() const { return ridge_; }
  // [L*V + 1, V]; last row is the intercept.
  const Tensor& coefficients() const { return *coefficients_; }

 private:
  int64_t num_variables_;
  int64_t input_length_;
  double ridge_;
  Tensor* coefficients_;
};

// Solves the symmetric positive-definite system A x = b (Cholesky); the
// ridge fit's normal equations. Exposed for tests. A: [n, n], b: [n, m]
// -> x: [n, m].
Tensor SolveSpd(const Tensor& a, const Tensor& b);

}  // namespace emaf::models

#endif  // EMAF_MODELS_VAR_FORECASTER_H_
