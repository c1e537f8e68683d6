#include "nn/optimizer.h"

#include <cmath>

#include "common/check.h"

namespace emaf::nn {

using tensor::Scalar;
using tensor::Tensor;

Optimizer::Optimizer(std::vector<Tensor*> parameters)
    : parameters_(std::move(parameters)) {
  for (Tensor* p : parameters_) {
    EMAF_CHECK(p != nullptr);
    EMAF_CHECK(p->defined());
    EMAF_CHECK(p->requires_grad()) << "optimizer parameter without grad flag";
  }
}

void Optimizer::ZeroGrad() {
  for (Tensor* p : parameters_) p->ZeroGrad();
}

Sgd::Sgd(std::vector<Tensor*> parameters, const SgdOptions& options)
    : Optimizer(std::move(parameters)), options_(options) {
  velocity_.resize(parameters_.size());
  for (size_t i = 0; i < parameters_.size(); ++i) {
    velocity_[i].assign(static_cast<size_t>(parameters_[i]->NumElements()),
                        0.0);
  }
}

void Sgd::Step() {
  for (size_t i = 0; i < parameters_.size(); ++i) {
    Tensor* p = parameters_[i];
    Tensor grad = p->grad();
    if (!grad.defined()) continue;
    Scalar* x = p->data();
    const Scalar* g = grad.data();
    std::vector<double>& vel = velocity_[i];
    for (int64_t j = 0; j < p->NumElements(); ++j) {
      double effective = g[j] + options_.weight_decay * x[j];
      if (options_.momentum != 0.0) {
        vel[j] = options_.momentum * vel[j] + effective;
        effective = vel[j];
      }
      x[j] -= options_.lr * effective;
    }
  }
}

Adam::Adam(std::vector<Tensor*> parameters, const AdamOptions& options)
    : Optimizer(std::move(parameters)), options_(options) {
  m_.resize(parameters_.size());
  v_.resize(parameters_.size());
  for (size_t i = 0; i < parameters_.size(); ++i) {
    size_t n = static_cast<size_t>(parameters_[i]->NumElements());
    m_[i].assign(n, 0.0);
    v_[i].assign(n, 0.0);
  }
}

void Adam::Step() {
  ++step_count_;
  double bias1 = 1.0 - std::pow(options_.beta1, step_count_);
  double bias2 = 1.0 - std::pow(options_.beta2, step_count_);
  for (size_t i = 0; i < parameters_.size(); ++i) {
    Tensor* p = parameters_[i];
    Tensor grad = p->grad();
    if (!grad.defined()) continue;
    Scalar* x = p->data();
    const Scalar* g = grad.data();
    std::vector<double>& m = m_[i];
    std::vector<double>& v = v_[i];
    for (int64_t j = 0; j < p->NumElements(); ++j) {
      double effective = g[j] + options_.weight_decay * x[j];
      m[j] = options_.beta1 * m[j] + (1.0 - options_.beta1) * effective;
      v[j] = options_.beta2 * v[j] + (1.0 - options_.beta2) * effective * effective;
      double m_hat = m[j] / bias1;
      double v_hat = v[j] / bias2;
      x[j] -= options_.lr * m_hat / (std::sqrt(v_hat) + options_.epsilon);
    }
  }
}

double GlobalGradNorm(const std::vector<Tensor*>& parameters) {
  double total = 0.0;
  for (Tensor* p : parameters) {
    Tensor grad = p->grad();
    if (!grad.defined()) continue;
    const Scalar* g = grad.data();
    for (int64_t j = 0; j < grad.NumElements(); ++j) total += g[j] * g[j];
  }
  return std::sqrt(total);
}

double ClipGradNorm(const std::vector<Tensor*>& parameters, double max_norm) {
  EMAF_CHECK_GT(max_norm, 0.0);
  double norm = GlobalGradNorm(parameters);
  if (norm > max_norm) {
    double scale = max_norm / (norm + 1e-12);
    for (Tensor* p : parameters) {
      Tensor grad = p->grad();
      if (!grad.defined()) continue;
      Scalar* g = grad.data();
      for (int64_t j = 0; j < grad.NumElements(); ++j) g[j] *= scale;
    }
  }
  return norm;
}

}  // namespace emaf::nn
