#include "nn/module.h"

#include "common/check.h"

namespace emaf::nn {

Tensor* Module::RegisterParameter(std::string name, Tensor value) {
  EMAF_CHECK(value.defined());
  for (const auto& [existing, unused] : parameters_) {
    EMAF_CHECK_NE(existing, name) << "duplicate parameter name";
  }
  value.SetRequiresGrad(true);
  parameters_.emplace_back(std::move(name),
                           std::make_unique<Tensor>(std::move(value)));
  return parameters_.back().second.get();
}

void Module::AddChild(std::string name, std::unique_ptr<Module> module) {
  EMAF_CHECK(module != nullptr);
  for (const auto& [existing, unused] : children_) {
    EMAF_CHECK_NE(existing, name) << "duplicate child module name";
  }
  children_.emplace_back(std::move(name), std::move(module));
}

void Module::CollectParameters(const std::string& prefix,
                               std::vector<NamedParameter>* out) {
  for (auto& [name, tensor] : parameters_) {
    out->push_back({prefix.empty() ? name : prefix + "." + name, tensor.get()});
  }
  for (auto& [name, child] : children_) {
    child->CollectParameters(prefix.empty() ? name : prefix + "." + name, out);
  }
}

std::vector<NamedParameter> Module::NamedParameters() {
  std::vector<NamedParameter> out;
  CollectParameters("", &out);
  return out;
}

std::vector<Tensor*> Module::Parameters() {
  std::vector<Tensor*> out;
  for (const NamedParameter& p : NamedParameters()) out.push_back(p.value);
  return out;
}

int64_t Module::ParameterCount() {
  int64_t total = 0;
  for (Tensor* t : Parameters()) total += t->NumElements();
  return total;
}

void Module::SetTraining(bool training) {
  training_ = training;
  for (auto& [unused, child] : children_) child->SetTraining(training);
}

void Module::ZeroGrad() {
  for (Tensor* t : Parameters()) t->ZeroGrad();
}

}  // namespace emaf::nn
