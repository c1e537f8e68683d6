// Module: base class for neural network components.
//
// A Module owns named parameters (leaf tensors with requires_grad) and named
// child modules. NamedParameters() flattens the tree with dotted names
// ("gru.update_gate.weight"), which is what optimizers and the checkpoint
// format consume. Forward signatures are model-specific and therefore not
// part of this interface.

#ifndef EMAF_NN_MODULE_H_
#define EMAF_NN_MODULE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "tensor/tensor.h"

namespace emaf::nn {

using tensor::Tensor;

struct NamedParameter {
  std::string name;
  Tensor* value;
};

class Module {
 public:
  virtual ~Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  // All parameters in this module and its children, depth-first, with
  // dotted path names. Pointers remain owned by the module tree.
  std::vector<NamedParameter> NamedParameters();
  std::vector<Tensor*> Parameters();

  // Total number of scalar parameters.
  int64_t ParameterCount();

  // Recursively switches train/eval behaviour (dropout etc.).
  void SetTraining(bool training);
  bool training() const { return training_; }

  // Clears accumulated gradients on every parameter.
  void ZeroGrad();

 protected:
  Module() = default;

  // Registers `value` as a trainable parameter; returns a stable pointer.
  Tensor* RegisterParameter(std::string name, Tensor value);

  // Registers a child; returns the concrete pointer for member storage.
  template <typename M>
  M* RegisterModule(std::string name, std::unique_ptr<M> module) {
    M* raw = module.get();
    AddChild(std::move(name), std::move(module));
    return raw;
  }

 private:
  void AddChild(std::string name, std::unique_ptr<Module> module);
  void CollectParameters(const std::string& prefix,
                         std::vector<NamedParameter>* out);

  std::vector<std::pair<std::string, std::unique_ptr<Tensor>>> parameters_;
  std::vector<std::pair<std::string, std::unique_ptr<Module>>> children_;
  bool training_ = true;
};

}  // namespace emaf::nn

#endif  // EMAF_NN_MODULE_H_
