#include "nn/rnn.h"

#include <memory>
#include <vector>

#include "common/check.h"
#include "tensor/ops.h"

namespace emaf::nn {

using tensor::Shape;
using tensor::Tensor;

GruCell::GruCell(int64_t input_size, int64_t hidden_size, Rng* rng)
    : hidden_size_(hidden_size) {
  input_gates_ = RegisterModule(
      "input_gates",
      std::make_unique<Linear>(input_size, 3 * hidden_size, /*bias=*/true, rng));
  hidden_gates_ = RegisterModule(
      "hidden_gates",
      std::make_unique<Linear>(hidden_size, 3 * hidden_size, /*bias=*/true, rng));
}

Tensor GruCell::Forward(const Tensor& x, const Tensor& h) {
  EMAF_CHECK_EQ(h.dim(-1), hidden_size_);
  Tensor gx = input_gates_->Forward(x);   // [B, 3H]
  Tensor gh = hidden_gates_->Forward(h);  // [B, 3H]
  int64_t H = hidden_size_;
  Tensor r = tensor::Sigmoid(
      tensor::Add(tensor::Slice(gx, -1, 0, H), tensor::Slice(gh, -1, 0, H)));
  Tensor z = tensor::Sigmoid(tensor::Add(tensor::Slice(gx, -1, H, 2 * H),
                                         tensor::Slice(gh, -1, H, 2 * H)));
  Tensor n = tensor::Tanh(
      tensor::Add(tensor::Slice(gx, -1, 2 * H, 3 * H),
                  tensor::Mul(r, tensor::Slice(gh, -1, 2 * H, 3 * H))));
  // h' = (1 - z) * n + z * h
  return tensor::Add(tensor::Mul(tensor::AddScalar(tensor::Neg(z), 1.0), n),
                     tensor::Mul(z, h));
}

LstmCell::LstmCell(int64_t input_size, int64_t hidden_size, Rng* rng)
    : hidden_size_(hidden_size) {
  input_gates_ = RegisterModule(
      "input_gates",
      std::make_unique<Linear>(input_size, 4 * hidden_size, /*bias=*/true, rng));
  hidden_gates_ = RegisterModule(
      "hidden_gates",
      std::make_unique<Linear>(hidden_size, 4 * hidden_size, /*bias=*/true, rng));
  // Forget-gate bias starts at 1 so early training does not wash out state.
  tensor::Scalar* bias = input_gates_->bias()->data();
  for (int64_t i = hidden_size; i < 2 * hidden_size; ++i) bias[i] = 1.0;
}

LstmCell::State LstmCell::Forward(const Tensor& x, const State& state) {
  Tensor gates =
      tensor::Add(input_gates_->Forward(x), hidden_gates_->Forward(state.h));
  int64_t H = hidden_size_;
  Tensor i = tensor::Sigmoid(tensor::Slice(gates, -1, 0, H));
  Tensor f = tensor::Sigmoid(tensor::Slice(gates, -1, H, 2 * H));
  Tensor g = tensor::Tanh(tensor::Slice(gates, -1, 2 * H, 3 * H));
  Tensor o = tensor::Sigmoid(tensor::Slice(gates, -1, 3 * H, 4 * H));
  Tensor c = tensor::Add(tensor::Mul(f, state.c), tensor::Mul(i, g));
  Tensor h = tensor::Mul(o, tensor::Tanh(c));
  return {h, c};
}

Lstm::Lstm(int64_t input_size, int64_t hidden_size, Rng* rng)
    : input_size_(input_size) {
  cell_ = RegisterModule("cell",
                         std::make_unique<LstmCell>(input_size, hidden_size, rng));
}

Tensor Lstm::Forward(const Tensor& sequence) {
  EMAF_CHECK_EQ(sequence.rank(), 3) << "Lstm expects [B, L, input]";
  EMAF_CHECK_EQ(sequence.dim(2), input_size_);
  int64_t batch = sequence.dim(0);
  int64_t steps = sequence.dim(1);
  LstmCell::State state{
      Tensor::Zeros(Shape{batch, cell_->hidden_size()}),
      Tensor::Zeros(Shape{batch, cell_->hidden_size()}),
  };
  std::vector<Tensor> outputs;
  outputs.reserve(steps);
  for (int64_t t = 0; t < steps; ++t) {
    Tensor xt = tensor::Select(sequence, 1, t);  // [B, input]
    state = cell_->Forward(xt, state);
    outputs.push_back(state.h);
  }
  return tensor::Stack(outputs, 1);  // [B, L, H]
}

Tensor Lstm::ForwardLast(const Tensor& sequence) {
  Tensor all = Forward(sequence);
  return tensor::Select(all, 1, all.dim(1) - 1);
}

}  // namespace emaf::nn
