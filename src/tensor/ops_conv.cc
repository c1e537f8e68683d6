#include "common/metrics.h"
#include "common/thread_pool.h"
#include "tensor/op_common.h"
#include "tensor/ops.h"
#include "tensor/plan_hook.h"

namespace emaf::tensor {

namespace {

// im2col/col2im element count below which the batch loop stays serial
// (fork/join overhead dominates on small tensors). Each batch element
// touches a disjoint slab, so the parallel result is bitwise identical to
// the serial one at any thread count.
constexpr int64_t kConvParallelMinElems = 1 << 14;

// Runs fn(n) for every batch index, in parallel when worthwhile.
template <typename F>
void ForEachBatch(int64_t batch, int64_t work_per_call, F fn) {
  common::ThreadPool& pool = common::ThreadPool::Global();
  auto run = [&fn](int64_t lo, int64_t hi) {
    for (int64_t n = lo; n < hi; ++n) fn(n);
  };
  if (pool.num_threads() > 1 && batch > 1 &&
      batch * work_per_call >= kConvParallelMinElems) {
    EMAF_METRIC_COUNTER_ADD("conv.dispatch_parallel", 1);
    pool.ParallelFor(0, batch, 1, run);
  } else {
    EMAF_METRIC_COUNTER_ADD("conv.dispatch_serial", 1);
    run(0, batch);
  }
}

int64_t ConvOutExtent(int64_t in, int64_t kernel, int64_t stride, int64_t pad,
                      int64_t dilation) {
  int64_t effective = dilation * (kernel - 1) + 1;
  int64_t out = (in + 2 * pad - effective) / stride + 1;
  EMAF_CHECK_GT(out, 0) << "conv2d produces empty output (in=" << in
                        << " kernel=" << kernel << " stride=" << stride
                        << " pad=" << pad << " dilation=" << dilation << ")";
  return out;
}

struct ConvDims {
  int64_t batch;
  int64_t in_channels;
  int64_t in_h;
  int64_t in_w;
  int64_t out_channels;
  int64_t kernel_h;
  int64_t kernel_w;
  int64_t out_h;
  int64_t out_w;
  int64_t rows() const { return batch * out_h * out_w; }     // im2col M
  int64_t cols() const { return in_channels * kernel_h * kernel_w; }  // K
};

// Builds the im2col matrix [rows, cols]: row (n, oh, ow) holds the receptive
// field values for every (c, kh, kw), zero where padding is sampled.
Tensor Im2Col(const Scalar* in, const ConvDims& d, const Conv2dOptions& o) {
  Tensor col = Tensor::Zeros(Shape{d.rows(), d.cols()});
  Scalar* cd = col.data();
  const int64_t K = d.cols();
  ForEachBatch(d.batch, d.out_h * d.out_w * K, [&](int64_t n) {
    const Scalar* in_n = in + n * d.in_channels * d.in_h * d.in_w;
    Scalar* col_n = cd + n * d.out_h * d.out_w * K;
    for (int64_t c = 0; c < d.in_channels; ++c) {
      const Scalar* plane = in_n + c * d.in_h * d.in_w;
      for (int64_t kh = 0; kh < d.kernel_h; ++kh) {
        for (int64_t kw = 0; kw < d.kernel_w; ++kw) {
          int64_t k_idx = (c * d.kernel_h + kh) * d.kernel_w + kw;
          for (int64_t oh = 0; oh < d.out_h; ++oh) {
            int64_t ih = oh * o.stride_h - o.pad_h + kh * o.dilation_h;
            if (ih < 0 || ih >= d.in_h) continue;
            const Scalar* row = plane + ih * d.in_w;
            Scalar* dst = col_n + (oh * d.out_w) * K + k_idx;
            for (int64_t ow = 0; ow < d.out_w; ++ow) {
              int64_t iw = ow * o.stride_w - o.pad_w + kw * o.dilation_w;
              if (iw >= 0 && iw < d.in_w) dst[ow * K] = row[iw];
            }
          }
        }
      }
    }
  });
  return col;
}

// Scatter-adds the gradient of the im2col matrix back onto the input.
void Col2ImAdd(const Scalar* col, const ConvDims& d, const Conv2dOptions& o,
               Scalar* gin) {
  const int64_t K = d.cols();
  ForEachBatch(d.batch, d.out_h * d.out_w * K, [&](int64_t n) {
    Scalar* gin_n = gin + n * d.in_channels * d.in_h * d.in_w;
    const Scalar* col_n = col + n * d.out_h * d.out_w * K;
    for (int64_t c = 0; c < d.in_channels; ++c) {
      Scalar* plane = gin_n + c * d.in_h * d.in_w;
      for (int64_t kh = 0; kh < d.kernel_h; ++kh) {
        for (int64_t kw = 0; kw < d.kernel_w; ++kw) {
          int64_t k_idx = (c * d.kernel_h + kh) * d.kernel_w + kw;
          for (int64_t oh = 0; oh < d.out_h; ++oh) {
            int64_t ih = oh * o.stride_h - o.pad_h + kh * o.dilation_h;
            if (ih < 0 || ih >= d.in_h) continue;
            Scalar* row = plane + ih * d.in_w;
            const Scalar* src = col_n + (oh * d.out_w) * K + k_idx;
            for (int64_t ow = 0; ow < d.out_w; ++ow) {
              int64_t iw = ow * o.stride_w - o.pad_w + kw * o.dilation_w;
              if (iw >= 0 && iw < d.in_w) row[iw] += src[ow * K];
            }
          }
        }
      }
    }
  });
}

// [O, K] -> [K, O] transpose copy (weights are small).
Tensor TransposeMatrix(const Scalar* src, int64_t rows, int64_t cols) {
  Tensor out = MakeUninitialized(Shape{cols, rows});
  Scalar* od = out.data();
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) od[c * rows + r] = src[r * cols + c];
  }
  return out;
}

// The forward compute: fills *col_out (cached by the gradient closure) and
// returns the [N, O, out_h, out_w] output.
Tensor Conv2dForward(const Tensor& input, const Tensor& weight,
                     const Tensor& bias, const Conv2dOptions& options,
                     const ConvDims& d, Tensor* col_out) {
  // out_mat [M, O] = col [M, K] x W^T [K, O].
  Tensor col = Im2Col(input.data(), d, options);
  Tensor w_t = TransposeMatrix(weight.data(), d.out_channels, d.cols());
  Tensor out_mat = Tensor::Zeros(Shape{d.rows(), d.out_channels});
  internal::ParallelMatMul(col.data(), w_t.data(), out_mat.data(), d.rows(),
                           d.cols(), d.out_channels);

  // Scatter [M, O] -> [N, O, out_h, out_w], adding the bias.
  Tensor out =
      MakeUninitialized(Shape{d.batch, d.out_channels, d.out_h, d.out_w});
  Scalar* od = out.data();
  const Scalar* md = out_mat.data();
  const Scalar* b_d = bias.defined() ? bias.data() : nullptr;
  int64_t hw = d.out_h * d.out_w;
  ForEachBatch(d.batch, d.out_channels * hw, [&](int64_t n) {
    for (int64_t o = 0; o < d.out_channels; ++o) {
      Scalar b = b_d != nullptr ? b_d[o] : 0.0;
      Scalar* plane = od + (n * d.out_channels + o) * hw;
      const Scalar* src = md + n * hw * d.out_channels + o;
      for (int64_t i = 0; i < hw; ++i) {
        plane[i] = src[i * d.out_channels] + b;
      }
    }
  });
  *col_out = col;
  return out;
}

}  // namespace

Tensor Conv2d(const Tensor& input, const Tensor& weight, const Tensor& bias,
              const Conv2dOptions& options) {
  EMAF_CHECK_EQ(input.rank(), 4) << "conv2d input must be [N, C, H, W]";
  EMAF_CHECK_EQ(weight.rank(), 4) << "conv2d weight must be [O, C, KH, KW]";
  ConvDims d;
  d.batch = input.dim(0);
  d.in_channels = input.dim(1);
  d.in_h = input.dim(2);
  d.in_w = input.dim(3);
  d.out_channels = weight.dim(0);
  EMAF_CHECK_EQ(weight.dim(1), d.in_channels) << "conv2d channel mismatch";
  d.kernel_h = weight.dim(2);
  d.kernel_w = weight.dim(3);
  if (bias.defined()) {
    EMAF_CHECK_EQ(bias.rank(), 1);
    EMAF_CHECK_EQ(bias.dim(0), d.out_channels);
  }
  EMAF_CHECK_GE(options.stride_h, 1);
  EMAF_CHECK_GE(options.stride_w, 1);
  EMAF_CHECK_GE(options.dilation_h, 1);
  EMAF_CHECK_GE(options.dilation_w, 1);
  EMAF_CHECK_GE(options.pad_h, 0);
  EMAF_CHECK_GE(options.pad_w, 0);
  d.out_h = ConvOutExtent(d.in_h, d.kernel_h, options.stride_h, options.pad_h,
                          options.dilation_h);
  d.out_w = ConvOutExtent(d.in_w, d.kernel_w, options.stride_w, options.pad_w,
                          options.dilation_w);

  Tensor col;  // cached for the weight gradient
  Tensor out = Conv2dForward(input, weight, bias, options, d, &col);

  if (plan_hook::Active()) {
    plan_hook::Record({plan_hook::OpKind::kConv2d,
                       {input, weight, bias},
                       out,
                       0.0,
                       0.0,
                       {options.stride_h, options.stride_w, options.pad_h,
                        options.pad_w, options.dilation_h,
                        options.dilation_w}});
  }
  std::vector<Tensor> tracked = {input, weight};
  if (bias.defined()) tracked.push_back(bias);
  if (ShouldRecord(tracked)) {
    Tensor w_saved = weight.Detach();
    bool has_bias = bias.defined();
    Conv2dOptions opts = options;
    Shape input_shape = input.shape();
    std::vector<Tensor> node_inputs = {input, weight};
    if (has_bias) node_inputs.push_back(bias);
    // `col` is cached for the weight gradient (memory-for-speed tradeoff).
    SetGradFn(
        &out, "Conv2d", node_inputs,
        [col, w_saved, has_bias, opts, d, input_shape](const Tensor& g) {
          NoGradGuard guard;
          int64_t hw = d.out_h * d.out_w;
          // Gather g [N, O, oh, ow] -> gmat [M, O].
          Tensor gmat = MakeUninitialized(Shape{d.rows(), d.out_channels});
          {
            Scalar* gm = gmat.data();
            const Scalar* gd = g.data();
            ForEachBatch(d.batch, d.out_channels * hw, [&](int64_t n) {
              for (int64_t o = 0; o < d.out_channels; ++o) {
                const Scalar* plane = gd + (n * d.out_channels + o) * hw;
                Scalar* dst = gm + n * hw * d.out_channels + o;
                for (int64_t i = 0; i < hw; ++i) {
                  dst[i * d.out_channels] = plane[i];
                }
              }
            });
          }

          // gw [O, K] = gmat^T [O, M] x col [M, K].
          Tensor gmat_t =
              TransposeMatrix(gmat.data(), d.rows(), d.out_channels);
          Tensor gw = Tensor::Zeros(
              Shape{d.out_channels, d.in_channels, d.kernel_h, d.kernel_w});
          internal::ParallelMatMul(gmat_t.data(), col.data(), gw.data(),
                                   d.out_channels, d.rows(), d.cols());

          // gcol [M, K] = gmat [M, O] x W [O, K]; then col2im scatter-add.
          Tensor gcol = Tensor::Zeros(Shape{d.rows(), d.cols()});
          internal::ParallelMatMul(gmat.data(), w_saved.data(), gcol.data(),
                                   d.rows(), d.out_channels, d.cols());
          Tensor gin = Tensor::Zeros(input_shape);
          Col2ImAdd(gcol.data(), d, opts, gin.data());

          std::vector<Tensor> grads = {gin, gw};
          if (has_bias) {
            Tensor gb = Tensor::Zeros(Shape{d.out_channels});
            Scalar* gbd = gb.data();
            const Scalar* gm = gmat.data();
            for (int64_t r = 0; r < d.rows(); ++r) {
              for (int64_t o = 0; o < d.out_channels; ++o) {
                gbd[o] += gm[r * d.out_channels + o];
              }
            }
            grads.push_back(gb);
          }
          return grads;
        });
  }
  return out;
}

}  // namespace emaf::tensor
