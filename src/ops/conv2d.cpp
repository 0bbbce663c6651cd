#include "ops/conv2d.hpp"

#include <algorithm>
#include <vector>

#include "common/check.hpp"
#include "device/launch.hpp"
#include "ops/activations.hpp"
#include "ops/gemm.hpp"
#include "ops/im2col.hpp"

namespace dsx {

namespace {

struct ConvDims {
  int64_t N, Cin, H, W;
  int64_t Cout, K;
  int64_t Ho, Wo;
  int64_t groups, cin_g, cout_g;
};

/// Epilogue over the GEMM/direct output: adds the bias, then applies the
/// fused ReLU. One launch item per (n, oc) plane, one model thread per
/// output element.
void bias_relu_rows(const Tensor* bias, bool relu, int64_t N, int64_t Cout,
                    int64_t planeo, Tensor& out) {
  if (bias == nullptr && !relu) return;
  const double flops = (bias != nullptr ? 1.0 : 0.0) + (relu ? 1.0 : 0.0);
  device::launch_kernel_chunks_modeled(
      "conv2d_bias", N * Cout, N * Cout * planeo, {flops, 8.0},
      [&](int64_t b, int64_t e) {
        for (int64_t i = b; i < e; ++i) {
          float* p = out.data() + i * planeo;
          if (bias != nullptr) {
            const float bv = bias->data()[i % Cout];
            for (int64_t j = 0; j < planeo; ++j) p[j] += bv;
          }
          if (relu) {
            for (int64_t j = 0; j < planeo; ++j) p[j] = relu_value(p[j]);
          }
        }
      });
}

ConvDims resolve_dims(const Shape& input, const Shape& weight,
                      const Conv2dArgs& args) {
  DSX_REQUIRE(input.rank() == 4, "conv2d: input must be NCHW, got "
                                     << input.to_string());
  DSX_REQUIRE(weight.rank() == 4, "conv2d: weight must be [Cout,Cin/g,K,K], got "
                                      << weight.to_string());
  DSX_REQUIRE(weight.dim(2) == weight.dim(3),
              "conv2d: non-square kernel " << weight.to_string());
  ConvDims d;
  d.N = input.n();
  d.Cin = input.c();
  d.H = input.h();
  d.W = input.w();
  d.Cout = weight.dim(0);
  d.K = weight.dim(2);
  d.groups = args.groups;
  DSX_REQUIRE(d.groups >= 1, "conv2d: groups must be >= 1");
  DSX_REQUIRE(d.Cin % d.groups == 0, "conv2d: Cin " << d.Cin
                                                    << " not divisible by groups "
                                                    << d.groups);
  DSX_REQUIRE(d.Cout % d.groups == 0, "conv2d: Cout " << d.Cout
                                                      << " not divisible by groups "
                                                      << d.groups);
  d.cin_g = d.Cin / d.groups;
  d.cout_g = d.Cout / d.groups;
  DSX_REQUIRE(weight.dim(1) == d.cin_g,
              "conv2d: weight expects " << weight.dim(1)
                                        << " input channels per group, input has "
                                        << d.cin_g);
  d.Ho = conv_out_size(d.H, d.K, args.stride, args.pad);
  d.Wo = conv_out_size(d.W, d.K, args.stride, args.pad);
  return d;
}

}  // namespace

Shape conv2d_output_shape(const Shape& input, const Shape& weight,
                          const Conv2dArgs& args) {
  const ConvDims d = resolve_dims(input, weight, args);
  return make_nchw(d.N, d.Cout, d.Ho, d.Wo);
}

Tensor conv2d_forward(const Tensor& input, const Tensor& weight,
                      const Tensor* bias, const Conv2dArgs& args) {
  // Compatibility wrapper: a throwaway arena makes this the allocating path.
  Workspace ws;
  Tensor out(conv2d_output_shape(input.shape(), weight.shape(), args));
  conv2d_forward_into(input, weight, bias, args, ws, out);
  return out;
}

int64_t conv2d_workspace_floats(const Shape& input, const Shape& weight,
                                const Conv2dArgs& args) {
  const ConvDims d = resolve_dims(input, weight, args);
  const bool is_1x1_dense = d.K == 1 && args.stride == 1 && args.pad == 0;
  return is_1x1_dense
             ? 0
             : Workspace::aligned_size(d.Cin * d.K * d.K * d.Ho * d.Wo);
}

void conv2d_forward_into(const Tensor& input, const Tensor& weight,
                         const Tensor* bias, const Conv2dArgs& args,
                         Workspace& ws, Tensor& out, bool fuse_relu) {
  const ConvDims d = resolve_dims(input.shape(), weight.shape(), args);
  if (bias != nullptr) {
    DSX_REQUIRE(bias->shape() == Shape{d.Cout},
                "conv2d: bias shape " << bias->shape().to_string());
  }
  DSX_REQUIRE(out.shape() == make_nchw(d.N, d.Cout, d.Ho, d.Wo),
              "conv2d: out shape " << out.shape().to_string());

  const int64_t planeo = d.Ho * d.Wo;
  const int64_t col_rows = d.Cin * d.K * d.K;
  const bool is_1x1_dense =
      d.K == 1 && args.stride == 1 && args.pad == 0;

  // col buffer reused across images (skipped on the dense 1x1 fast path).
  float* col = is_1x1_dense ? nullptr : ws.alloc(col_rows * planeo);

  for (int64_t n = 0; n < d.N; ++n) {
    const float* in_n = input.data() + n * d.Cin * d.H * d.W;
    float* out_n = out.data() + n * d.Cout * planeo;
    const float* lowered = in_n;
    if (!is_1x1_dense) {
      im2col(in_n, d.Cin, d.H, d.W, d.K, args.stride, args.pad, col);
      lowered = col;
    }
    const int64_t rows_g = d.cin_g * d.K * d.K;
    for (int64_t g = 0; g < d.groups; ++g) {
      // out_g [cout_g, planeo] = W_g [cout_g, rows_g] x col_g [rows_g, planeo]
      gemm(false, false, d.cout_g, planeo, rows_g, 1.0f,
           weight.data() + g * d.cout_g * rows_g, rows_g,
           lowered + g * rows_g * planeo, planeo, 0.0f,
           out_n + g * d.cout_g * planeo, planeo);
    }
  }

  bias_relu_rows(bias, fuse_relu, d.N, d.Cout, planeo, out);
}

void conv2d_forward_direct_into(const Tensor& input, const Tensor& weight,
                                const Tensor* bias, const Conv2dArgs& args,
                                Tensor& out, bool fuse_relu) {
  const ConvDims d = resolve_dims(input.shape(), weight.shape(), args);
  if (bias != nullptr) {
    DSX_REQUIRE(bias->shape() == Shape{d.Cout},
                "conv2d: bias shape " << bias->shape().to_string());
  }
  DSX_REQUIRE(out.shape() == make_nchw(d.N, d.Cout, d.Ho, d.Wo),
              "conv2d: out shape " << out.shape().to_string());

  const int64_t planeo = d.Ho * d.Wo;
  const int64_t stride = args.stride, pad = args.pad;

  // One chunk index per (n, oc) output plane, mirroring the GEMM row order:
  // taps iterate (ic, ky, kx) with the pixel loop innermost, zero weights
  // skipped, bias added by the shared post-pass - the exact float-op
  // sequence of the im2col route, minus the column materialisation.
  device::launch_kernel_chunks_modeled(
      "conv2d_direct", d.N * d.Cout, out.numel(),
      {2.0 * static_cast<double>(d.cin_g * d.K * d.K),
       4.0 * (static_cast<double>(d.cin_g * d.K * d.K) + 2.0)},
      [&](int64_t b, int64_t e) {
        for (int64_t row = b; row < e; ++row) {
          const int64_t n = row / d.Cout;
          const int64_t oc = row % d.Cout;
          const int64_t g = oc / d.cout_g;
          const float* in_n = input.data() + (n * d.Cin + g * d.cin_g) * d.H * d.W;
          const float* w_row = weight.data() + oc * d.cin_g * d.K * d.K;
          float* out_row = out.data() + row * planeo;
          for (int64_t j = 0; j < planeo; ++j) out_row[j] = 0.0f;
          for (int64_t ic = 0; ic < d.cin_g; ++ic) {
            const float* in_c = in_n + ic * d.H * d.W;
            for (int64_t ky = 0; ky < d.K; ++ky) {
              for (int64_t kx = 0; kx < d.K; ++kx) {
                const float wv = w_row[(ic * d.K + ky) * d.K + kx];
                if (wv == 0.0f) continue;  // mirrors the GEMM zero-row skip
                // In-bounds ox range for this tap (ix = ox*stride + kx - pad
                // in [0, W)); pixels outside it are the im2col zeros, whose
                // +-0.0f contributions never change the accumulator.
                const int64_t ox_lo =
                    pad > kx ? (pad - kx + stride - 1) / stride : 0;
                const int64_t ox_hi = std::min(
                    d.Wo, d.W - 1 - kx + pad >= 0
                              ? (d.W - 1 - kx + pad) / stride + 1
                              : int64_t{0});
                for (int64_t oy = 0; oy < d.Ho; ++oy) {
                  const int64_t iy = oy * stride + ky - pad;
                  if (iy < 0 || iy >= d.H) continue;  // im2col wrote zeros
                  const float* in_y = in_c + iy * d.W + kx - pad;
                  float* out_y = out_row + oy * d.Wo;
                  if (stride == 1) {
                    for (int64_t ox = ox_lo; ox < ox_hi; ++ox) {
                      out_y[ox] += wv * in_y[ox];
                    }
                  } else {
                    for (int64_t ox = ox_lo; ox < ox_hi; ++ox) {
                      out_y[ox] += wv * in_y[ox * stride];
                    }
                  }
                }
              }
            }
          }
        }
      });

  bias_relu_rows(bias, fuse_relu, d.N, d.Cout, planeo, out);
}

Conv2dGrads conv2d_backward(const Tensor& input, const Tensor& weight,
                            const Tensor& doutput, const Conv2dArgs& args,
                            bool need_dinput, bool has_bias) {
  const ConvDims d = resolve_dims(input.shape(), weight.shape(), args);
  DSX_REQUIRE(doutput.shape() == make_nchw(d.N, d.Cout, d.Ho, d.Wo),
              "conv2d_backward: doutput shape " << doutput.shape().to_string());

  Conv2dGrads grads;
  grads.dweight = Tensor(weight.shape());
  if (need_dinput) grads.dinput = Tensor(input.shape());

  const int64_t planeo = d.Ho * d.Wo;
  const int64_t rows_g = d.cin_g * d.K * d.K;
  const int64_t col_rows = d.Cin * d.K * d.K;
  const bool is_1x1_dense = d.K == 1 && args.stride == 1 && args.pad == 0;

  Tensor col;
  Tensor dcol;
  if (!is_1x1_dense) {
    col = Tensor(Shape{col_rows, planeo});
    if (need_dinput) dcol = Tensor(Shape{col_rows, planeo});
  }

  for (int64_t n = 0; n < d.N; ++n) {
    const float* in_n = input.data() + n * d.Cin * d.H * d.W;
    const float* dout_n = doutput.data() + n * d.Cout * planeo;
    const float* lowered = in_n;
    if (!is_1x1_dense) {
      im2col(in_n, d.Cin, d.H, d.W, d.K, args.stride, args.pad, col.data());
      lowered = col.data();
    }
    for (int64_t g = 0; g < d.groups; ++g) {
      // dW_g += dOut_g [cout_g, planeo] x col_g^T [planeo, rows_g]
      gemm(false, true, d.cout_g, rows_g, planeo, 1.0f,
           dout_n + g * d.cout_g * planeo, planeo,
           lowered + g * rows_g * planeo, planeo, 1.0f,
           grads.dweight.data() + g * d.cout_g * rows_g, rows_g);
    }
    if (need_dinput) {
      if (is_1x1_dense) {
        float* din_n = grads.dinput.data() + n * d.Cin * d.H * d.W;
        for (int64_t g = 0; g < d.groups; ++g) {
          // dIn_g = W_g^T [cin_g, cout_g] x dOut_g [cout_g, planeo]
          gemm(true, false, d.cin_g, planeo, d.cout_g, 1.0f,
               weight.data() + g * d.cout_g * d.cin_g, d.cin_g,
               dout_n + g * d.cout_g * planeo, planeo, 0.0f,
               din_n + g * d.cin_g * planeo, planeo);
        }
      } else {
        for (int64_t g = 0; g < d.groups; ++g) {
          gemm(true, false, rows_g, planeo, d.cout_g, 1.0f,
               weight.data() + g * d.cout_g * rows_g, rows_g,
               dout_n + g * d.cout_g * planeo, planeo, 0.0f,
               dcol.data() + g * rows_g * planeo, planeo);
        }
        col2im_add(dcol.data(), d.Cin, d.H, d.W, d.K, args.stride, args.pad,
                   grads.dinput.data() + n * d.Cin * d.H * d.W);
      }
    }
  }

  if (has_bias) {
    grads.dbias = Tensor(Shape{d.Cout});
    device::launch_kernel_chunks(
        "conv2d_dbias", d.Cout, {1.0, 8.0}, [&](int64_t b, int64_t e) {
          for (int64_t c = b; c < e; ++c) {
            double acc = 0.0;
            for (int64_t n = 0; n < d.N; ++n) {
              const float* p = doutput.data() + (n * d.Cout + c) * planeo;
              for (int64_t j = 0; j < planeo; ++j) acc += p[j];
            }
            grads.dbias.data()[c] = static_cast<float>(acc);
          }
        });
  }
  return grads;
}

}  // namespace dsx
