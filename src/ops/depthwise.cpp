#include "ops/depthwise.hpp"

#include "common/check.hpp"
#include "device/launch.hpp"
#include "simd/depthwise.hpp"

namespace dsx {

namespace {

struct DwDims {
  int64_t N, C, H, W, K, Ho, Wo;
};

DwDims resolve(const Shape& input, const Shape& weight,
               const DepthwiseArgs& args) {
  DSX_REQUIRE(input.rank() == 4, "depthwise: input must be NCHW");
  DSX_REQUIRE(weight.rank() == 4 && weight.dim(1) == 1 &&
                  weight.dim(2) == weight.dim(3),
              "depthwise: weight must be [C,1,K,K], got "
                  << weight.to_string());
  DSX_REQUIRE(weight.dim(0) == input.c(),
              "depthwise: weight C " << weight.dim(0) << " vs input C "
                                     << input.c());
  DwDims d;
  d.N = input.n();
  d.C = input.c();
  d.H = input.h();
  d.W = input.w();
  d.K = weight.dim(2);
  d.Ho = conv_out_size(d.H, d.K, args.stride, args.pad);
  d.Wo = conv_out_size(d.W, d.K, args.stride, args.pad);
  return d;
}

}  // namespace

Shape depthwise_output_shape(const Shape& input, const Shape& weight,
                             const DepthwiseArgs& args) {
  const DwDims d = resolve(input, weight, args);
  return make_nchw(d.N, d.C, d.Ho, d.Wo);
}

Tensor depthwise_forward(const Tensor& input, const Tensor& weight,
                         const Tensor* bias, const DepthwiseArgs& args) {
  Tensor out(depthwise_output_shape(input.shape(), weight.shape(), args));
  depthwise_forward_into(input, weight, bias, args, out);
  return out;
}

void depthwise_forward_into(const Tensor& input, const Tensor& weight,
                            const Tensor* bias, const DepthwiseArgs& args,
                            Tensor& out, bool fuse_relu) {
  const DwDims d = resolve(input.shape(), weight.shape(), args);
  if (bias != nullptr) {
    DSX_REQUIRE(bias->shape() == Shape{d.C}, "depthwise: bad bias shape");
  }
  DSX_REQUIRE(out.shape() == make_nchw(d.N, d.C, d.Ho, d.Wo),
              "depthwise: out shape " << out.shape().to_string());

  // The register-tiled forward of dsx::simd's SSE2 table (the x86-64
  // baseline, so no dispatch; below FMA level the tile keeps the
  // bounds-checked scalar per-element op sequence).
  simd::sse2::table().depthwise_forward(simd::make_dw_call(
      input, weight, bias, args, out, fuse_relu, "dw_forward"));
}

DepthwiseGrads depthwise_backward(const Tensor& input, const Tensor& weight,
                                  const Tensor& doutput,
                                  const DepthwiseArgs& args, bool need_dinput,
                                  bool has_bias) {
  const DwDims d = resolve(input.shape(), weight.shape(), args);
  DSX_REQUIRE(doutput.shape() == make_nchw(d.N, d.C, d.Ho, d.Wo),
              "depthwise_backward: doutput shape "
                  << doutput.shape().to_string());
  DepthwiseGrads grads;
  grads.dweight = Tensor(weight.shape());
  const int64_t planeo = d.Ho * d.Wo;
  const int64_t plane = d.H * d.W;

  // dW: one model-thread per weight tap per channel; race-free because each
  // (c, ky, kx) is owned by one thread, accumulation runs over n, y, x.
  device::launch_kernel_chunks_modeled(
      "dw_dweight", d.C, d.C * d.K * d.K,
      {2.0 * static_cast<double>(d.N * planeo), 8.0},
      [&](int64_t b, int64_t e) {
        for (int64_t c = b; c < e; ++c) {
          float* dw = grads.dweight.data() + c * d.K * d.K;
          for (int64_t ky = 0; ky < d.K; ++ky) {
            for (int64_t kx = 0; kx < d.K; ++kx) {
              double acc = 0.0;
              for (int64_t n = 0; n < d.N; ++n) {
                const float* in_p = input.data() + (n * d.C + c) * plane;
                const float* do_p = doutput.data() + (n * d.C + c) * planeo;
                for (int64_t y = 0; y < d.Ho; ++y) {
                  const int64_t iy = y * args.stride + ky - args.pad;
                  if (iy < 0 || iy >= d.H) continue;
                  for (int64_t x = 0; x < d.Wo; ++x) {
                    const int64_t ix = x * args.stride + kx - args.pad;
                    if (ix < 0 || ix >= d.W) continue;
                    acc += do_p[y * d.Wo + x] * in_p[iy * d.W + ix];
                  }
                }
              }
              dw[ky * d.K + kx] = static_cast<float>(acc);
            }
          }
        }
      });

  if (need_dinput) {
    grads.dinput = Tensor(input.shape());
    // Input-centric: each input pixel gathers the output positions whose
    // window covered it. Race-free by construction.
    device::launch_kernel_chunks_modeled(
        "dw_dinput", d.N * d.C, d.N * d.C * plane,
        {2.0 * static_cast<double>(d.K * d.K), 4.0 * (d.K * d.K + 2.0)},
        [&](int64_t b, int64_t e) {
          for (int64_t nc = b; nc < e; ++nc) {
            const int64_t c = nc % d.C;
            const float* w = weight.data() + c * d.K * d.K;
            const float* do_p = doutput.data() + nc * planeo;
            float* di_p = grads.dinput.data() + nc * plane;
            for (int64_t iy = 0; iy < d.H; ++iy) {
              for (int64_t ix = 0; ix < d.W; ++ix) {
                float acc = 0.0f;
                for (int64_t ky = 0; ky < d.K; ++ky) {
                  const int64_t ty = iy + args.pad - ky;
                  if (ty < 0 || ty % args.stride != 0) continue;
                  const int64_t y = ty / args.stride;
                  if (y >= d.Ho) continue;
                  for (int64_t kx = 0; kx < d.K; ++kx) {
                    const int64_t tx = ix + args.pad - kx;
                    if (tx < 0 || tx % args.stride != 0) continue;
                    const int64_t x = tx / args.stride;
                    if (x >= d.Wo) continue;
                    acc += w[ky * d.K + kx] * do_p[y * d.Wo + x];
                  }
                }
                di_p[iy * d.W + ix] = acc;
              }
            }
          }
        });
  }

  if (has_bias) {
    grads.dbias = Tensor(Shape{d.C});
    device::launch_kernel_chunks(
        "dw_dbias", d.C, {1.0, 8.0}, [&](int64_t b, int64_t e) {
          for (int64_t c = b; c < e; ++c) {
            double acc = 0.0;
            for (int64_t n = 0; n < d.N; ++n) {
              const float* p = doutput.data() + (n * d.C + c) * planeo;
              for (int64_t j = 0; j < planeo; ++j) acc += p[j];
            }
            grads.dbias.data()[c] = static_cast<float>(acc);
          }
        });
  }
  return grads;
}

}  // namespace dsx
