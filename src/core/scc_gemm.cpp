#include "core/scc_gemm.hpp"

#include "common/check.hpp"
#include "device/launch.hpp"
#include "ops/activations.hpp"
#include "ops/gemm.hpp"

namespace dsx::scc {

namespace {

struct GemmDims {
  int64_t N, Cin, H, W, Cout, Ho, Wo, gw, stride, rows;
};

GemmDims resolve(const Tensor& input, const Tensor& weight,
                 const ChannelWindowMap& map) {
  const SCCConfig& cfg = map.config();
  DSX_REQUIRE(weight.shape() == (Shape{cfg.out_channels, map.group_width()}),
              "SCC gemm: weight shape " << weight.shape().to_string());
  const Shape out_shape = scc_output_shape(input.shape(), map);
  GemmDims d;
  d.N = input.shape().n();
  d.Cin = input.shape().c();
  d.H = input.shape().h();
  d.W = input.shape().w();
  d.Cout = cfg.out_channels;
  d.Ho = out_shape.h();
  d.Wo = out_shape.w();
  d.gw = map.group_width();
  d.stride = cfg.stride;
  d.rows = d.N * d.Ho * d.Wo;
  return d;
}

/// Gathers filter f's lowered matrix A_f[r, k] = in[n, (start+k)%Cin,
/// oy*s, ox*s] where r = (n, oy, ox). This per-filter copy is the data
/// duplication the fused kernels avoid.
void gather_window(const Tensor& input, const ChannelWindowMap& map,
                   const GemmDims& d, int64_t filter, Tensor& a) {
  const ChannelWindow win = map.window(filter);
  device::launch_kernel_chunks_modeled(
      "scc_gemm_gather", d.rows, d.rows * d.gw,
      {0.0, 8.0}, [&](int64_t b, int64_t e) {
        for (int64_t r = b; r < e; ++r) {
          const int64_t n = r / (d.Ho * d.Wo);
          const int64_t oy = (r / d.Wo) % d.Ho;
          const int64_t ox = r % d.Wo;
          float* row = a.data() + r * d.gw;
          for (int64_t k = 0; k < d.gw; ++k) {
            const int64_t ic = (win.start + k) % d.Cin;
            row[k] = input.data()[((n * d.Cin + ic) * d.H + oy * d.stride) *
                                      d.W +
                                  ox * d.stride];
          }
        }
      });
}

}  // namespace

Tensor scc_forward_gemm(const Tensor& input, const Tensor& weight,
                        const Tensor* bias, const ChannelWindowMap& map) {
  // Compatibility wrapper: a throwaway arena makes this the allocating path.
  Workspace ws;
  return scc_forward_gemm_ws(input, weight, bias, map, ws);
}

int64_t scc_gemm_workspace_floats(const Shape& input,
                                  const ChannelWindowMap& map) {
  const Shape out_shape = scc_output_shape(input, map);
  const int64_t rows = input.n() * out_shape.h() * out_shape.w();
  // Gather buffer + output column, each rounded as alloc() will round them.
  return Workspace::aligned_size(rows * map.group_width()) +
         Workspace::aligned_size(rows);
}

Tensor scc_forward_gemm_ws(const Tensor& input, const Tensor& weight,
                           const Tensor* bias, const ChannelWindowMap& map,
                           Workspace& ws) {
  const GemmDims d = resolve(input, weight, map);
  Tensor out(scc_output_shape(input.shape(), map));
  Tensor a = ws.alloc_tensor(Shape{d.rows, d.gw});  // reused gather buffer
  Tensor y = ws.alloc_tensor(Shape{d.rows});        // one output column
  const int64_t planeo = d.Ho * d.Wo;

  // Cout sequential fine-grained GEMMs of shape [rows, gw] x [gw, 1]; no
  // lowered-matrix reuse is possible because each filter's window differs.
  for (int64_t f = 0; f < d.Cout; ++f) {
    gather_window(input, map, d, f, a);
    gemm(/*trans_a=*/false, /*trans_b=*/false, d.rows, 1, d.gw, 1.0f,
         a.data(), d.gw, weight.data() + f * d.gw, 1, 0.0f, y.data(), 1);
    const float b = bias != nullptr ? bias->data()[f] : 0.0f;
    for (int64_t n = 0; n < d.N; ++n) {
      float* dst = out.data() + (n * d.Cout + f) * planeo;
      const float* src = y.data() + n * planeo;
      for (int64_t j = 0; j < planeo; ++j) dst[j] = src[j] + b;
    }
  }
  return out;
}

void scc_forward_gemm_into(const Tensor& input, const Tensor& weight,
                           const Tensor* bias, const ChannelWindowMap& map,
                           Workspace& ws, Tensor& out, bool fuse_relu) {
  const GemmDims d = resolve(input, weight, map);
  DSX_REQUIRE(out.shape() == scc_output_shape(input.shape(), map),
              "SCC gemm: out shape " << out.shape().to_string());
  Tensor a = ws.alloc_tensor(Shape{d.rows, d.gw});  // reused gather buffer
  Tensor y = ws.alloc_tensor(Shape{d.rows});        // one output column
  const int64_t planeo = d.Ho * d.Wo;

  for (int64_t f = 0; f < d.Cout; ++f) {
    gather_window(input, map, d, f, a);
    // Seed the column with the bias and accumulate on top (beta = 1): each
    // pixel computes b + sum_k w_k x_k left to right, matching the fused
    // kernel's float-addition order tap for tap.
    const float b = bias != nullptr ? bias->data()[f] : 0.0f;
    for (int64_t r = 0; r < d.rows; ++r) y.data()[r] = b;
    gemm(/*trans_a=*/false, /*trans_b=*/false, d.rows, 1, d.gw, 1.0f,
         a.data(), d.gw, weight.data() + f * d.gw, 1, 1.0f, y.data(), 1);
    for (int64_t n = 0; n < d.N; ++n) {
      float* dst = out.data() + (n * d.Cout + f) * planeo;
      const float* src = y.data() + n * planeo;
      if (fuse_relu) {
        for (int64_t j = 0; j < planeo; ++j) dst[j] = relu_value(src[j]);
      } else {
        for (int64_t j = 0; j < planeo; ++j) dst[j] = src[j];
      }
    }
  }
}

SCCGrads scc_backward_gemm(const Tensor& input, const Tensor& weight,
                           const Tensor& doutput, const ChannelWindowMap& map,
                           bool need_dinput, bool has_bias) {
  const GemmDims d = resolve(input, weight, map);
  DSX_REQUIRE(doutput.shape() == scc_output_shape(input.shape(), map),
              "SCC gemm backward: doutput shape "
                  << doutput.shape().to_string());
  const int64_t planeo = d.Ho * d.Wo;

  SCCGrads grads;
  grads.dweight = Tensor(weight.shape());
  if (has_bias) grads.dbias = Tensor(Shape{d.Cout});
  if (need_dinput) grads.dinput = Tensor(input.shape());

  Tensor a(Shape{d.rows, d.gw});   // gather buffer, reused per filter
  Tensor dy(Shape{d.rows});        // filter's output-gradient column
  Tensor da(Shape{d.rows, d.gw});  // gradient of the gathered matrix

  for (int64_t f = 0; f < d.Cout; ++f) {
    // Recollect dy_f as a contiguous column (doutput is NCHW, channel f is
    // strided across images).
    for (int64_t n = 0; n < d.N; ++n) {
      const float* src = doutput.data() + (n * d.Cout + f) * planeo;
      float* dst = dy.data() + n * planeo;
      for (int64_t j = 0; j < planeo; ++j) dst[j] = src[j];
    }
    if (has_bias) {
      double acc = 0.0;
      for (int64_t r = 0; r < d.rows; ++r) acc += dy[r];
      grads.dbias.data()[f] = static_cast<float>(acc);
    }

    gather_window(input, map, d, f, a);
    // dW_f = A_f^T dy_f : the paper's "skewed" [gw, rows] x [rows, 1] GEMM.
    gemm(/*trans_a=*/true, /*trans_b=*/false, d.gw, 1, d.rows, 1.0f, a.data(),
         d.gw, dy.data(), 1, 0.0f, grads.dweight.data() + f * d.gw, 1);

    if (!need_dinput) continue;
    // dA_f = dy_f w_f^T, then scatter-add into dinput. Overlapping filters
    // write the same input channels, so filters must stay sequential; rows
    // within one filter touch distinct pixels and parallelise race-free.
    gemm(/*trans_a=*/false, /*trans_b=*/false, d.rows, d.gw, 1, 1.0f,
         dy.data(), 1, weight.data() + f * d.gw, d.gw, 0.0f, da.data(), d.gw);
    const ChannelWindow win = map.window(f);
    device::launch_kernel_chunks_modeled(
        "scc_gemm_scatter", d.rows, d.rows * d.gw, {1.0, 8.0},
        [&](int64_t b, int64_t e) {
          for (int64_t r = b; r < e; ++r) {
            const int64_t n = r / planeo;
            const int64_t oy = (r / d.Wo) % d.Ho;
            const int64_t ox = r % d.Wo;
            const float* row = da.data() + r * d.gw;
            for (int64_t k = 0; k < d.gw; ++k) {
              const int64_t ic = (win.start + k) % d.Cin;
              grads.dinput.data()[((n * d.Cin + ic) * d.H + oy * d.stride) *
                                      d.W +
                                  ox * d.stride] += row[k];
            }
          }
        });
  }
  return grads;
}

}  // namespace dsx::scc
