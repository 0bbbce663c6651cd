#include "common/check.hpp"
#include "core/scc_kernels.hpp"
#include "device/launch.hpp"
#include "ops/activations.hpp"

namespace dsx::scc {

Shape scc_output_shape(const Shape& input, const ChannelWindowMap& map) {
  DSX_REQUIRE(input.rank() == 4, "SCC: input must be NCHW, got "
                                     << input.to_string());
  const SCCConfig& cfg = map.config();
  DSX_REQUIRE(input.c() == cfg.in_channels,
              "SCC: input has " << input.c() << " channels, config expects "
                                << cfg.in_channels);
  const int64_t Ho = conv_out_size(input.h(), 1, cfg.stride, 0);
  const int64_t Wo = conv_out_size(input.w(), 1, cfg.stride, 0);
  return make_nchw(input.n(), cfg.out_channels, Ho, Wo);
}

namespace {

/// Shared kernel body; `start_of(f)` supplies each filter's window start so
/// the cycle-table and recompute variants stay in lockstep. Writes into the
/// caller-provided `out` so arena-backed outputs work too.
template <typename StartFn>
void scc_forward_impl(const Tensor& input, const Tensor& weight,
                      const Tensor* bias, const ChannelWindowMap& map,
                      const char* kernel_name, StartFn start_of, Tensor& out,
                      bool fuse_relu) {
  const SCCConfig& cfg = map.config();
  const Shape out_shape = scc_output_shape(input.shape(), map);
  DSX_REQUIRE(out.shape() == out_shape,
              "SCC: out shape " << out.shape().to_string() << ", expected "
                                << out_shape.to_string());
  const int64_t gw = map.group_width();
  DSX_REQUIRE(weight.shape() == (Shape{cfg.out_channels, gw}),
              "SCC: weight must be [Cout, gw] = [" << cfg.out_channels << ", "
                                                   << gw << "], got "
                                                   << weight.shape().to_string());
  if (bias != nullptr) {
    DSX_REQUIRE(bias->shape() == Shape{cfg.out_channels},
                "SCC: bias must be [Cout]");
  }

  const int64_t N = input.shape().n(), Cin = input.shape().c();
  const int64_t H = input.shape().h(), W = input.shape().w();
  const int64_t Ho = out_shape.h(), Wo = out_shape.w();
  const int64_t plane = H * W, planeo = Ho * Wo;
  const int64_t stride = cfg.stride;

  // One GPU-model thread per output pixel; CPU execution is chunked over
  // (n, filter) planes so each chunk streams whole channel planes.
  device::launch_kernel_chunks_modeled(
      kernel_name, N * cfg.out_channels, out.numel(),
      {2.0 * static_cast<double>(gw), 4.0 * (static_cast<double>(gw) + 2.0)},
      [&](int64_t b, int64_t e) {
        for (int64_t nf = b; nf < e; ++nf) {
          const int64_t n = nf / cfg.out_channels;
          const int64_t f = nf % cfg.out_channels;
          const int64_t start = start_of(f);
          const float* w = weight.data() + f * gw;
          const float bv = bias != nullptr ? bias->data()[f] : 0.0f;
          float* out_p = out.data() + nf * planeo;
          for (int64_t j = 0; j < planeo; ++j) out_p[j] = bv;
          for (int64_t k = 0; k < gw; ++k) {
            const int64_t ic = (start + k) % Cin;
            const float wk = w[k];
            const float* in_p = input.data() + (n * Cin + ic) * plane;
            if (stride == 1) {
              for (int64_t j = 0; j < planeo; ++j) out_p[j] += wk * in_p[j];
            } else {
              for (int64_t y = 0; y < Ho; ++y) {
                const float* row = in_p + (y * stride) * W;
                float* orow = out_p + y * Wo;
                for (int64_t x = 0; x < Wo; ++x) orow[x] += wk * row[x * stride];
              }
            }
          }
          if (fuse_relu) {
            for (int64_t j = 0; j < planeo; ++j) {
              out_p[j] = relu_value(out_p[j]);
            }
          }
        }
      });
}

}  // namespace

Tensor scc_forward(const Tensor& input, const Tensor& weight,
                   const Tensor* bias, const ChannelWindowMap& map) {
  Tensor out(scc_output_shape(input.shape(), map));
  scc_forward_into(input, weight, bias, map, out);
  return out;
}

void scc_forward_into(const Tensor& input, const Tensor& weight,
                      const Tensor* bias, const ChannelWindowMap& map,
                      Tensor& out, bool fuse_relu) {
  // Channel-cyclic optimization (Algorithm 2): window starts come from the
  // precomputed one-cycle table, indexed by f % cyclic_dist.
  scc_forward_impl(input, weight, bias, map, "scc_forward",
                   [&map](int64_t f) { return map.window(f).start; }, out,
                   fuse_relu);
}

Tensor scc_forward_no_cycle_table(const Tensor& input, const Tensor& weight,
                                  const Tensor* bias,
                                  const ChannelWindowMap& map) {
  Tensor out(scc_output_shape(input.shape(), map));
  scc_forward_no_cycle_table_into(input, weight, bias, map, out);
  return out;
}

void scc_forward_no_cycle_table_into(const Tensor& input, const Tensor& weight,
                                     const Tensor* bias,
                                     const ChannelWindowMap& map, Tensor& out,
                                     bool fuse_relu) {
  const int64_t step = map.step();
  const int64_t cin = map.config().in_channels;
  scc_forward_impl(
      input, weight, bias, map, "scc_forward_nocc",
      [step, cin](int64_t f) { return (f * step) % cin; }, out, fuse_relu);
}

}  // namespace dsx::scc
