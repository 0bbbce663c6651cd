#include "common/check.hpp"
#include "core/scc_kernels.hpp"
#include "simd/kernels.hpp"

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

/// Shared kernel body: validates, then runs the register-tiled SCC forward
/// of dsx::simd's SSE2 table (the x86-64 baseline, so no dispatch; below FMA
/// level the tile keeps the scalar per-element op sequence). Writes into
/// the caller-provided `out` so arena-backed outputs work too.
/// `recompute_starts` selects the window-start source, so the cycle-table
/// and recompute variants stay in lockstep.
void scc_forward_impl(const Tensor& input, const Tensor& weight,
                      const Tensor* bias, const ChannelWindowMap& map,
                      const char* kernel_name, bool recompute_starts,
                      Tensor& out, bool fuse_relu) {
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

  simd::SccCall call;
  call.name = kernel_name;
  call.input = input.data();
  call.weight = weight.data();
  call.bias = bias != nullptr ? bias->data() : nullptr;
  call.map = &map;
  call.recompute_starts = recompute_starts;
  call.N = input.shape().n();
  call.Cin = input.shape().c();
  call.H = input.shape().h();
  call.W = input.shape().w();
  call.Cout = cfg.out_channels;
  call.Ho = out_shape.h();
  call.Wo = out_shape.w();
  call.gw = gw;
  call.stride = cfg.stride;
  call.out = out.data();
  call.relu = fuse_relu;
  simd::sse2::table().scc_forward(call);
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
                   /*recompute_starts=*/false, out, fuse_relu);
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
  scc_forward_impl(input, weight, bias, map, "scc_forward_nocc",
                   /*recompute_starts=*/true, out, fuse_relu);
}

}  // namespace dsx::scc
