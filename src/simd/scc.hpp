// Vectorized fused SCC forward (dsx::simd).
//
// Same geometry contract as scc::scc_forward_into: one filter = one cyclic
// input-channel window, output-centric, no data duplication. The launch
// records the GPU model (one thread per output pixel). The CPU runs the
// register tile shared with scc::scc_forward_into (kernels_impl.inc): one
// execution item is (image, block of kSccTileFilters filters), holding
// R filters x P pixel vectors of accumulators in registers while the gw taps
// stream the windows' channel planes (stride-1 planes are the contiguous
// axis); filter tails run one-filter blocks, pixel tails and stride > 1
// scalar accumulators, all in the same op order. `fuse_relu` applies the
// ReLU before the one store.
//
// Fidelity: at SSE2 level (and scalar) the per-element accumulation order
// and op sequence match the scalar fused kernel exactly - BIT-identical
// (tune::Fidelity::kBitExact). At AVX2 level FMA contracts each tap to one
// rounding - ULP-bounded (kMaxUlp).
#pragma once

#include "core/channel_map.hpp"
#include "simd/dispatch.hpp"
#include "tensor/tensor.hpp"

namespace dsx::simd {

/// Forward into a preallocated `out` of scc_output_shape(input, map).
void scc_forward_into(const Tensor& input, const Tensor& weight,
                      const Tensor* bias, const scc::ChannelWindowMap& map,
                      Tensor& out, bool fuse_relu = false,
                      Isa isa = active_isa());

}  // namespace dsx::simd
