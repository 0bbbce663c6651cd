// Vectorized depthwise forward (dsx::simd), at a chosen ISA level.
//
// Same geometry contract as dsx::depthwise_forward_into, which runs this
// register tile's SSE2 level itself. The tile vectorizes over channels and
// keeps a strip of output pixels' accumulators in registers: bias, then one
// mul and one add per in-bounds tap in ascending (ky, kx), padded taps
// skipped. That is the bounds-checked scalar op sequence per element, so the
// scalar and SSE2 levels are BIT-identical (tune::Fidelity::kBitExact) and
// the AVX2+FMA level is ULP-bounded (the only level the tune registry adds
// as a candidate). `fuse_relu` applies relu_value before the single store.
#pragma once

#include "ops/depthwise.hpp"
#include "simd/dispatch.hpp"
#include "simd/kernels.hpp"
#include "tensor/tensor.hpp"

namespace dsx::simd {

/// The kernel call writing `out` = depthwise(input, weight, bias), launched
/// under `name`; the caller has validated the shapes.
DwCall make_dw_call(const Tensor& input, const Tensor& weight,
                    const Tensor* bias, const DepthwiseArgs& args, Tensor& out,
                    bool fuse_relu, const char* name);

/// Forward into a preallocated `out` of depthwise_output_shape(...).
void depthwise_forward_into(const Tensor& input, const Tensor& weight,
                            const Tensor* bias, const DepthwiseArgs& args,
                            Tensor& out, bool fuse_relu = false,
                            Isa isa = active_isa());

}  // namespace dsx::simd
