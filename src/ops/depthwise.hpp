// Depthwise convolution (the DW half of every DW+{PW,GPW,SCC} block).
//
// Direct kernels, no lowering: one GPU-model thread per output pixel in the
// forward pass, one per input pixel / per weight tap in the backward pass
// (both race-free, mirroring the paper's description of DW as the cheap,
// per-channel spatial stage).
//
// Weight layout: [C, 1, K, K]; bias optional [C].
#pragma once

#include <cstdint>

#include "tensor/tensor.hpp"
#include "tensor/workspace.hpp"

namespace dsx {

struct DepthwiseArgs {
  int64_t stride = 1;
  int64_t pad = 0;
};

Shape depthwise_output_shape(const Shape& input, const Shape& weight,
                             const DepthwiseArgs& args);

Tensor depthwise_forward(const Tensor& input, const Tensor& weight,
                         const Tensor* bias, const DepthwiseArgs& args);

/// Forward into a preallocated `out` of shape depthwise_output_shape(...);
/// lets the serving runtime keep activations in a workspace arena.
/// `fuse_relu` applies relu_value in the final store.
void depthwise_forward_into(const Tensor& input, const Tensor& weight,
                            const Tensor* bias, const DepthwiseArgs& args,
                            Tensor& out, bool fuse_relu = false);

struct DepthwiseGrads {
  Tensor dinput;
  Tensor dweight;
  Tensor dbias;
};

DepthwiseGrads depthwise_backward(const Tensor& input, const Tensor& weight,
                                  const Tensor& doutput,
                                  const DepthwiseArgs& args, bool need_dinput,
                                  bool has_bias);

}  // namespace dsx
