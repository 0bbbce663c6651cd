// Standard / grouped / pointwise convolution (im2col + GEMM path).
//
// This is the substrate the paper's baselines are built from:
//   - standard conv:   groups = 1
//   - group conv (GC): groups = cg
//   - pointwise (PW):  K = 1, groups = 1
//   - group PW (GPW):  K = 1, groups = cg
// Depthwise has its own direct kernels in ops/depthwise.hpp.
//
// Weight layout: [Cout, Cin/groups, K, K]; bias: [Cout] (optional).
#pragma once

#include <cstdint>
#include <optional>

#include "tensor/tensor.hpp"
#include "tensor/workspace.hpp"

namespace dsx {

struct Conv2dArgs {
  int64_t stride = 1;
  int64_t pad = 0;
  int64_t groups = 1;
};

/// Validates shapes and returns the output shape for the given input.
Shape conv2d_output_shape(const Shape& input, const Shape& weight,
                          const Conv2dArgs& args);

/// Forward pass. `bias` may be null.
Tensor conv2d_forward(const Tensor& input, const Tensor& weight,
                      const Tensor* bias, const Conv2dArgs& args);

/// Workspace-backed forward: the im2col column buffer is drawn from `ws`
/// (hot serving paths reuse one arena across calls instead of allocating),
/// and the output is written into `out`, which must already have the shape
/// conv2d_output_shape returns. Bit-identical to conv2d_forward.
/// `fuse_relu` applies relu_value in the bias pass (which then runs even
/// without a bias), bit-identical to relu_forward of the unfused output.
void conv2d_forward_into(const Tensor& input, const Tensor& weight,
                         const Tensor* bias, const Conv2dArgs& args,
                         Workspace& ws, Tensor& out, bool fuse_relu = false);

/// Floats of scratch conv2d_forward_into draws from the workspace for this
/// problem (arena pre-sizing).
int64_t conv2d_workspace_floats(const Shape& input, const Shape& weight,
                                const Conv2dArgs& args);

/// Direct (no-lowering) forward: indexes the input in place instead of
/// materialising the im2col matrix, trading the Cin*K*K*Ho*Wo column copy
/// for strided reads and boundary tests. Accumulates in exactly the
/// im2col+GEMM float order, so it is bit-identical to conv2d_forward_into;
/// dsx::tune registers both and measures which wins per shape.
void conv2d_forward_direct_into(const Tensor& input, const Tensor& weight,
                                const Tensor* bias, const Conv2dArgs& args,
                                Tensor& out, bool fuse_relu = false);

struct Conv2dGrads {
  Tensor dinput;   // defined only when requested
  Tensor dweight;
  Tensor dbias;    // defined only when has_bias
};

/// Backward pass for input, weight and (optionally) bias gradients.
Conv2dGrads conv2d_backward(const Tensor& input, const Tensor& weight,
                            const Tensor& doutput, const Conv2dArgs& args,
                            bool need_dinput, bool has_bias);

}  // namespace dsx
