// Elementwise activations.
#pragma once

#include "tensor/tensor.hpp"

namespace dsx {

/// ReLU of one value: x > 0 ? x : +0. -0.0 and NaN map to +0. Every fused
/// ReLU epilogue applies exactly this, so fusing never changes a bit.
inline float relu_value(float x) { return x > 0.0f ? x : 0.0f; }

/// out = relu_value(x) elementwise.
Tensor relu_forward(const Tensor& input);
/// din = dout where input > 0 else 0.
Tensor relu_backward(const Tensor& doutput, const Tensor& input);

}  // namespace dsx
