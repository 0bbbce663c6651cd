#include "ops/activations.hpp"

#include "common/check.hpp"
#include "device/launch.hpp"

namespace dsx {

Tensor relu_forward(const Tensor& input) {
  Tensor out(input.shape());
  const float* in = input.data();
  float* o = out.data();
  device::launch_kernel_chunks(
      "relu_fwd", input.numel(), {1.0, 8.0}, [&](int64_t b, int64_t e) {
        for (int64_t i = b; i < e; ++i) o[i] = relu_value(in[i]);
      });
  return out;
}

Tensor relu_backward(const Tensor& doutput, const Tensor& input) {
  DSX_REQUIRE(doutput.shape() == input.shape(),
              "relu_backward: shape mismatch");
  Tensor din(input.shape());
  const float* dy = doutput.data();
  const float* in = input.data();
  float* dx = din.data();
  device::launch_kernel_chunks(
      "relu_bwd", input.numel(), {1.0, 12.0}, [&](int64_t b, int64_t e) {
        for (int64_t i = b; i < e; ++i) dx[i] = in[i] > 0.0f ? dy[i] : 0.0f;
      });
  return din;
}

}  // namespace dsx
