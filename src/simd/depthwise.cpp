#include "simd/depthwise.hpp"

#include "common/check.hpp"

namespace dsx::simd {

DwCall make_dw_call(const Tensor& input, const Tensor& weight,
                    const Tensor* bias, const DepthwiseArgs& args, Tensor& out,
                    bool fuse_relu, const char* name) {
  DwCall call;
  call.name = name;
  call.input = input.data();
  call.weight = weight.data();
  call.bias = bias != nullptr ? bias->data() : nullptr;
  call.N = input.shape().n();
  call.C = input.shape().c();
  call.H = input.shape().h();
  call.W = input.shape().w();
  call.K = weight.shape().dim(2);
  call.Ho = out.shape().h();
  call.Wo = out.shape().w();
  call.stride = args.stride;
  call.pad = args.pad;
  call.out = out.data();
  call.relu = fuse_relu;
  return call;
}

void depthwise_forward_into(const Tensor& input, const Tensor& weight,
                            const Tensor* bias, const DepthwiseArgs& args,
                            Tensor& out, bool fuse_relu, Isa isa) {
  const Shape expect =
      depthwise_output_shape(input.shape(), weight.shape(), args);
  DSX_REQUIRE(out.shape() == expect,
              "simd::depthwise: out shape " << out.shape().to_string()
                                            << ", expected "
                                            << expect.to_string());
  if (bias != nullptr) {
    DSX_REQUIRE(bias->shape() == Shape{input.shape().c()},
                "simd::depthwise: bad bias shape");
  }

  kernels(isa).depthwise_forward(make_dw_call(input, weight, bias, args, out,
                                              fuse_relu, "simd_dw_forward"));
}

}  // namespace dsx::simd
