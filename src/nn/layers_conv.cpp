#include "nn/layers_conv.hpp"

#include <sstream>

#include "common/check.hpp"
#include "core/scc_gemm.hpp"
#include "ops/activations.hpp"

namespace dsx::nn {

namespace {

// A layer whose following ReLU was fused into it (Layer::fuse_relu) only
// runs inference: the ReLU's mask is never cached for backward.
void require_unfused(bool relu_fused, const Layer& layer) {
  DSX_REQUIRE(!relu_fused,
              layer.name() << ": ReLU fused for inference, not trainable");
}

// Eval-mode forward of a possibly fused layer: the ReLU the layer absorbed.
Tensor apply_fused_relu(Tensor out, bool relu_fused) {
  return relu_fused ? relu_forward(out) : out;
}

}  // namespace

// ---- Conv2d ------------------------------------------------------------------

Conv2d::Conv2d(int64_t in_channels, int64_t out_channels, int64_t kernel,
               int64_t stride, int64_t pad, int64_t groups, Rng& rng,
               bool bias)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      has_bias_(bias) {
  DSX_REQUIRE(groups >= 1 && in_channels % groups == 0 &&
                  out_channels % groups == 0,
              "Conv2d: invalid groups " << groups << " for " << in_channels
                                        << "->" << out_channels);
  args_.stride = stride;
  args_.pad = pad;
  args_.groups = groups;
  const int64_t cin_g = in_channels / groups;
  Tensor w(Shape{out_channels, cin_g, kernel, kernel});
  fill_kaiming(w, rng, cin_g * kernel * kernel);
  weight_ = Param::create("conv.weight", std::move(w));
  if (has_bias_) {
    bias_ = Param::create("conv.bias", Tensor(Shape{out_channels}),
                          /*decay=*/false);
  }
}

Tensor Conv2d::forward(const Tensor& input, bool training) {
  if (training) {
    require_unfused(relu_fused_, *this);
    cached_input_ = input;
  }
  return apply_fused_relu(
      conv2d_forward(input, weight_.value, has_bias_ ? &bias_.value : nullptr,
                     args_),
      relu_fused_);
}

Tensor Conv2d::forward_inference(const Tensor& input, Workspace& ws) {
  Tensor out = ws.alloc_tensor(output_shape(input.shape()));
  tune::conv2d_forward_dispatch(input, weight_.value,
                                has_bias_ ? &bias_.value : nullptr, args_, ws,
                                out, &tuned_, relu_fused_);
  return out;
}

Tensor Conv2d::backward(const Tensor& doutput) {
  require_unfused(relu_fused_, *this);
  DSX_REQUIRE(cached_input_.defined(), "Conv2d::backward before forward");
  Conv2dGrads g = conv2d_backward(cached_input_, weight_.value, doutput,
                                  args_, /*need_dinput=*/true, has_bias_);
  add_grad_inplace(weight_.grad, g.dweight);
  if (has_bias_) add_grad_inplace(bias_.grad, g.dbias);
  return g.dinput;
}

std::unique_ptr<Layer> Conv2d::clone() const {
  auto copy = std::unique_ptr<Conv2d>(new Conv2d());
  copy->in_channels_ = in_channels_;
  copy->out_channels_ = out_channels_;
  copy->kernel_ = kernel_;
  copy->args_ = args_;
  copy->has_bias_ = has_bias_;
  copy->relu_fused_ = relu_fused_;
  copy->weight_ = clone_param(weight_);
  if (has_bias_) copy->bias_ = clone_param(bias_);
  return copy;
}

bool Conv2d::fuse_relu() {
  relu_fused_ = true;
  return true;
}

void Conv2d::ensure_bias() {
  if (has_bias_) return;
  bias_ = Param::create("conv.bias", Tensor(Shape{out_channels_}),
                        /*decay=*/false);
  has_bias_ = true;
}

void Conv2d::collect_params(std::vector<Param*>& out) {
  out.push_back(&weight_);
  if (has_bias_) out.push_back(&bias_);
}

Shape Conv2d::output_shape(const Shape& input) const {
  return conv2d_output_shape(input, weight_.value.shape(), args_);
}

scc::LayerCost Conv2d::cost(const Shape& input) const {
  return scc::conv2d_cost(in_channels_, out_channels_, kernel_, input.h(),
                          input.w(), args_.stride, args_.pad, args_.groups,
                          has_bias_);
}

std::string Conv2d::name() const {
  std::ostringstream os;
  os << "Conv2d(" << in_channels_ << "->" << out_channels_ << ", k" << kernel_
     << ", g" << args_.groups << ")";
  return os.str();
}

// ---- DepthwiseConv2d -----------------------------------------------------------

DepthwiseConv2d::DepthwiseConv2d(int64_t channels, int64_t kernel,
                                 int64_t stride, int64_t pad, Rng& rng,
                                 bool bias)
    : channels_(channels), kernel_(kernel), has_bias_(bias) {
  args_.stride = stride;
  args_.pad = pad;
  Tensor w(Shape{channels, 1, kernel, kernel});
  fill_kaiming(w, rng, kernel * kernel);
  weight_ = Param::create("dw.weight", std::move(w));
  if (has_bias_) {
    bias_ = Param::create("dw.bias", Tensor(Shape{channels}),
                          /*decay=*/false);
  }
}

Tensor DepthwiseConv2d::forward(const Tensor& input, bool training) {
  if (training) {
    require_unfused(relu_fused_, *this);
    cached_input_ = input;
  }
  return apply_fused_relu(
      depthwise_forward(input, weight_.value,
                        has_bias_ ? &bias_.value : nullptr, args_),
      relu_fused_);
}

Tensor DepthwiseConv2d::forward_inference(const Tensor& input, Workspace& ws) {
  Tensor out = ws.alloc_tensor(output_shape(input.shape()));
  tune::depthwise_forward_dispatch(input, weight_.value,
                                   has_bias_ ? &bias_.value : nullptr, args_,
                                   ws, out, &tuned_, relu_fused_);
  return out;
}

Tensor DepthwiseConv2d::backward(const Tensor& doutput) {
  require_unfused(relu_fused_, *this);
  DSX_REQUIRE(cached_input_.defined(),
              "DepthwiseConv2d::backward before forward");
  DepthwiseGrads g =
      depthwise_backward(cached_input_, weight_.value, doutput, args_,
                         /*need_dinput=*/true, has_bias_);
  add_grad_inplace(weight_.grad, g.dweight);
  if (has_bias_) add_grad_inplace(bias_.grad, g.dbias);
  return g.dinput;
}

std::unique_ptr<Layer> DepthwiseConv2d::clone() const {
  auto copy = std::unique_ptr<DepthwiseConv2d>(new DepthwiseConv2d());
  copy->channels_ = channels_;
  copy->kernel_ = kernel_;
  copy->args_ = args_;
  copy->has_bias_ = has_bias_;
  copy->relu_fused_ = relu_fused_;
  copy->weight_ = clone_param(weight_);
  if (has_bias_) copy->bias_ = clone_param(bias_);
  return copy;
}

bool DepthwiseConv2d::fuse_relu() {
  relu_fused_ = true;
  return true;
}

void DepthwiseConv2d::ensure_bias() {
  if (has_bias_) return;
  bias_ = Param::create("dw.bias", Tensor(Shape{channels_}),
                        /*decay=*/false);
  has_bias_ = true;
}

void DepthwiseConv2d::collect_params(std::vector<Param*>& out) {
  out.push_back(&weight_);
  if (has_bias_) out.push_back(&bias_);
}

Shape DepthwiseConv2d::output_shape(const Shape& input) const {
  return depthwise_output_shape(input, weight_.value.shape(), args_);
}

scc::LayerCost DepthwiseConv2d::cost(const Shape& input) const {
  return scc::depthwise_cost(channels_, kernel_, input.h(), input.w(),
                             args_.stride, args_.pad, has_bias_);
}

// ---- SCCConv ------------------------------------------------------------------

std::string scc_impl_name(SCCImpl impl) {
  switch (impl) {
    case SCCImpl::kFused:
      return "DSXplore";
    case SCCImpl::kFusedOutputCentricBwd:
      return "DSXplore-Var";
    case SCCImpl::kChannelStack:
      return "Pytorch-Base";
    case SCCImpl::kConvStack:
      return "Pytorch-Opt";
    case SCCImpl::kConvStackNoCC:
      return "Pytorch-Opt-noCC";
    case SCCImpl::kGemmStack:
      return "GEMM-stack";
  }
  return "unknown";
}

SCCConv::SCCConv(const scc::SCCConfig& cfg, Rng& rng, bool bias, SCCImpl impl)
    : cfg_(cfg), map_(cfg), impl_(impl), has_bias_(bias) {
  Tensor w(Shape{cfg.out_channels, map_.group_width()});
  fill_kaiming(w, rng, map_.group_width());
  weight_ = Param::create("scc.weight", std::move(w));
  if (has_bias_) {
    bias_ = Param::create("scc.bias", Tensor(Shape{cfg.out_channels}),
                          /*decay=*/false);
  }
  set_impl(impl);
}

void SCCConv::set_impl(SCCImpl impl) {
  impl_ = impl;
  channel_stack_.reset();
  conv_stack_.reset();
  switch (impl_) {
    case SCCImpl::kChannelStack:
      channel_stack_ = std::make_unique<scc::ChannelStackSCC>(cfg_);
      break;
    case SCCImpl::kConvStack:
      conv_stack_ = std::make_unique<scc::ConvStackSCC>(cfg_, /*cyclic=*/true);
      break;
    case SCCImpl::kConvStackNoCC:
      conv_stack_ =
          std::make_unique<scc::ConvStackSCC>(cfg_, /*cyclic=*/false);
      break;
    default:
      break;
  }
}

Tensor SCCConv::forward(const Tensor& input, bool training) {
  if (training) {
    require_unfused(relu_fused_, *this);
    cached_input_ = input;
  }
  const Tensor* b = has_bias_ ? &bias_.value : nullptr;
  Tensor out;
  switch (impl_) {
    case SCCImpl::kChannelStack:
      out = channel_stack_->forward(input, weight_.value, b);
      break;
    case SCCImpl::kConvStack:
    case SCCImpl::kConvStackNoCC:
      out = conv_stack_->forward(input, weight_.value, b);
      break;
    case SCCImpl::kGemmStack:
      out = scc::scc_forward_gemm(input, weight_.value, b, map_);
      break;
    default:
      out = scc::scc_forward(input, weight_.value, b, map_);
      break;
  }
  return apply_fused_relu(std::move(out), relu_fused_);
}

Tensor SCCConv::forward_inference(const Tensor& input, Workspace& ws) {
  const Tensor* b = has_bias_ ? &bias_.value : nullptr;
  switch (impl_) {
    case SCCImpl::kFused:
    case SCCImpl::kFusedOutputCentricBwd: {
      Tensor out = ws.alloc_tensor(output_shape(input.shape()));
      tune::scc_forward_dispatch(input, weight_.value, b, map_, ws, out,
                                 &tuned_, relu_fused_);
      return out;
    }
    case SCCImpl::kGemmStack:
      return apply_fused_relu(
          scc::scc_forward_gemm_ws(input, weight_.value, b, map_, ws),
          relu_fused_);
    default:
      // Composition baselines allocate internally; serve them unchanged.
      return forward(input, /*training=*/false);
  }
}

Tensor SCCConv::backward(const Tensor& doutput) {
  require_unfused(relu_fused_, *this);
  DSX_REQUIRE(cached_input_.defined(), "SCCConv::backward before forward");
  scc::SCCGrads g;
  switch (impl_) {
    case SCCImpl::kChannelStack:
      g = channel_stack_->backward(cached_input_, weight_.value, doutput,
                                   /*need_dinput=*/true, has_bias_);
      break;
    case SCCImpl::kConvStack:
    case SCCImpl::kConvStackNoCC:
      g = conv_stack_->backward(cached_input_, weight_.value, doutput,
                                /*need_dinput=*/true, has_bias_);
      break;
    case SCCImpl::kFusedOutputCentricBwd:
      g = scc::scc_backward_output_centric(cached_input_, weight_.value,
                                           doutput, map_,
                                           /*need_dinput=*/true, has_bias_);
      break;
    case SCCImpl::kGemmStack:
      g = scc::scc_backward_gemm(cached_input_, weight_.value, doutput, map_,
                                 /*need_dinput=*/true, has_bias_);
      break;
    case SCCImpl::kFused:
      g = scc::scc_backward_input_centric(cached_input_, weight_.value,
                                          doutput, map_,
                                          /*need_dinput=*/true, has_bias_);
      break;
  }
  add_grad_inplace(weight_.grad, g.dweight);
  if (has_bias_) add_grad_inplace(bias_.grad, g.dbias);
  return g.dinput;
}

SCCConv::SCCConv(const scc::SCCConfig& cfg, SCCImpl impl, CloneInit)
    : cfg_(cfg), map_(cfg), impl_(impl), has_bias_(false) {
  set_impl(impl);
}

std::unique_ptr<Layer> SCCConv::clone() const {
  // The CloneInit constructor rebuilds the channel-window map and the
  // composition backends from cfg_/impl_ without touching weights; only
  // the learned tensors need copying. The baked tuning site is NOT carried
  // over - a replica re-resolves it from the tuning cache during its own
  // compile.
  auto copy = std::unique_ptr<SCCConv>(new SCCConv(cfg_, impl_, CloneInit{}));
  copy->has_bias_ = has_bias_;
  copy->relu_fused_ = relu_fused_;
  copy->weight_ = clone_param(weight_);
  if (has_bias_) copy->bias_ = clone_param(bias_);
  return copy;
}

bool SCCConv::fuse_relu() {
  relu_fused_ = true;
  return true;
}

void SCCConv::ensure_bias() {
  if (has_bias_) return;
  bias_ = Param::create("scc.bias", Tensor(Shape{cfg_.out_channels}),
                        /*decay=*/false);
  has_bias_ = true;
}

void SCCConv::collect_params(std::vector<Param*>& out) {
  out.push_back(&weight_);
  if (has_bias_) out.push_back(&bias_);
}

Shape SCCConv::output_shape(const Shape& input) const {
  return scc::scc_output_shape(input, map_);
}

scc::LayerCost SCCConv::cost(const Shape& input) const {
  return scc::scc_cost(cfg_, input.h(), input.w(), has_bias_);
}

std::string SCCConv::name() const {
  std::ostringstream os;
  os << "SCCConv(" << cfg_.in_channels << "->" << cfg_.out_channels << ", cg"
     << cfg_.groups << ", co" << cfg_.overlap * 100 << "%, "
     << scc_impl_name(impl_) << ")";
  return os.str();
}

}  // namespace dsx::nn
