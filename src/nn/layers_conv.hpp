// Convolutional layers, including the SCC layer with selectable
// implementation backend.
//
// SCCImpl selects which of the paper's implementations executes the layer:
//   kFused                 - DSXplore kernels (output-centric fwd,
//                            input-centric bwd)         -> "DSXplore"
//   kFusedOutputCentricBwd - fused fwd, atomic push bwd  -> "DSXplore-Var"
//   kChannelStack          - Pytorch-operator channel-stack -> "Pytorch-Base"
//   kConvStack             - convolution-stack + channel-cyclic opt
//                                                        -> "Pytorch-Opt"
//   kConvStackNoCC         - convolution-stack w/o CC (Fig. 10 ablation)
//   kGemmStack             - Cout fine-grained per-filter GEMMs, the route
//                            the paper's §IV rejects     -> "GEMM-stack"
#pragma once

#include <memory>

#include "core/compositions.hpp"
#include "core/scc_kernels.hpp"
#include "nn/layer.hpp"
#include "ops/conv2d.hpp"
#include "ops/depthwise.hpp"
#include "tensor/random.hpp"
#include "tune/dispatch.hpp"

namespace dsx::nn {

/// Standard / grouped KxK convolution (groups=1: standard; K=1: PW/GPW).
class Conv2d final : public Layer {
 public:
  Conv2d(int64_t in_channels, int64_t out_channels, int64_t kernel,
         int64_t stride, int64_t pad, int64_t groups, Rng& rng,
         bool bias = false);
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& doutput) override;
  Tensor forward_inference(const Tensor& input, Workspace& ws) override;
  void collect_params(std::vector<Param*>& out) override;
  Shape output_shape(const Shape& input) const override;
  scc::LayerCost cost(const Shape& input) const override;
  std::string name() const override;
  std::unique_ptr<Layer> clone() const override;
  bool fuse_relu() override;

  // Accessors for inference-time transforms (BN folding).
  int64_t out_channels() const { return out_channels_; }
  Param& weight_param() { return weight_; }
  Param* bias_param() { return has_bias_ ? &bias_ : nullptr; }
  /// Adds a zero bias if the layer has none (needed when BN is folded in).
  void ensure_bias();

  /// Baked tuning resolution for forward_inference (dsx::tune); empty until
  /// a non-off tuning mode resolves this call site.
  const tune::ConvSite& tuning_site() const { return tuned_; }
  void reset_tuning() { tuned_.reset(); }

 private:
  Conv2d() = default;  // clone() only: fields assigned, no weight init

  int64_t in_channels_ = 0, out_channels_ = 0, kernel_ = 0;
  Conv2dArgs args_;
  bool has_bias_ = false;
  bool relu_fused_ = false;
  Param weight_, bias_;
  Tensor cached_input_;
  tune::ConvSite tuned_;
};

/// Depthwise KxK convolution.
class DepthwiseConv2d final : public Layer {
 public:
  DepthwiseConv2d(int64_t channels, int64_t kernel, int64_t stride,
                  int64_t pad, Rng& rng, bool bias = false);
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& doutput) override;
  Tensor forward_inference(const Tensor& input, Workspace& ws) override;
  void collect_params(std::vector<Param*>& out) override;
  Shape output_shape(const Shape& input) const override;
  scc::LayerCost cost(const Shape& input) const override;
  std::string name() const override { return "DepthwiseConv2d"; }
  std::unique_ptr<Layer> clone() const override;
  bool fuse_relu() override;

  int64_t out_channels() const { return channels_; }
  Param& weight_param() { return weight_; }
  Param* bias_param() { return has_bias_ ? &bias_ : nullptr; }
  void ensure_bias();

  /// Baked tuning resolution for forward_inference (dsx::tune); empty until
  /// a non-off tuning mode resolves this call site.
  const tune::DepthwiseSite& tuning_site() const { return tuned_; }
  void reset_tuning() { tuned_.reset(); }

 private:
  DepthwiseConv2d() = default;  // clone() only

  int64_t channels_ = 0, kernel_ = 0;
  DepthwiseArgs args_;
  bool has_bias_ = false;
  bool relu_fused_ = false;
  Param weight_, bias_;
  Tensor cached_input_;
  tune::DepthwiseSite tuned_;
};

enum class SCCImpl {
  kFused,
  kFusedOutputCentricBwd,
  kChannelStack,
  kConvStack,
  kConvStackNoCC,
  kGemmStack,
};

/// Human-readable name used in benchmark tables ("DSXplore", "Pytorch-Base"…).
std::string scc_impl_name(SCCImpl impl);

/// Sliding-channel convolution layer (drop-in replacement for the PW stage).
class SCCConv final : public Layer {
 public:
  SCCConv(const scc::SCCConfig& cfg, Rng& rng, bool bias = false,
          SCCImpl impl = SCCImpl::kFused);

  const scc::ChannelWindowMap& map() const { return map_; }
  SCCImpl impl() const { return impl_; }
  void set_impl(SCCImpl impl);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& doutput) override;
  Tensor forward_inference(const Tensor& input, Workspace& ws) override;
  void collect_params(std::vector<Param*>& out) override;
  Shape output_shape(const Shape& input) const override;
  scc::LayerCost cost(const Shape& input) const override;
  std::string name() const override;
  std::unique_ptr<Layer> clone() const override;
  bool fuse_relu() override;

  int64_t out_channels() const { return cfg_.out_channels; }
  Param& weight_param() { return weight_; }
  Param* bias_param() { return has_bias_ ? &bias_ : nullptr; }
  void ensure_bias();

  /// Baked tuning resolution for the fused forward_inference path
  /// (dsx::tune); empty until a non-off tuning mode resolves this site.
  const tune::SccSite& tuning_site() const { return tuned_; }
  void reset_tuning() { tuned_.reset(); }

 private:
  /// clone() only: builds the map and composition backends from the config
  /// without initializing weights (the clone overwrites them anyway).
  struct CloneInit {};
  SCCConv(const scc::SCCConfig& cfg, SCCImpl impl, CloneInit);

  scc::SCCConfig cfg_;
  scc::ChannelWindowMap map_;
  SCCImpl impl_;
  bool has_bias_;
  bool relu_fused_ = false;
  Param weight_, bias_;
  Tensor cached_input_;
  std::unique_ptr<scc::ChannelStackSCC> channel_stack_;
  std::unique_ptr<scc::ConvStackSCC> conv_stack_;
  tune::SccSite tuned_;
};

}  // namespace dsx::nn
