// Layer interface of the DSXplore training framework.
//
// The paper trains its CNNs through PyTorch autograd; our models are static
// feed-forward graphs, so a Caffe-style explicit forward/backward interface
// is sufficient and keeps every kernel invocation visible to the profiling
// scopes. A layer caches whatever its backward needs during forward; calling
// backward() without a preceding forward() on the same instance is an error.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/cost_model.hpp"
#include "nn/param.hpp"
#include "tensor/tensor.hpp"
#include "tensor/workspace.hpp"

namespace dsx::nn {

class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes the layer output; `training` selects BN statistics mode and
  /// enables backward caching.
  virtual Tensor forward(const Tensor& input, bool training) = 0;

  /// Propagates the output gradient, accumulating parameter gradients into
  /// Param::grad, and returns the input gradient.
  virtual Tensor backward(const Tensor& doutput) = 0;

  /// Inference-only forward that may place its output and scratch in `ws`
  /// (the serving runtime's per-model arena; see serve/compiled_model.hpp).
  /// The result may alias arena memory, so callers must consume or clone it
  /// before the arena resets. Default: plain eval-mode forward, which keeps
  /// every layer servable whether or not it has a workspace-aware kernel.
  virtual Tensor forward_inference(const Tensor& input, Workspace& ws) {
    (void)ws;
    return forward(input, /*training=*/false);
  }

  /// Deep, independent copy: configuration and parameters are duplicated
  /// into fresh storage; transient training caches and baked tuning sites
  /// are NOT carried over (a clone starts cold). dsx::shard relies on this
  /// to replicate one frozen serving plan into independently executable
  /// replicas, so every concrete layer must implement it.
  virtual std::unique_ptr<Layer> clone() const = 0;

  /// Folds a ReLU that directly follows this layer into its output epilogue
  /// (serve::CompiledModel's fusion pass erases the ReLU afterwards).
  /// Returns false when the layer has no epilogue to fold into. A fused
  /// layer is inference-only: eval forward applies the ReLU, training
  /// forward and backward throw.
  virtual bool fuse_relu() { return false; }

  /// Appends this layer's parameters (no-op for stateless layers).
  virtual void collect_params(std::vector<Param*>& out) { (void)out; }

  /// Output shape for a given input shape (shape inference, used to wire
  /// classifier heads and to drive the cost model).
  virtual Shape output_shape(const Shape& input) const = 0;

  /// Analytic per-image MACs/params for the cost tables (batch dim of
  /// `input` is ignored).
  virtual scc::LayerCost cost(const Shape& input) const {
    (void)input;
    return {};
  }

  virtual std::string name() const = 0;

  std::vector<Param*> params() {
    std::vector<Param*> out;
    collect_params(out);
    return out;
  }
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace dsx::nn
