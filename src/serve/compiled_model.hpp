// Inference compilation: from a trained nn::Sequential to a frozen serving
// plan.
//
// CompiledModel owns the model and performs, once, the per-call work the
// training-oriented layers would otherwise redo on every request:
//   * folds BatchNorm into the preceding convolutions (nn/bn_folding) and
//     strips the Identity placeholders the fold leaves behind;
//   * folds every top-level ReLU that directly follows a Conv2d,
//     DepthwiseConv2d or SCCConv into that layer's final store
//     (Layer::fuse_relu), so the ReLU costs no launch and no output tensor;
//   * freezes every SCCConv to the fused DSXplore kernels (the composition
//     baselines exist for benchmarking, not serving) - their channel-window
//     maps are already precomputed at layer construction;
//   * records per-layer output shapes for the configured max batch;
//   * sizes a Workspace arena with one dry run at max batch, so steady-state
//     run() calls perform no heap allocation in conv/im2col/SCC hot paths.
//
// run() is intentionally NOT thread-safe (it reuses the arena); one batcher
// worker owns each plan. Its kernels launch onto ThreadPool::current(), whose
// run_chunks serializes callers - the stand-in for a GPU's single command
// queue - so plans sharing a pool take turns launch by launch.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "nn/containers.hpp"
#include "obs/metrics.hpp"
#include "tensor/workspace.hpp"
#include "tune/tune.hpp"

namespace dsx::serve {

struct CompileOptions {
  /// Largest batch run() will accept; the arena is sized for it.
  int64_t max_batch = 8;
  /// Fold conv->BN pairs before freezing (disable for already-folded or
  /// BN-free models; folding is a no-op on them anyway).
  bool fold_bn = true;
  /// Force every SCCConv to the fused kernels.
  bool freeze_scc_fused = true;
  /// Kernel autotuning for the frozen plan (dsx::tune). kOff keeps today's
  /// heuristics and is bit-identical to the pre-tuning library; kCached
  /// applies existing TuningCache records; kTune measures cache misses at
  /// max_batch during compilation and bakes the winners into the plan.
  tune::Mode tuning = tune::Mode::kOff;
  /// Optional TuningCache file: loaded (when present) before the tuning
  /// pass and saved after it, so a second process warm-starts without
  /// re-measuring. Empty keeps the cache in-memory only.
  std::string tuning_cache;
  /// Measurement effort for the tuning pass.
  tune::TunerOptions tuner;
  /// Admit tune::Fidelity::kUlpBounded candidates (the dsx::simd FMA
  /// kernels) into this compile's tuning pass. Default OFF: the plan then
  /// only ever bakes bit-exact candidates and stays bit-identical to the
  /// pre-simd library. Opting in trades bit-identity for speed: baked
  /// winners may differ from the default kernels by up to simd::kMaxUlp ULP
  /// (the bound tests/test_simd.cpp enforces). The effective opt-in is this
  /// flag OR the session-level one (DSX_FAST_MATH), so zero-code env
  /// adoption still works.
  bool allow_fast_math = false;
};

/// One tuned layer in the frozen plan (CompileReport::tuned).
struct TunedLayerChoice {
  std::string layer;    // nn::Layer::name()
  std::string variant;  // winning registry variant ("fused", "simd_avx2"...)
  /// Numerical contract of the baked winner (kUlpBounded only ever appears
  /// when the compile opted into allow_fast_math).
  tune::Fidelity fidelity = tune::Fidelity::kBitExact;
  double median_ns = 0.0;   // winner's measured median
  double default_ns = 0.0;  // default implementation's measured median
};

struct CompileReport {
  int64_t bn_folded = 0;          // conv->BN pairs folded away
  int64_t identities_stripped = 0;  // placeholder layers removed
  int64_t relu_fused = 0;         // ReLU layers folded into the layer before
  int64_t scc_frozen = 0;         // SCC layers switched to the fused impl
  int64_t steps = 0;              // top-level layers in the frozen plan
  int64_t param_floats = 0;       // trainable parameter count
  int64_t workspace_floats = 0;   // arena high-water mark at max batch
  int64_t layers_tuned = 0;       // call sites resolved by the tuning pass
  /// Per-layer winners baked in by the tuning pass (empty when tuning off
  /// or when every record came without measurements, e.g. kCached misses).
  std::vector<TunedLayerChoice> tuned;
};

class CompiledModel {
 public:
  /// Compiles `model` for images of shape `image_shape` ([C, H, W]).
  CompiledModel(std::unique_ptr<nn::Sequential> model, Shape image_shape,
                CompileOptions opts = {});

  CompiledModel(CompiledModel&&) = default;
  CompiledModel& operator=(CompiledModel&&) = default;

  const CompileReport& report() const { return report_; }
  const CompileOptions& options() const { return opts_; }
  const Shape& image_shape() const { return image_shape_; }
  int64_t max_batch() const { return opts_.max_batch; }

  /// [batch, C, H, W] input shape.
  Shape input_shape(int64_t batch) const;
  /// Model output shape for a given batch.
  Shape output_shape(int64_t batch) const;

  /// The frozen model (eval-mode use only; tests compare against its
  /// per-image forward).
  nn::Sequential& model() { return *model_; }

  /// Eval-mode forward of a [N, C, H, W] batch, 1 <= N <= max_batch.
  /// Returns an owning tensor (arena memory is recycled between calls).
  /// NOT thread-safe - see file comment.
  Tensor run(const Tensor& batch);

  /// Registers the serving-arena occupancy gauges for this plan under
  /// {model=`model`[, replica=R]}: dsx_serve_workspace_used_floats (floats
  /// live after the last run), _peak_floats (high-water mark) and
  /// _capacity_floats (arena reservation). Until called the handles are
  /// detached and run() pays only their null checks; InferenceServer calls
  /// it at registration/swap, ReplicaSet per replica. An empty `model`
  /// detaches again.
  void set_metric_scope(const std::string& model, int replica = -1);

  /// Compiles an independently executable replica of this plan: the frozen
  /// model is deep-copied (Layer::clone) and recompiled with the same
  /// options. By default kTune demotes to kCached - the replica re-resolves
  /// its kernel choices from the tuning cache the original's compile
  /// populated and never measures. Passing `tuning` overrides the replica's
  /// mode instead: shard::ReplicaSet compiles clones under their execution
  /// lane's PoolScope with the original mode preserved, so a kTune
  /// prototype's fleet measures cache misses exactly once per distinct lane
  /// width (the tuning ProblemKey includes the executing pool's thread
  /// count) and later clones warm-start from those records. Outputs are
  /// bit-identical to this model's either way (every registered candidate
  /// is bit-identical by contract).
  std::unique_ptr<CompiledModel> clone_replica(
      std::optional<tune::Mode> tuning = std::nullopt) const;

 private:
  /// Resolves per-layer kernel choices by running one tuning dry run at
  /// max batch under the configured mode, then collects the baked winners
  /// into report_.tuned.
  void run_tuning_pass();

  CompileOptions opts_;
  Shape image_shape_;
  std::unique_ptr<nn::Sequential> model_;
  Workspace ws_;
  CompileReport report_;
  // Arena occupancy gauges (see set_metric_scope); detached by default.
  obs::Gauge ws_used_;
  obs::Gauge ws_peak_;
  obs::Gauge ws_capacity_;
};

}  // namespace dsx::serve
