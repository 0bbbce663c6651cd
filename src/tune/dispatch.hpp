// Tuned kernel dispatch - the integration point between ops and the tuner.
//
// These are drop-in replacements for scc::scc_forward_into /
// conv2d_forward_into that consult the KernelRegistry + TuningCache under
// the Session's mode. In kOff mode they collapse to the default kernel with
// one branch of overhead, keeping tuning-off behavior bit-identical to the
// pre-tuning library.
//
// A call site may pass a persistent Site: the first resolution (cache hit or
// fresh measurement) is BAKED into it and every later call executes the
// resolved candidate directly - no key building, no cache lookup. This is
// how serve::CompiledModel freezes per-layer winners into a plan: each
// nn::Conv2d / nn::SCCConv owns its Site, the compile-time tuning pass
// resolves them once, and steady-state run() never touches the session.
#pragma once

#include <optional>

#include "obs/metrics.hpp"
#include "tune/cache.hpp"
#include "tune/registry.hpp"

namespace dsx::tune {

/// Per-call-site baked resolution for SCC forward.
///
/// `kernel_ns` feeds dsx_tune_kernel_ns_total{variant=}: cumulative time the
/// process spent inside this site's baked winner, attributed at dispatch
/// while the profiler samples (obs::prof). Registered at bake time (cold
/// path) keyed by the winner's variant; detached until then and whenever
/// profiling is off the fast path pays one relaxed load only.
struct SccSite {
  std::optional<SCCCandidate> baked;
  std::optional<TuningRecord> record;  // absent when baked the default
  obs::Counter kernel_ns;
  bool resolved() const { return baked.has_value(); }
  void reset() { baked.reset(); record.reset(); kernel_ns = {}; }
};

/// Per-call-site baked resolution for conv2d forward.
struct ConvSite {
  std::optional<ConvCandidate> baked;
  std::optional<TuningRecord> record;
  obs::Counter kernel_ns;
  bool resolved() const { return baked.has_value(); }
  void reset() { baked.reset(); record.reset(); kernel_ns = {}; }
};

/// Per-call-site baked resolution for depthwise forward.
struct DepthwiseSite {
  std::optional<DepthwiseCandidate> baked;
  std::optional<TuningRecord> record;
  obs::Counter kernel_ns;
  bool resolved() const { return baked.has_value(); }
  void reset() { baked.reset(); record.reset(); kernel_ns = {}; }
};

/// Executes the best-known SCC forward implementation for this problem.
/// `out` must already have scc_output_shape; scratch comes from `ws`.
/// `fuse_relu` applies the ReLU epilogue in whichever kernel runs.
void scc_forward_dispatch(const Tensor& input, const Tensor& weight,
                          const Tensor* bias, const scc::ChannelWindowMap& map,
                          Workspace& ws, Tensor& out, SccSite* site = nullptr,
                          bool fuse_relu = false);

/// Executes the best-known conv2d forward implementation for this problem.
void conv2d_forward_dispatch(const Tensor& input, const Tensor& weight,
                             const Tensor* bias, const Conv2dArgs& args,
                             Workspace& ws, Tensor& out,
                             ConvSite* site = nullptr, bool fuse_relu = false);

/// Executes the best-known depthwise forward implementation.
void depthwise_forward_dispatch(const Tensor& input, const Tensor& weight,
                                const Tensor* bias, const DepthwiseArgs& args,
                                Workspace& ws, Tensor& out,
                                DepthwiseSite* site = nullptr,
                                bool fuse_relu = false);

}  // namespace dsx::tune
