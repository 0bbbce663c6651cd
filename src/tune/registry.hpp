// Interchangeable kernel implementations per op family.
//
// The registry is the autotuner's menu: for a given ProblemKey it enumerates
// every (variant, grain) candidate that computes the same result - the
// contract is BIT-identical outputs (tests/test_tune.cpp enforces it
// property-style), which is what lets a frozen serving plan swap variants
// without re-validating numerics.
//
// Built-in candidates:
//   SCC forward : fused output-centric kernel (default), the cycle-table-off
//                 ablation, and the im2col-style per-filter GEMM route;
//   conv2d      : im2col+GEMM (default) and the direct no-lowering kernel;
//   depthwise   : the direct kernel (default).
// The families carry a small schedule axis: the device::parallel_for grain
// (library default / always-parallel / force-serial), pruned to the default
// alone when the pool has one thread. The dsx::simd backend registers one
// vectorized candidate per ISA level the host offers ("simd_sse2",
// "simd_avx2") into every family through the factory hooks below.
//
// Every candidate honours the problem's `fuse_relu` epilogue, which is
// bit-identical to running relu_forward on its unfused output, so one
// tuning record serves a layer with or without a fused ReLU.
//
// Candidate admission is fidelity-gated (tune::Fidelity): enumeration drops
// kUlpBounded candidates unless the caller opts into fast-math, so with the
// default (off) the historical bit-identity contract is exactly preserved -
// every enumerable candidate is bit-identical to the family default.
//
// A future backend (GPU, quantized) extends the menu by registering another
// factory; nothing else in the tuner changes.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/channel_map.hpp"
#include "ops/conv2d.hpp"
#include "tensor/tensor.hpp"
#include "tensor/workspace.hpp"
#include "tune/problem_key.hpp"

namespace dsx::tune {

/// One SCC forward problem instance; `out` must already have the output
/// shape, scratch is drawn from `ws`.
struct SCCProblem {
  const Tensor* input = nullptr;
  const Tensor* weight = nullptr;
  const Tensor* bias = nullptr;  // may be null
  const scc::ChannelWindowMap* map = nullptr;
  Workspace* ws = nullptr;
  Tensor* out = nullptr;
  bool fuse_relu = false;  // apply relu_value in the final store
};

/// One conv2d forward problem instance.
struct ConvProblem {
  const Tensor* input = nullptr;
  const Tensor* weight = nullptr;
  const Tensor* bias = nullptr;  // may be null
  const Conv2dArgs* args = nullptr;
  Workspace* ws = nullptr;
  Tensor* out = nullptr;
  bool fuse_relu = false;  // apply relu_value in the final store
};

/// One depthwise forward problem instance.
struct DepthwiseProblem {
  const Tensor* input = nullptr;
  const Tensor* weight = nullptr;
  const Tensor* bias = nullptr;  // may be null
  const DepthwiseArgs* args = nullptr;
  Workspace* ws = nullptr;
  Tensor* out = nullptr;
  bool fuse_relu = false;  // apply relu_value in the final store
};

/// Grain axis value meaning "leave device::kDefaultGrain alone".
inline constexpr int64_t kGrainDefault = 0;

struct SCCCandidate {
  std::string variant;  // "fused", "fused_nocc", "gemm", "simd_avx2", ...
  int64_t grain = kGrainDefault;  // device grain override; 0 = default
  int64_t scratch_floats = 0;     // extra arena draw (tie-break axis)
  Fidelity fidelity = Fidelity::kBitExact;
  std::function<void(const SCCProblem&)> run;  // installs the grain itself

  std::string label() const;  // "fused@g=default" / "gemm@g=serial" ...
};

struct ConvCandidate {
  std::string variant;  // "im2col", "direct", "simd_avx2", ...
  int64_t grain = kGrainDefault;
  int64_t scratch_floats = 0;
  Fidelity fidelity = Fidelity::kBitExact;
  std::function<void(const ConvProblem&)> run;

  std::string label() const;
};

struct DepthwiseCandidate {
  std::string variant;  // "direct", "simd_sse2", ...
  int64_t grain = kGrainDefault;
  int64_t scratch_floats = 0;
  Fidelity fidelity = Fidelity::kBitExact;
  std::function<void(const DepthwiseProblem&)> run;

  std::string label() const;
};

/// Human-readable grain axis value ("default", "serial", or the number).
std::string grain_name(int64_t grain);

class KernelRegistry {
 public:
  /// Process-wide registry, built-ins pre-registered.
  static KernelRegistry& global();

  /// All candidates for an SCC forward problem, default implementation
  /// first (selection prefers earlier entries on ties). `allow_ulp_bounded`
  /// admits Fidelity::kUlpBounded candidates (fast-math opt-in); the
  /// default keeps the enumeration bit-exact only.
  std::vector<SCCCandidate> scc_forward(const ProblemKey& key,
                                        bool allow_ulp_bounded = false) const;
  std::vector<ConvCandidate> conv2d_forward(
      const ProblemKey& key, bool allow_ulp_bounded = false) const;
  std::vector<DepthwiseCandidate> depthwise_forward(
      const ProblemKey& key, bool allow_ulp_bounded = false) const;

  /// Candidate with the given variant/grain, or nullopt when the registry
  /// no longer offers it (a cache record from an older build, a simd record
  /// from a wider host, or a kUlpBounded record while fast-math is off -
  /// the caller falls back to the default implementation in every case).
  std::optional<SCCCandidate> find_scc(const ProblemKey& key,
                                       const std::string& variant,
                                       int64_t grain,
                                       bool allow_ulp_bounded = false) const;
  std::optional<ConvCandidate> find_conv(const ProblemKey& key,
                                         const std::string& variant,
                                         int64_t grain,
                                         bool allow_ulp_bounded = false) const;
  std::optional<DepthwiseCandidate> find_depthwise(
      const ProblemKey& key, const std::string& variant, int64_t grain,
      bool allow_ulp_bounded = false) const;

  /// Extension point: a factory appends candidates for keys it understands.
  using SCCFactory =
      std::function<void(const ProblemKey&, std::vector<SCCCandidate>&)>;
  using ConvFactory =
      std::function<void(const ProblemKey&, std::vector<ConvCandidate>&)>;
  using DepthwiseFactory =
      std::function<void(const ProblemKey&, std::vector<DepthwiseCandidate>&)>;
  void register_scc_factory(SCCFactory factory);
  void register_conv_factory(ConvFactory factory);
  void register_depthwise_factory(DepthwiseFactory factory);

 private:
  KernelRegistry();

  mutable std::mutex mu_;
  std::vector<SCCFactory> scc_factories_;
  std::vector<ConvFactory> conv_factories_;
  std::vector<DepthwiseFactory> depthwise_factories_;
};

}  // namespace dsx::tune
