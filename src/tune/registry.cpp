#include "tune/registry.hpp"

#include "core/scc_gemm.hpp"
#include "core/scc_kernels.hpp"
#include "simd/register.hpp"

namespace dsx::tune {

namespace {

/// Drops kUlpBounded candidates unless fast-math admitted them. The default
/// implementation is always kBitExact, so the front stays the default.
template <typename Candidate>
void filter_fidelity(std::vector<Candidate>& candidates,
                     bool allow_ulp_bounded) {
  if (allow_ulp_bounded) return;
  std::erase_if(candidates, [](const Candidate& c) {
    return c.fidelity != Fidelity::kBitExact;
  });
}

template <typename Candidate>
std::optional<Candidate> find_in(std::vector<Candidate> candidates,
                                 const std::string& variant) {
  for (Candidate& c : candidates) {
    if (c.variant == variant) return std::move(c);
  }
  return std::nullopt;
}

}  // namespace

KernelRegistry& KernelRegistry::global() {
  static KernelRegistry registry;
  return registry;
}

KernelRegistry::KernelRegistry() {
  // ---- built-in SCC forward candidates -------------------------------------
  register_scc_factory([](const ProblemKey& key,
                          std::vector<SCCCandidate>& out) {
    SCCCandidate fused;
    fused.variant = "fused";
    fused.run = [](const SCCProblem& p) {
      scc::scc_forward_into(*p.input, *p.weight, p.bias, *p.map, *p.out,
                            p.fuse_relu);
    };
    out.push_back(std::move(fused));

    SCCCandidate nocc;
    nocc.variant = "fused_nocc";
    nocc.run = [](const SCCProblem& p) {
      scc::scc_forward_no_cycle_table_into(*p.input, *p.weight, p.bias, *p.map,
                                           *p.out, p.fuse_relu);
    };
    out.push_back(std::move(nocc));

    SCCCandidate gemm;
    gemm.variant = "gemm";
    // Gather buffer + output column (mirrors scc_gemm_workspace_floats).
    const int64_t rows = key.n * ((key.h - 1) / key.stride + 1) *
                         ((key.w - 1) / key.stride + 1);
    gemm.scratch_floats = Workspace::aligned_size(rows * key.gw) +
                          Workspace::aligned_size(rows);
    gemm.run = [](const SCCProblem& p) {
      scc::scc_forward_gemm_into(*p.input, *p.weight, p.bias, *p.map, *p.ws,
                                 *p.out, p.fuse_relu);
    };
    out.push_back(std::move(gemm));
  });

  // ---- built-in conv2d forward candidates ----------------------------------
  register_conv_factory([](const ProblemKey& key,
                           std::vector<ConvCandidate>& out) {
    const Shape in_shape = make_nchw(key.n, key.c, key.h, key.w);
    const Shape w_shape{key.cout, key.c / key.groups, key.kernel, key.kernel};
    const Conv2dArgs args{key.stride, key.pad, key.groups};
    ConvCandidate lowered;
    lowered.variant = "im2col";
    lowered.scratch_floats = conv2d_workspace_floats(in_shape, w_shape, args);
    lowered.run = [](const ConvProblem& p) {
      conv2d_forward_into(*p.input, *p.weight, p.bias, *p.args, *p.ws, *p.out,
                          p.fuse_relu);
    };
    out.push_back(std::move(lowered));

    ConvCandidate direct;
    direct.variant = "direct";
    direct.run = [](const ConvProblem& p) {
      conv2d_forward_direct_into(*p.input, *p.weight, p.bias, *p.args, *p.out,
                                 p.fuse_relu);
    };
    out.push_back(std::move(direct));
  });

  // ---- built-in depthwise forward candidates -------------------------------
  register_depthwise_factory([](const ProblemKey&,
                                std::vector<DepthwiseCandidate>& out) {
    DepthwiseCandidate direct;
    direct.variant = "direct";
    direct.run = [](const DepthwiseProblem& p) {
      depthwise_forward_into(*p.input, *p.weight, p.bias, *p.args, *p.out,
                             p.fuse_relu);
    };
    out.push_back(std::move(direct));
  });

  // ---- vectorized CPU backend ----------------------------------------------
  simd::register_simd_kernels(*this);
}

void KernelRegistry::register_scc_factory(SCCFactory factory) {
  std::lock_guard<std::mutex> lock(mu_);
  scc_factories_.push_back(std::move(factory));
}

void KernelRegistry::register_conv_factory(ConvFactory factory) {
  std::lock_guard<std::mutex> lock(mu_);
  conv_factories_.push_back(std::move(factory));
}

void KernelRegistry::register_depthwise_factory(DepthwiseFactory factory) {
  std::lock_guard<std::mutex> lock(mu_);
  depthwise_factories_.push_back(std::move(factory));
}

std::vector<SCCCandidate> KernelRegistry::scc_forward(
    const ProblemKey& key, bool allow_ulp_bounded) const {
  std::vector<SCCFactory> factories;
  {
    std::lock_guard<std::mutex> lock(mu_);
    factories = scc_factories_;
  }
  std::vector<SCCCandidate> out;
  for (const auto& f : factories) f(key, out);
  filter_fidelity(out, allow_ulp_bounded);
  return out;
}

std::vector<ConvCandidate> KernelRegistry::conv2d_forward(
    const ProblemKey& key, bool allow_ulp_bounded) const {
  std::vector<ConvFactory> factories;
  {
    std::lock_guard<std::mutex> lock(mu_);
    factories = conv_factories_;
  }
  std::vector<ConvCandidate> out;
  for (const auto& f : factories) f(key, out);
  filter_fidelity(out, allow_ulp_bounded);
  return out;
}

std::vector<DepthwiseCandidate> KernelRegistry::depthwise_forward(
    const ProblemKey& key, bool allow_ulp_bounded) const {
  std::vector<DepthwiseFactory> factories;
  {
    std::lock_guard<std::mutex> lock(mu_);
    factories = depthwise_factories_;
  }
  std::vector<DepthwiseCandidate> out;
  for (const auto& f : factories) f(key, out);
  filter_fidelity(out, allow_ulp_bounded);
  return out;
}

std::optional<SCCCandidate> KernelRegistry::find_scc(
    const ProblemKey& key, const std::string& variant,
    bool allow_ulp_bounded) const {
  return find_in(scc_forward(key, allow_ulp_bounded), variant);
}

std::optional<ConvCandidate> KernelRegistry::find_conv(
    const ProblemKey& key, const std::string& variant,
    bool allow_ulp_bounded) const {
  return find_in(conv2d_forward(key, allow_ulp_bounded), variant);
}

std::optional<DepthwiseCandidate> KernelRegistry::find_depthwise(
    const ProblemKey& key, const std::string& variant,
    bool allow_ulp_bounded) const {
  return find_in(depthwise_forward(key, allow_ulp_bounded), variant);
}

}  // namespace dsx::tune
