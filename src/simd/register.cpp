#include "simd/register.hpp"

#include <vector>

#include "simd/depthwise.hpp"
#include "simd/gemm.hpp"
#include "simd/scc.hpp"
#include "tune/registry.hpp"

namespace dsx::simd {

namespace {

/// Vector ISA levels worth a candidate right now: every level above scalar
/// up to active_isa(). Evaluated at enumeration time, so a ScopedIsa /
/// DSX_SIMD override reshapes the menu immediately.
std::vector<Isa> candidate_levels() {
  std::vector<Isa> levels;
  const int active = static_cast<int>(active_isa());
  for (int l = static_cast<int>(Isa::kSse2); l <= active; ++l) {
    levels.push_back(static_cast<Isa>(l));
  }
  return levels;
}

std::string variant_name(Isa isa) {
  return std::string("simd_") + isa_name(isa);
}

}  // namespace

void register_simd_kernels(tune::KernelRegistry& registry) {
  // SCC forward: the SSE2 tile is the registry's default "fused" kernel
  // (scc::scc_forward_into runs it), so only the FMA levels above it add a
  // candidate (kUlpBounded).
  registry.register_scc_factory(
      [](const tune::ProblemKey&, std::vector<tune::SCCCandidate>& out) {
        for (const Isa isa : candidate_levels()) {
          if (isa == Isa::kSse2) continue;
          tune::SCCCandidate cand;
          cand.variant = variant_name(isa);
          cand.fidelity = tune::Fidelity::kUlpBounded;
          cand.run = [isa](const tune::SCCProblem& p) {
            scc_forward_into(*p.input, *p.weight, p.bias, *p.map, *p.out,
                             p.fuse_relu, isa);
          };
          out.push_back(std::move(cand));
        }
      });

  // conv2d forward: im2col + packed GEMM with the bias folded into the GEMM
  // epilogue. The blocked accumulation is kUlpBounded at every level.
  registry.register_conv_factory(
      [](const tune::ProblemKey& key, std::vector<tune::ConvCandidate>& out) {
        const Shape in_shape = make_nchw(key.n, key.c, key.h, key.w);
        const Shape w_shape{key.cout, key.c / key.groups, key.kernel,
                            key.kernel};
        const Conv2dArgs args{key.stride, key.pad, key.groups};
        // Qualified: ADL would also find dsx::conv2d_workspace_floats.
        const int64_t scratch =
            simd::conv2d_workspace_floats(in_shape, w_shape, args);
        for (const Isa isa : candidate_levels()) {
          tune::ConvCandidate cand;
          cand.variant = variant_name(isa);
          cand.fidelity = tune::Fidelity::kUlpBounded;
          cand.scratch_floats = scratch;
          cand.run = [isa](const tune::ConvProblem& p) {
            conv2d_forward_into(*p.input, *p.weight, p.bias, *p.args, *p.ws,
                                *p.out, p.fuse_relu, isa);
          };
          out.push_back(std::move(cand));
        }
      });

  // depthwise forward: the SSE2 tile is the registry's default "direct"
  // kernel (depthwise_forward_into runs it), so, as for SCC, only the FMA
  // levels above it add a candidate (kUlpBounded).
  registry.register_depthwise_factory(
      [](const tune::ProblemKey&,
         std::vector<tune::DepthwiseCandidate>& out) {
        for (const Isa isa : candidate_levels()) {
          if (isa == Isa::kSse2) continue;
          tune::DepthwiseCandidate cand;
          cand.variant = variant_name(isa);
          cand.fidelity = tune::Fidelity::kUlpBounded;
          cand.run = [isa](const tune::DepthwiseProblem& p) {
            depthwise_forward_into(*p.input, *p.weight, p.bias, *p.args,
                                   *p.out, p.fuse_relu, isa);
          };
          out.push_back(std::move(cand));
        }
      });
}

}  // namespace dsx::simd
