// GEMM-based SCC - the implementation route the paper evaluates and REJECTS
// (§IV-B, "we decide not to move forward with GEMM-based solution").
//
// Each SCC filter covers a different (cyclic) window of input channels, so a
// GEMM formulation cannot share one lowered matrix across filters the way
// standard/group convolution can. It must run Cout fine-grained GEMMs, each
// between a gathered [N*Ho*Wo, gw] matrix and a skewed [gw, 1] weight vector
// (the paper's example: 128 GEMMs of ((56x56) x 32) x (32 x 1) where GPW
// needs just 2 of ((56x56) x 32) x (32 x 64)).
//
// We implement it faithfully - per-filter gather + ops/gemm - so the claim
// is measurable rather than asserted: it is numerically identical to the
// fused kernels (property-tested) and loses to them in bench/micro_kernels
// on both time (kernel-launch amortisation) and memory (the gather buffer).
#pragma once

#include "core/channel_map.hpp"
#include "core/scc_kernels.hpp"
#include "tensor/tensor.hpp"
#include "tensor/workspace.hpp"

namespace dsx::scc {

/// Forward pass via Cout per-filter GEMMs. Numerically identical to
/// scc_forward; costs an extra [N*Ho*Wo, gw] gather per filter.
Tensor scc_forward_gemm(const Tensor& input, const Tensor& weight,
                        const Tensor* bias, const ChannelWindowMap& map);

/// Workspace-backed variant: the per-filter gather buffer and output column
/// are drawn from `ws` instead of being heap-allocated per call.
Tensor scc_forward_gemm_ws(const Tensor& input, const Tensor& weight,
                           const Tensor* bias, const ChannelWindowMap& map,
                           Workspace& ws);

/// GEMM route writing into a caller-provided `out`, bit-identical to
/// scc_forward_into: the bias is seeded into the output column before the
/// GEMM (beta = 1) so each pixel accumulates b + w0*x0 + w1*x1 + ... in
/// exactly the fused kernel's order. This is the form dsx::tune registers as
/// a candidate; scc_forward_gemm_ws keeps the historical bias-after order
/// for the §IV-B ablation benches. `fuse_relu` as in scc_forward_into.
void scc_forward_gemm_into(const Tensor& input, const Tensor& weight,
                           const Tensor* bias, const ChannelWindowMap& map,
                           Workspace& ws, Tensor& out, bool fuse_relu = false);

/// Floats of scratch scc_forward_gemm_ws draws from the workspace.
int64_t scc_gemm_workspace_floats(const Shape& input,
                                  const ChannelWindowMap& map);

/// Backward pass via per-filter GEMMs: dW_f = A_f^T dy_f (a skewed [gw,1]
/// GEMM), dA_f = dy_f w_f^T scattered back into dinput. The scatter
/// accumulates across overlapping filters, which forces filter-sequential
/// execution - exactly the serialization the paper's §IV argues makes GEMM
/// composition a poor fit for SCC.
SCCGrads scc_backward_gemm(const Tensor& input, const Tensor& weight,
                           const Tensor& doutput, const ChannelWindowMap& map,
                           bool need_dinput, bool has_bias);

}  // namespace dsx::scc
