// Fused SCC kernels (the "DSXplore implementation" of paper §IV-B).
//
// Forward: output-centric - one GPU-model thread per output pixel; each
// thread does a gw-tap dot product between the filter weights and the pixels
// of the filter's (cyclic) channel window. No data duplication, no atomics.
//
// Backward: two designs, reproduced for the Fig. 9 ablation:
//   * input-centric (DSXplore): one thread per *input*-gradient pixel pulls
//     from every filter whose window covers its channel - race-free, zero
//     atomics;
//   * output-centric (DSXplore-Var): one thread per *output*-gradient pixel
//     pushes into the overlapped input channels - needs an atomic add per
//     tap, all counted by device::AtomicCounters.
//
// Weight layout: [Cout, gw]; bias: [Cout] (optional).
#pragma once

#include "core/channel_map.hpp"
#include "tensor/tensor.hpp"

namespace dsx::scc {

/// Output spatial shape for an SCC layer over `input`.
Shape scc_output_shape(const Shape& input, const ChannelWindowMap& map);

/// Output-centric forward pass.
Tensor scc_forward(const Tensor& input, const Tensor& weight,
                   const Tensor* bias, const ChannelWindowMap& map);

/// Forward into a preallocated `out` of shape scc_output_shape(input, map);
/// lets the serving runtime keep activations in a workspace arena.
/// Bit-identical to scc_forward. `fuse_relu` applies relu_value in the final
/// store, bit-identical to relu_forward of the unfused output.
void scc_forward_into(const Tensor& input, const Tensor& weight,
                      const Tensor* bias, const ChannelWindowMap& map,
                      Tensor& out, bool fuse_relu = false);

/// Ablation of the channel-cyclic optimization (paper Algorithm 2): each
/// filter recomputes its window start arithmetically instead of reusing the
/// precomputed one-cycle table. Numerically identical to scc_forward; kept
/// for the design-choice benchmarks.
Tensor scc_forward_no_cycle_table(const Tensor& input, const Tensor& weight,
                                  const Tensor* bias,
                                  const ChannelWindowMap& map);

/// Workspace-friendly form of the no-cycle-table ablation; bit-identical to
/// scc_forward_into. Registered as a dsx::tune candidate so the tuner can
/// measure the cycle-table choice per shape instead of assuming it.
void scc_forward_no_cycle_table_into(const Tensor& input, const Tensor& weight,
                                     const Tensor* bias,
                                     const ChannelWindowMap& map, Tensor& out,
                                     bool fuse_relu = false);

struct SCCGrads {
  Tensor dinput;
  Tensor dweight;
  Tensor dbias;
};

/// Input-centric backward (default; zero atomic operations).
SCCGrads scc_backward_input_centric(const Tensor& input, const Tensor& weight,
                                    const Tensor& doutput,
                                    const ChannelWindowMap& map,
                                    bool need_dinput, bool has_bias);

/// Output-centric backward (atomic-add variant, kept for the ablation).
SCCGrads scc_backward_output_centric(const Tensor& input, const Tensor& weight,
                                     const Tensor& doutput,
                                     const ChannelWindowMap& map,
                                     bool need_dinput, bool has_bias);

}  // namespace dsx::scc
