// Per-ISA kernel entry points of the vectorized CPU backend (dsx::simd).
//
// One generic implementation (kernels_impl.inc, written against the Vec
// abstraction in vec.hpp) is compiled three times - kernels_scalar.cpp,
// kernels_sse2.cpp, kernels_avx2.cpp - each into its own namespace with its
// own per-file arch flags. This header declares the shared argument structs
// and the three `table()` accessors; dispatch.cpp picks a table at runtime
// from cpuid (+ the DSX_SIMD override) so the same binary runs on any
// x86-64 host and only ever executes instructions it supports.
//
// The structs are raw-pointer "launch parameter blocks" on purpose: the
// kernel TUs stay free of Tensor/ops dependencies, and the public wrappers
// (simd/gemm.hpp, simd/scc.hpp, simd/depthwise.hpp) do all shape validation
// before handing work down.
#pragma once

#include <cstdint>

namespace dsx::scc {
class ChannelWindowMap;
}

namespace dsx::simd {

/// C = alpha * op(A) * op(B) + beta * C, then the optional fused epilogue
/// (+row_bias per output row, ReLU). Row-major, same operand conventions as
/// dsx::gemm. pack_a/pack_b are caller-provided panel buffers of at least
/// gemm_pack_a_floats() / gemm_pack_b_floats(N) floats (drawn from a serving
/// Workspace on hot paths so steady state performs no heap allocation).
struct GemmCall {
  int64_t M = 0, N = 0, K = 0;
  float alpha = 1.0f, beta = 0.0f;
  bool trans_a = false, trans_b = false;
  const float* A = nullptr;
  int64_t lda = 0;
  const float* B = nullptr;
  int64_t ldb = 0;
  float* C = nullptr;
  int64_t ldc = 0;
  const float* row_bias = nullptr;  // optional, length M; added per C row
  bool relu = false;                // max(x, 0) after bias
  float* pack_a = nullptr;
  float* pack_b = nullptr;
};

/// Filters per SCC register tile. The CPU execution item of every SCC
/// forward launch (scc::scc_forward_into and the simd candidates alike) is
/// one image x a block of this many consecutive filters; the launch still
/// records one GPU-model thread per output pixel.
inline constexpr int64_t kSccTileFilters = 4;

/// Fused SCC forward (one filter = one cyclic input-channel window), with an
/// optional fused bias+ReLU epilogue. Mirrors scc::scc_forward_into's
/// geometry; `map` supplies the per-filter window starts.
struct SccCall {
  const char* name = "simd_scc_forward";  // launch record name
  const float* input = nullptr;   // [N, Cin, H, W]
  const float* weight = nullptr;  // [Cout, gw]
  const float* bias = nullptr;    // optional [Cout]
  const scc::ChannelWindowMap* map = nullptr;
  /// Channel-cyclic ablation (paper Algorithm 2): each filter recomputes its
  /// window start as (f * step) % Cin instead of reading the map's
  /// one-cycle table. Same starts, same results.
  bool recompute_starts = false;
  int64_t N = 0, Cin = 0, H = 0, W = 0;
  int64_t Cout = 0, Ho = 0, Wo = 0, gw = 0, stride = 1;
  float* out = nullptr;  // [N, Cout, Ho, Wo]
  bool relu = false;
};

/// Depthwise KxK forward with optional fused bias+ReLU epilogue; mirrors
/// dsx::depthwise_forward_into's geometry. The CPU execution item is one
/// image x a block of vector-width consecutive channels (the lanes); the
/// launch still records one GPU-model thread per output pixel.
struct DwCall {
  const char* name = "simd_dw_forward";  // launch record name
  const float* input = nullptr;   // [N, C, H, W]
  const float* weight = nullptr;  // [C, 1, K, K]
  const float* bias = nullptr;    // optional [C]
  int64_t N = 0, C = 0, H = 0, W = 0, K = 0;
  int64_t Ho = 0, Wo = 0, stride = 1, pad = 0;
  float* out = nullptr;  // [N, C, Ho, Wo]
  bool relu = false;
};

/// One ISA level's kernel set. `compiled_level` is what the TU actually
/// achieved (a TU built without its arch flags degrades, see vec.hpp) -
/// dispatch refuses to hand out tables whose compiled level falls short.
struct KernelTable {
  int compiled_level = 0;  // 0 scalar, 1 sse2, 2 avx2+fma
  int vector_width = 1;    // float lanes per Vec
  void (*gemm)(const GemmCall&) = nullptr;
  void (*scc_forward)(const SccCall&) = nullptr;
  void (*depthwise_forward)(const DwCall&) = nullptr;
};

/// Documented accuracy bound for tune::Fidelity::kUlpBounded simd kernels:
/// every element of a kUlpBounded kernel's output is within this many ULP of
/// the scalar reference kernel's output (FMA contracts mul+add to one
/// rounding; blocked GEMM applies alpha/beta with different bracketing).
/// This is a RELATIVE-error bound: it holds whenever the accumulation does
/// not catastrophically cancel (zero-crossing sums shrink the result's
/// magnitude without shrinking the absolute error, inflating the ULP
/// distance unboundedly - true of any reordered summation, not just these
/// kernels). tests/test_simd.cpp enforces the bound property-style across
/// odd-shape tail sweeps on every ISA level the host offers, on
/// positive-bounded operands where the relative bound is meaningful.
inline constexpr int64_t kMaxUlp = 64;

// Cache-blocking constants shared by every ISA level. The micro-kernel is
// kGemmMR x (2 * vector_width); panel buffers are sized for the widest
// level (kGemmMaxNR) so one arena reservation serves whatever level the
// dispatcher picks at runtime.
inline constexpr int64_t kGemmMR = 6;     // micro-kernel rows
inline constexpr int64_t kGemmMaxNR = 16; // widest micro-kernel cols (AVX2)
inline constexpr int64_t kGemmKC = 256;   // K-panel depth
inline constexpr int64_t kGemmMC = 72;    // M-panel height (multiple of MR)

/// Floats GemmCall::pack_a must provide (one MC x KC panel, MR-padded).
inline int64_t gemm_pack_a_floats() { return kGemmMC * kGemmKC; }
/// Floats GemmCall::pack_b must provide for an N-column problem.
inline int64_t gemm_pack_b_floats(int64_t N) {
  const int64_t n_pad = (N + kGemmMaxNR - 1) / kGemmMaxNR * kGemmMaxNR;
  return kGemmKC * n_pad;
}

namespace scalar {
const KernelTable& table();
}
namespace sse2 {
const KernelTable& table();
}
namespace avx2 {
const KernelTable& table();
}

}  // namespace dsx::simd
