// Packed, register-blocked GEMM of the vectorized CPU backend (dsx::simd).
//
// Same contract as dsx::gemm (C = alpha*op(A)*op(B) + beta*C, row-major),
// implemented the way Snytsar's commodity-hardware primitives and the tiled
// composable-kernel structure prescribe: A and B are repacked into
// cache-resident panels, a kGemmMR x (2*vector_width) micro-kernel keeps the
// accumulators in registers (FMA at AVX2 level), and masked partial stores
// handle the M/N tails so odd shapes never read or write out of bounds.
//
// Numerics: ULP-bounded relative to dsx::gemm, NOT bit-identical (see
// kernels.hpp kMaxUlp) - which is why the tuner only admits the simd GEMM
// candidates under CompileOptions.allow_fast_math / Session fast-math.
//
// The packing buffers come from a Workspace so serving hot paths stay
// allocation-free; the plain overload uses a thread-local scratch arena.
#pragma once

#include <cstdint>

#include "ops/conv2d.hpp"
#include "simd/dispatch.hpp"
#include "tensor/tensor.hpp"
#include "tensor/workspace.hpp"

namespace dsx::simd {

/// Floats of Workspace scratch gemm_ws draws for an (M, N, K) problem.
int64_t gemm_workspace_floats(int64_t M, int64_t N, int64_t K);

/// Packed GEMM with pack panels drawn from `ws`. `isa` defaults to the
/// runtime-dispatched level; passing an explicit level (tests, tuner
/// candidates) is clamped to what this host can execute.
void gemm_ws(bool trans_a, bool trans_b, int64_t M, int64_t N, int64_t K,
             float alpha, const float* A, int64_t lda, const float* B,
             int64_t ldb, float beta, float* C, int64_t ldc, Workspace& ws,
             Isa isa = active_isa());

/// Drop-in signature twin of dsx::gemm (thread-local scratch arena).
void gemm(bool trans_a, bool trans_b, int64_t M, int64_t N, int64_t K,
          float alpha, const float* A, int64_t lda, const float* B,
          int64_t ldb, float beta, float* C, int64_t ldc,
          Isa isa = active_isa());

/// GEMM with the fused per-row bias + optional ReLU epilogue applied at the
/// final K-block store (row_bias may be null, length M otherwise).
void gemm_bias_relu_ws(bool trans_a, bool trans_b, int64_t M, int64_t N,
                       int64_t K, float alpha, const float* A, int64_t lda,
                       const float* B, int64_t ldb, float beta, float* C,
                       int64_t ldc, const float* row_bias, bool relu,
                       Workspace& ws, Isa isa = active_isa());

/// conv2d forward on the im2col + packed-GEMM route with the bias folded
/// into the GEMM epilogue. Same shape contract as conv2d_forward_into;
/// ULP-bounded relative to it (registered as a tune candidate under
/// fast-math). Scratch (columns + pack panels) comes from `ws`. `fuse_relu`
/// applies the ReLU in the same epilogue.
void conv2d_forward_into(const Tensor& input, const Tensor& weight,
                         const Tensor* bias, const Conv2dArgs& args,
                         Workspace& ws, Tensor& out, bool fuse_relu = false,
                         Isa isa = active_isa());

/// Floats of scratch simd::conv2d_forward_into draws from the workspace.
int64_t conv2d_workspace_floats(const Shape& input, const Shape& weight,
                                const Conv2dArgs& args);

}  // namespace dsx::simd
