#include "simd/gemm.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "ops/im2col.hpp"

namespace dsx::simd {

namespace {

void run_gemm_packed(bool trans_a, bool trans_b, int64_t M, int64_t N,
                     int64_t K, float alpha, const float* A, int64_t lda,
                     const float* B, int64_t ldb, float beta, float* C,
                     int64_t ldc, const float* row_bias, bool relu,
                     float* pack_a, float* pack_b, Isa isa) {
  GemmCall call;
  call.M = M;
  call.N = N;
  call.K = K;
  call.alpha = alpha;
  call.beta = beta;
  call.trans_a = trans_a;
  call.trans_b = trans_b;
  call.A = A;
  call.lda = lda;
  call.B = B;
  call.ldb = ldb;
  call.C = C;
  call.ldc = ldc;
  call.row_bias = row_bias;
  call.relu = relu;
  call.pack_a = pack_a;
  call.pack_b = pack_b;
  kernels(isa).gemm(call);
}

void run_gemm(bool trans_a, bool trans_b, int64_t M, int64_t N, int64_t K,
              float alpha, const float* A, int64_t lda, const float* B,
              int64_t ldb, float beta, float* C, int64_t ldc,
              const float* row_bias, bool relu, Workspace& ws, Isa isa) {
  DSX_REQUIRE(M >= 0 && N >= 0 && K >= 0, "simd::gemm: negative dimension");
  DSX_REQUIRE(A != nullptr && B != nullptr && C != nullptr,
              "simd::gemm: null operand");
  if (M == 0 || N == 0) return;
  run_gemm_packed(trans_a, trans_b, M, N, K, alpha, A, lda, B, ldb, beta, C,
                  ldc, row_bias, relu, ws.alloc(gemm_pack_a_floats()),
                  ws.alloc(gemm_pack_b_floats(N)), isa);
}

}  // namespace

int64_t gemm_workspace_floats(int64_t M, int64_t N, int64_t K) {
  (void)M;
  (void)K;
  return Workspace::aligned_size(gemm_pack_a_floats()) +
         Workspace::aligned_size(gemm_pack_b_floats(N));
}

void gemm_ws(bool trans_a, bool trans_b, int64_t M, int64_t N, int64_t K,
             float alpha, const float* A, int64_t lda, const float* B,
             int64_t ldb, float beta, float* C, int64_t ldc, Workspace& ws,
             Isa isa) {
  run_gemm(trans_a, trans_b, M, N, K, alpha, A, lda, B, ldb, beta, C, ldc,
           /*row_bias=*/nullptr, /*relu=*/false, ws, isa);
}

void gemm(bool trans_a, bool trans_b, int64_t M, int64_t N, int64_t K,
          float alpha, const float* A, int64_t lda, const float* B,
          int64_t ldb, float beta, float* C, int64_t ldc, Isa isa) {
  // Thread-local arena: grows to the high-water mark once, then serves every
  // later call allocation-free (the ws overloads are for serving arenas).
  thread_local Workspace scratch;
  scratch.reset();
  gemm_ws(trans_a, trans_b, M, N, K, alpha, A, lda, B, ldb, beta, C, ldc,
          scratch, isa);
}

void gemm_bias_relu_ws(bool trans_a, bool trans_b, int64_t M, int64_t N,
                       int64_t K, float alpha, const float* A, int64_t lda,
                       const float* B, int64_t ldb, float beta, float* C,
                       int64_t ldc, const float* row_bias, bool relu,
                       Workspace& ws, Isa isa) {
  run_gemm(trans_a, trans_b, M, N, K, alpha, A, lda, B, ldb, beta, C, ldc,
           row_bias, relu, ws, isa);
}

int64_t conv2d_workspace_floats(const Shape& input, const Shape& weight,
                                const Conv2dArgs& args) {
  const Shape out = conv2d_output_shape(input, weight, args);
  const int64_t K = weight.dim(2);
  const int64_t planeo = out.h() * out.w();
  const int64_t rows_g = (input.c() / args.groups) * K * K;
  const int64_t cout_g = weight.dim(0) / args.groups;
  const bool is_1x1_dense = K == 1 && args.stride == 1 && args.pad == 0;
  const int64_t col = is_1x1_dense
                          ? 0
                          : Workspace::aligned_size(input.c() * K * K * planeo);
  return col + gemm_workspace_floats(cout_g, planeo, rows_g);
}

void conv2d_forward_into(const Tensor& input, const Tensor& weight,
                         const Tensor* bias, const Conv2dArgs& args,
                         Workspace& ws, Tensor& out, bool fuse_relu,
                         Isa isa) {
  const Shape expect = conv2d_output_shape(input.shape(), weight.shape(), args);
  DSX_REQUIRE(out.shape() == expect,
              "simd::conv2d: out shape " << out.shape().to_string()
                                         << ", expected " << expect.to_string());
  const int64_t N = input.shape().n(), Cin = input.shape().c();
  const int64_t H = input.shape().h(), W = input.shape().w();
  const int64_t Cout = weight.shape().dim(0), K = weight.shape().dim(2);
  const int64_t Ho = expect.h(), Wo = expect.w();
  const int64_t planeo = Ho * Wo;
  const int64_t groups = args.groups;
  const int64_t cin_g = Cin / groups, cout_g = Cout / groups;
  const int64_t rows_g = cin_g * K * K;
  if (bias != nullptr) {
    DSX_REQUIRE(bias->shape() == Shape{Cout},
                "simd::conv2d: bias shape " << bias->shape().to_string());
  }
  const bool is_1x1_dense = K == 1 && args.stride == 1 && args.pad == 0;

  float* col = is_1x1_dense ? nullptr : ws.alloc(Cin * K * K * planeo);
  // Pack panels allocated once and reused across every (image, group) GEMM -
  // a serving arena sees exactly conv2d_workspace_floats() of draw per call.
  float* pack_a = ws.alloc(gemm_pack_a_floats());
  float* pack_b = ws.alloc(gemm_pack_b_floats(planeo));
  for (int64_t n = 0; n < N; ++n) {
    const float* in_n = input.data() + n * Cin * H * W;
    float* out_n = out.data() + n * Cout * planeo;
    const float* lowered = in_n;
    if (!is_1x1_dense) {
      im2col(in_n, Cin, H, W, K, args.stride, args.pad, col);
      lowered = col;
    }
    for (int64_t g = 0; g < groups; ++g) {
      run_gemm_packed(
          false, false, cout_g, planeo, rows_g, 1.0f,
          weight.data() + g * cout_g * rows_g, rows_g,
          lowered + g * rows_g * planeo, planeo, 0.0f,
          out_n + g * cout_g * planeo, planeo,
          bias != nullptr ? bias->data() + g * cout_g : nullptr,
          fuse_relu, pack_a, pack_b, isa);
    }
  }
}

}  // namespace dsx::simd
