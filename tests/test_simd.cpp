// dsx::simd - the runtime-dispatched vectorized CPU backend.
//
// The load-bearing guarantees:
//   * runtime dispatch never hands out an ISA the host/build cannot execute
//     (DSX_SIMD/set_active_isa clamp to detect_isa());
//   * packed GEMM / conv matches the scalar library within the documented
//     simd::kMaxUlp bound, across odd-M/N/K and channel-tail sweeps on
//     EVERY ISA level the host offers (masked-remainder paths included);
//   * the SCC and depthwise simd kernels are BIT-identical to the scalar
//     library at scalar/SSE2 level (tune::Fidelity::kBitExact) and
//     ULP-bounded at AVX2+FMA level;
//   * the fused bias+ReLU epilogues agree with reference epilogues;
//   * the tune registry only enumerates kUlpBounded candidates under
//     fast-math, and a cached kUlpBounded record is never applied to a
//     strict session (no silent numerics change);
//   * serving compiles stay bit-identical with allow_fast_math off and
//     report per-layer fidelity when it is on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "core/scc_gemm.hpp"
#include "core/scc_kernels.hpp"
#include "nn/layers_basic.hpp"
#include "nn/layers_conv.hpp"
#include "ops/activations.hpp"
#include "ops/conv2d.hpp"
#include "ops/depthwise.hpp"
#include "ops/gemm.hpp"
#include "serve/compiled_model.hpp"
#include "simd/depthwise.hpp"
#include "simd/dispatch.hpp"
#include "simd/gemm.hpp"
#include "simd/scc.hpp"
#include "tensor/random.hpp"
#include "tune/dispatch.hpp"
#include "tune/tune.hpp"
#include "testing_utils.hpp"

namespace dsx {
namespace {

using testing::bit_identical;

/// Every ISA level this host can actually execute, scalar first.
std::vector<simd::Isa> host_levels() {
  std::vector<simd::Isa> levels;
  for (const simd::Isa isa :
       {simd::Isa::kScalar, simd::Isa::kSse2, simd::Isa::kAvx2}) {
    if (simd::isa_available(isa)) levels.push_back(isa);
  }
  return levels;
}

/// True when `isa` must be bit-identical to the scalar library for the SCC
/// and depthwise kernels (no FMA below AVX2 level).
bool bit_exact_level(simd::Isa isa) { return isa != simd::Isa::kAvx2; }

struct SessionGuard {
  SessionGuard() { reset(); }
  ~SessionGuard() { reset(); }
  static void reset() {
    tune::Session::global().set_mode(tune::Mode::kOff);
    tune::Session::global().set_cache_path("");
    tune::Session::global().cache().clear();
    tune::Session::global().set_tuner_options({});
    tune::Session::global().set_allow_fast_math(false);
  }
};

// ---- dispatch ---------------------------------------------------------------

TEST(SimdDispatch, ParseNamesAndDetect) {
  EXPECT_EQ(simd::parse_isa("scalar"), simd::Isa::kScalar);
  EXPECT_EQ(simd::parse_isa("sse2"), simd::Isa::kSse2);
  EXPECT_EQ(simd::parse_isa("avx2"), simd::Isa::kAvx2);
  EXPECT_THROW(simd::parse_isa("avx512"), Error);
  EXPECT_STREQ(simd::isa_name(simd::Isa::kAvx2), "avx2");
  // The DSX_SIMD override parses through the same function, so every level
  // name the env accepts is covered here.
  EXPECT_TRUE(simd::isa_available(simd::Isa::kScalar));
  EXPECT_TRUE(simd::isa_available(simd::detect_isa()));
}

TEST(SimdDispatch, SetActiveClampsToHostAndScopedIsaRestores) {
  const simd::Isa before = simd::active_isa();
  // Requesting the widest level lands at most at detect_isa().
  const simd::Isa applied = simd::set_active_isa(simd::Isa::kAvx2);
  EXPECT_EQ(applied, simd::detect_isa());
  simd::set_active_isa(before);
  {
    simd::ScopedIsa forced(simd::Isa::kScalar);  // DSX_SIMD=scalar equivalent
    EXPECT_EQ(simd::active_isa(), simd::Isa::kScalar);
    const auto& table = simd::kernels(simd::active_isa());
    EXPECT_EQ(table.compiled_level, 0);
    EXPECT_EQ(table.vector_width, 1);
  }
  EXPECT_EQ(simd::active_isa(), before);
  // The table for a given level never exceeds what it claims.
  for (const simd::Isa isa : host_levels()) {
    EXPECT_EQ(simd::kernels(isa).compiled_level, static_cast<int>(isa));
  }
}

// ---- ULP helper sanity ------------------------------------------------------

TEST(SimdUlp, DistanceBasics) {
  EXPECT_EQ(testing::ulp_distance(1.0f, 1.0f), 0);
  EXPECT_EQ(testing::ulp_distance(0.0f, -0.0f), 0);
  EXPECT_EQ(testing::ulp_distance(1.0f, std::nextafterf(1.0f, 2.0f)), 1);
  EXPECT_EQ(testing::ulp_distance(-1.0f, std::nextafterf(-1.0f, -2.0f)), 1);
  EXPECT_GT(testing::ulp_distance(1.0f, -1.0f), int64_t{1} << 40);
  EXPECT_GT(testing::ulp_distance(1.0f, std::nanf("")), int64_t{1} << 40);
}

// ---- packed GEMM ------------------------------------------------------------

TEST(SimdGemm, MatchesScalarWithinUlpAcrossOddShapesAndTails) {
  Rng rng(101);
  // Odd M/N/K chosen to hit every masked-remainder path: M tails of the 6-row
  // micro-kernel, N tails of both the 8- and 16-wide panels, K crossing the
  // 256-deep K-blocking boundary.
  const struct {
    int64_t M, N, K;
  } shapes[] = {{1, 1, 1},   {5, 7, 9},    {6, 16, 8},   {7, 17, 13},
                {13, 33, 67}, {17, 31, 130}, {3, 129, 300}, {23, 15, 257}};
  const struct {
    float alpha, beta;
    bool trans_a, trans_b;
  } variants[] = {{1.0f, 0.0f, false, false},
                  {0.5f, 1.0f, false, false},
                  {1.0f, 0.0f, true, false},
                  {1.0f, 0.0f, false, true},
                  {2.0f, 0.5f, true, true}};
  for (const auto& s : shapes) {
    for (const auto& v : variants) {
      // Positive operands: the kMaxUlp contract is a relative-error bound,
      // which zero-crossing sums would void (cancellation shrinks the
      // result without shrinking the absolute error).
      const Tensor a = random_uniform(
          v.trans_a ? Shape{s.K, s.M} : Shape{s.M, s.K}, rng, 0.0f, 1.0f);
      const Tensor b = random_uniform(
          v.trans_b ? Shape{s.N, s.K} : Shape{s.K, s.N}, rng, 0.0f, 1.0f);
      Tensor c0 = random_uniform(Shape{s.M, s.N}, rng, 0.0f, 1.0f);
      Tensor expect = c0.clone();
      gemm(v.trans_a, v.trans_b, s.M, s.N, s.K, v.alpha, a.data(),
           a.shape().dim(1), b.data(), b.shape().dim(1), v.beta,
           expect.data(), s.N);
      for (const simd::Isa isa : host_levels()) {
        Tensor got = c0.clone();
        simd::gemm(v.trans_a, v.trans_b, s.M, s.N, s.K, v.alpha, a.data(),
                   a.shape().dim(1), b.data(), b.shape().dim(1), v.beta,
                   got.data(), s.N, isa);
        SCOPED_TRACE(::testing::Message()
                     << "isa=" << simd::isa_name(isa) << " M=" << s.M
                     << " N=" << s.N << " K=" << s.K << " tA=" << v.trans_a
                     << " tB=" << v.trans_b);
        testing::expect_allclose_ulp(got, expect, simd::kMaxUlp);
      }
    }
  }
}

TEST(SimdGemm, DegenerateDims) {
  Rng rng(7);
  const Tensor a = random_uniform(Shape{4, 3}, rng);
  const Tensor b = random_uniform(Shape{3, 5}, rng);
  Tensor c = random_uniform(Shape{4, 5}, rng);
  const Tensor c0 = c.clone();
  // K == 0: C = beta*C.
  simd::gemm(false, false, 4, 5, 0, 1.0f, a.data(), 3, b.data(), 5, 0.5f,
             c.data(), 5);
  for (int64_t i = 0; i < c.numel(); ++i) EXPECT_FLOAT_EQ(c[i], 0.5f * c0[i]);
  // alpha == 0, beta == 0 zeroes C without reading it.
  simd::gemm(false, false, 4, 5, 3, 0.0f, a.data(), 3, b.data(), 5, 0.0f,
             c.data(), 5);
  for (int64_t i = 0; i < c.numel(); ++i) EXPECT_EQ(c[i], 0.0f);
}

TEST(SimdGemm, FusedBiasReluEpilogue) {
  Rng rng(33);
  const int64_t M = 11, N = 19, K = 29;
  const Tensor a = random_uniform(Shape{M, K}, rng, 0.0f, 1.0f);
  const Tensor b = random_uniform(Shape{K, N}, rng, 0.0f, 1.0f);
  const Tensor bias = random_uniform(Shape{M}, rng, 0.5f, 1.5f);
  Tensor ref(Shape{M, N});
  gemm(false, false, M, N, K, 1.0f, a.data(), K, b.data(), N, 0.0f,
       ref.data(), N);
  for (int64_t i = 0; i < M; ++i) {
    for (int64_t j = 0; j < N; ++j) ref.data()[i * N + j] += bias[i];
  }
  for (const simd::Isa isa : host_levels()) {
    SCOPED_TRACE(simd::isa_name(isa));
    Workspace ws;
    Tensor got(Shape{M, N});
    simd::gemm_bias_relu_ws(false, false, M, N, K, 1.0f, a.data(), K,
                            b.data(), N, 0.0f, got.data(), N, bias.data(),
                            /*relu=*/true, ws, isa);
    // All-positive operands: ReLU is the identity here, the ULP bound holds.
    testing::expect_allclose_ulp(got, ref, simd::kMaxUlp);

    // A hugely negative bias drives every output below zero: the fused ReLU
    // must clamp each to exactly +0.0.
    Tensor clamped(Shape{M, N});
    std::vector<float> neg(static_cast<size_t>(M), -1e6f);
    simd::gemm_bias_relu_ws(false, false, M, N, K, 1.0f, a.data(), K,
                            b.data(), N, 0.0f, clamped.data(), N, neg.data(),
                            /*relu=*/true, ws, isa);
    for (int64_t i = 0; i < clamped.numel(); ++i) {
      ASSERT_EQ(clamped[i], 0.0f) << "i=" << i;
    }
  }
}

TEST(SimdGemm, WorkspaceDrawMatchesDeclaredSizing) {
  Rng rng(5);
  const int64_t M = 9, N = 21, K = 33;
  const Tensor a = random_uniform(Shape{M, K}, rng);
  const Tensor b = random_uniform(Shape{K, N}, rng);
  Tensor c(Shape{M, N});
  Workspace ws;
  simd::gemm_ws(false, false, M, N, K, 1.0f, a.data(), K, b.data(), N, 0.0f,
                c.data(), N, ws);
  EXPECT_EQ(ws.used_floats(), simd::gemm_workspace_floats(M, N, K));
}

// ---- conv2d via packed GEMM -------------------------------------------------

TEST(SimdConv, MatchesConvWithinUlpIncludingGroupsAndTails) {
  Rng rng(55);
  const struct {
    int64_t batch, cin, cout, spatial, k, stride, pad, groups;
    bool bias;
  } cases[] = {
      {2, 8, 16, 7, 3, 1, 1, 1, true},    // odd spatial, full pad
      {1, 12, 12, 9, 3, 2, 0, 2, false},  // grouped, strided
      {2, 16, 32, 5, 1, 1, 0, 1, true},   // dense 1x1 (no im2col)
      {1, 16, 16, 5, 1, 1, 0, 4, false},  // grouped pointwise
      {2, 6, 9, 11, 5, 2, 2, 3, true},    // 5x5, 3 groups, odd plane
  };
  for (const auto& c : cases) {
    const Conv2dArgs args{c.stride, c.pad, c.groups};
    const Tensor in = random_uniform(
        make_nchw(c.batch, c.cin, c.spatial, c.spatial), rng, 0.0f, 1.0f);
    const Tensor w = random_uniform(Shape{c.cout, c.cin / c.groups, c.k, c.k},
                                    rng, 0.0f, 1.0f);
    const Tensor bias = random_uniform(Shape{c.cout}, rng, 0.0f, 1.0f);
    const Tensor* bp = c.bias ? &bias : nullptr;
    const Tensor expect = conv2d_forward(in, w, bp, args);
    for (const simd::Isa isa : host_levels()) {
      SCOPED_TRACE(::testing::Message()
                   << simd::isa_name(isa) << " k=" << c.k << " g=" << c.groups
                   << " s=" << c.stride);
      Workspace ws;
      Tensor out(conv2d_output_shape(in.shape(), w.shape(), args));
      simd::conv2d_forward_into(in, w, bp, args, ws, out, /*fuse_relu=*/false,
                                isa);
      testing::expect_allclose_ulp(out, expect, simd::kMaxUlp);
      EXPECT_LE(ws.used_floats(),
                simd::conv2d_workspace_floats(in.shape(), w.shape(), args));
    }
  }
}

// ---- SCC forward ------------------------------------------------------------

TEST(SimdScc, BitExactBelowFmaUlpBoundedAtAvx2) {
  Rng rng(77);
  const struct {
    int64_t batch, cin, cout, spatial, cg, stride;
    double co;
    bool bias;
  } cases[] = {
      {1, 8, 12, 5, 2, 1, 0.5, false},   // 25-pixel plane: every tail path
      {2, 16, 24, 7, 4, 1, 0.25, true},  // 49-pixel plane
      {2, 12, 8, 6, 3, 2, 0.33, true},   // strided fallback
      {3, 32, 32, 3, 8, 1, 0.75, false}, // 9-pixel plane, wide windows
      {1, 64, 128, 1, 16, 1, 0.5, true}, // single-pixel plane (pure tail)
  };
  for (const auto& c : cases) {
    const scc::SCCConfig cfg{c.cin, c.cout, c.cg, c.co, c.stride};
    const scc::ChannelWindowMap map(cfg);
    const Tensor in = random_uniform(
        make_nchw(c.batch, c.cin, c.spatial, c.spatial), rng, 0.0f, 1.0f);
    const Tensor w =
        random_uniform(Shape{c.cout, map.group_width()}, rng, 0.0f, 1.0f);
    const Tensor bias = random_uniform(Shape{c.cout}, rng, 0.0f, 1.0f);
    const Tensor* bp = c.bias ? &bias : nullptr;
    const Tensor expect = scc::scc_forward(in, w, bp, map);
    for (const simd::Isa isa : host_levels()) {
      SCOPED_TRACE(::testing::Message() << simd::isa_name(isa) << " spatial="
                                        << c.spatial << " s=" << c.stride);
      Tensor out(scc::scc_output_shape(in.shape(), map));
      simd::scc_forward_into(in, w, bp, map, out, /*fuse_relu=*/false, isa);
      if (bit_exact_level(isa)) {
        EXPECT_TRUE(bit_identical(expect, out))
            << simd::isa_name(isa) << " must be bit-exact (kBitExact)";
      } else {
        testing::expect_allclose_ulp(out, expect, simd::kMaxUlp);
      }
    }
  }
}

TEST(SimdScc, FusedReluEpilogue) {
  Rng rng(79);
  const scc::SCCConfig cfg{16, 24, 4, 0.5, 1};
  const scc::ChannelWindowMap map(cfg);
  // Zero-centered inputs so the ReLU boundary is actually exercised.
  const Tensor in = random_uniform(make_nchw(2, 16, 5, 5), rng, -1.0f, 1.0f);
  const Tensor w = random_uniform(Shape{24, map.group_width()}, rng, -1.0f,
                                  1.0f);
  Tensor expect = scc::scc_forward(in, w, nullptr, map);
  for (int64_t i = 0; i < expect.numel(); ++i) {
    if (expect[i] < 0.0f) expect.data()[i] = 0.0f;
  }
  for (const simd::Isa isa : host_levels()) {
    if (!bit_exact_level(isa)) continue;  // exact comparison needs kBitExact
    Tensor out(scc::scc_output_shape(in.shape(), map));
    simd::scc_forward_into(in, w, nullptr, map, out, /*fuse_relu=*/true, isa);
    EXPECT_TRUE(bit_identical(expect, out)) << simd::isa_name(isa);
  }
}

// ---- depthwise forward ------------------------------------------------------

TEST(SimdDepthwise, BitExactBelowFmaUlpBoundedAtAvx2) {
  Rng rng(91);
  const struct {
    int64_t batch, c, spatial, k, stride, pad;
    bool bias;
  } cases[] = {
      {2, 8, 7, 3, 1, 1, true},   // odd 7x7 rows: interval + tail paths
      {1, 16, 9, 3, 1, 0, false}, // valid-only (interior shrinks)
      {2, 4, 13, 5, 1, 2, true},  // 5x5 taps, wide halo
      {1, 8, 8, 3, 2, 1, true},   // strided fallback
      {3, 6, 2, 3, 1, 1, false},  // plane smaller than one vector
  };
  for (const auto& c : cases) {
    const DepthwiseArgs args{c.stride, c.pad};
    const Tensor in = random_uniform(
        make_nchw(c.batch, c.c, c.spatial, c.spatial), rng, 0.0f, 1.0f);
    const Tensor w = random_uniform(Shape{c.c, 1, c.k, c.k}, rng, 0.0f, 1.0f);
    const Tensor bias = random_uniform(Shape{c.c}, rng, 0.0f, 1.0f);
    const Tensor* bp = c.bias ? &bias : nullptr;
    const Tensor expect = depthwise_forward(in, w, bp, args);
    for (const simd::Isa isa : host_levels()) {
      SCOPED_TRACE(::testing::Message() << simd::isa_name(isa)
                                        << " spatial=" << c.spatial
                                        << " k=" << c.k << " s=" << c.stride);
      Tensor out(depthwise_output_shape(in.shape(), w.shape(), args));
      simd::depthwise_forward_into(in, w, bp, args, out, /*fuse_relu=*/false,
                                   isa);
      if (bit_exact_level(isa)) {
        EXPECT_TRUE(bit_identical(expect, out))
            << simd::isa_name(isa) << " must be bit-exact (kBitExact)";
      } else {
        testing::expect_allclose_ulp(out, expect, simd::kMaxUlp);
      }
    }
  }
}

TEST(SimdDepthwise, FusedReluEpilogue) {
  Rng rng(93);
  const DepthwiseArgs args{1, 1};
  const Tensor in = random_uniform(make_nchw(2, 6, 7, 7), rng, -1.0f, 1.0f);
  const Tensor w = random_uniform(Shape{6, 1, 3, 3}, rng, -1.0f, 1.0f);
  Tensor expect = depthwise_forward(in, w, nullptr, args);
  for (int64_t i = 0; i < expect.numel(); ++i) {
    if (expect[i] < 0.0f) expect.data()[i] = 0.0f;
  }
  for (const simd::Isa isa : host_levels()) {
    if (!bit_exact_level(isa)) continue;
    Tensor out(depthwise_output_shape(in.shape(), w.shape(), args));
    simd::depthwise_forward_into(in, w, nullptr, args, out,
                                 /*fuse_relu=*/true, isa);
    EXPECT_TRUE(bit_identical(expect, out)) << simd::isa_name(isa);
  }
}

// ---- fused ReLU epilogue: -0.0 and NaN -------------------------------------
//
// Every fused epilogue must equal running the same kernel unfused and then
// relu_forward, byte for byte: -0.0 and NaN become +0.0. The inputs are all
// +0.0 except one NaN per image, the weights negative and the bias -0.0, so
// the unfused outputs hold -0.0 (bias + negative * +0.0) and NaN.

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

Tensor zeros_with_nan(const Shape& shape) {
  Tensor t(shape);
  const int64_t per_image = t.numel() / shape.n();
  for (int64_t n = 0; n < shape.n(); ++n) t.data()[n * per_image] = kNaN;
  return t;
}

Tensor negative_zeros(const Shape& shape) { return Tensor(shape, -0.0f); }

bool holds_nan(const Tensor& t) {
  for (int64_t i = 0; i < t.numel(); ++i) {
    if (std::isnan(t[i])) return true;
  }
  return false;
}

bool holds_negative_zero(const Tensor& t) {
  for (int64_t i = 0; i < t.numel(); ++i) {
    if (t[i] == 0.0f && std::signbit(t[i])) return true;
  }
  return false;
}

/// Runs `kernel(out, fuse_relu)` both ways and compares fused output with
/// relu_forward of the unfused one. `want_negative_zero` asserts the case
/// really produced a -0.0 to clamp (every case produces a NaN).
template <typename Kernel>
void expect_fused_matches_relu_forward(const Shape& out_shape,
                                       bool want_negative_zero,
                                       Kernel&& kernel) {
  Tensor unfused(out_shape);
  kernel(unfused, false);
  ASSERT_TRUE(holds_nan(unfused));
  if (want_negative_zero) ASSERT_TRUE(holds_negative_zero(unfused));
  Tensor fused(out_shape);
  kernel(fused, true);
  EXPECT_TRUE(bit_identical(fused, relu_forward(unfused)));
}

TEST(SimdEpilogue, FusedReluMatchesReluForwardOnNegativeZeroAndNaN) {
  Rng rng(97);
  for (const int64_t stride : {1, 2}) {
    SCOPED_TRACE(::testing::Message() << "stride=" << stride);
    const scc::SCCConfig cfg{8, 12, 2, 0.5, stride};
    const scc::ChannelWindowMap map(cfg);
    const Tensor scc_in = zeros_with_nan(make_nchw(2, 8, 6, 6));
    const Tensor scc_w =
        random_uniform(Shape{12, map.group_width()}, rng, -1.0f, -0.5f);
    const Tensor scc_b = negative_zeros(Shape{12});
    const Shape scc_out = scc::scc_output_shape(scc_in.shape(), map);

    const DepthwiseArgs dw_args{stride, 1};
    const Tensor dw_in = zeros_with_nan(make_nchw(2, 5, 7, 7));
    const Tensor dw_w = random_uniform(Shape{5, 1, 3, 3}, rng, -1.0f, -0.5f);
    const Tensor dw_b = negative_zeros(Shape{5});
    const Shape dw_out =
        depthwise_output_shape(dw_in.shape(), dw_w.shape(), dw_args);

    const Conv2dArgs conv_args{stride, 1, 1};
    const Tensor conv_in = zeros_with_nan(make_nchw(2, 3, 6, 6));
    const Tensor conv_w =
        random_uniform(Shape{4, 3, 3, 3}, rng, -1.0f, -0.5f);
    const Tensor conv_b = negative_zeros(Shape{4});
    const Shape conv_out =
        conv2d_output_shape(conv_in.shape(), conv_w.shape(), conv_args);

    // Scalar library defaults (the kernels a kOff plan runs).
    expect_fused_matches_relu_forward(scc_out, true, [&](Tensor& o, bool r) {
      scc::scc_forward_into(scc_in, scc_w, &scc_b, map, o, r);
    });
    expect_fused_matches_relu_forward(scc_out, true, [&](Tensor& o, bool r) {
      scc::scc_forward_no_cycle_table_into(scc_in, scc_w, &scc_b, map, o, r);
    });
    expect_fused_matches_relu_forward(scc_out, false, [&](Tensor& o, bool r) {
      Workspace ws;
      scc::scc_forward_gemm_into(scc_in, scc_w, &scc_b, map, ws, o, r);
    });
    expect_fused_matches_relu_forward(dw_out, true, [&](Tensor& o, bool r) {
      depthwise_forward_into(dw_in, dw_w, &dw_b, dw_args, o, r);
    });
    expect_fused_matches_relu_forward(conv_out, false, [&](Tensor& o, bool r) {
      Workspace ws;
      conv2d_forward_into(conv_in, conv_w, &conv_b, conv_args, ws, o, r);
    });
    expect_fused_matches_relu_forward(conv_out, false, [&](Tensor& o, bool r) {
      conv2d_forward_direct_into(conv_in, conv_w, &conv_b, conv_args, o, r);
    });

    // Vectorized kernels, each level against its own unfused output (the
    // epilogue is the only difference, so this holds at every level).
    for (const simd::Isa isa : host_levels()) {
      SCOPED_TRACE(simd::isa_name(isa));
      expect_fused_matches_relu_forward(scc_out, true, [&](Tensor& o, bool r) {
        simd::scc_forward_into(scc_in, scc_w, &scc_b, map, o, r, isa);
      });
      expect_fused_matches_relu_forward(dw_out, true, [&](Tensor& o, bool r) {
        simd::depthwise_forward_into(dw_in, dw_w, &dw_b, dw_args, o, r, isa);
      });
    }
  }
}

TEST(SimdEpilogue, DegenerateGemmReluMatchesReluForward) {
  // K == 0 and alpha == 0 skip the micro-kernel: C = beta*C + bias, then
  // the epilogue. beta = 1 over a C of -0.0 and NaN, with a -0.0 bias.
  const int64_t M = 3, N = 9;
  const Tensor a(Shape{M, 2}, 1.0f);
  const Tensor b(Shape{2, N}, 1.0f);
  const std::vector<float> bias(static_cast<size_t>(M), -0.0f);
  Tensor c0(Shape{M, N}, -0.0f);
  c0.data()[4] = kNaN;
  for (const simd::Isa isa : host_levels()) {
    for (const int64_t K : {0, 2}) {
      const float alpha = K == 0 ? 1.0f : 0.0f;
      SCOPED_TRACE(::testing::Message()
                   << simd::isa_name(isa) << " K=" << K << " alpha=" << alpha);
      Workspace ws;
      Tensor unfused = c0.clone();
      simd::gemm_bias_relu_ws(false, false, M, N, K, alpha, a.data(), 2,
                              b.data(), N, 1.0f, unfused.data(), N,
                              bias.data(), /*relu=*/false, ws, isa);
      ASSERT_TRUE(holds_nan(unfused));
      ASSERT_TRUE(holds_negative_zero(unfused));
      Tensor fused = c0.clone();
      simd::gemm_bias_relu_ws(false, false, M, N, K, alpha, a.data(), 2,
                              b.data(), N, 1.0f, fused.data(), N, bias.data(),
                              /*relu=*/true, ws, isa);
      EXPECT_TRUE(bit_identical(fused, relu_forward(unfused)));
    }
  }
}

// ---- tune integration: fidelity gating --------------------------------------

TEST(SimdTune, RegistryGatesUlpBoundedCandidatesBehindFastMath) {
  SessionGuard guard;
  Rng rng(17);
  const scc::SCCConfig cfg{16, 24, 4, 0.5, 1};
  const scc::ChannelWindowMap map(cfg);
  const Tensor in = random_uniform(make_nchw(2, 16, 6, 6), rng);
  const tune::ProblemKey key = tune::make_scc_forward_key(in.shape(), map);
  auto& registry = tune::KernelRegistry::global();

  const auto strict = registry.scc_forward(key, /*allow_ulp_bounded=*/false);
  for (const auto& c : strict) {
    EXPECT_EQ(c.fidelity, tune::Fidelity::kBitExact) << c.label();
  }
  const auto fast = registry.scc_forward(key, /*allow_ulp_bounded=*/true);
  EXPECT_GE(fast.size(), strict.size());

  if (simd::isa_available(simd::Isa::kSse2)) {
    // The SSE2 SCC kernel is bit-exact, so it is admissible in strict mode.
    bool has_sse2 = false;
    for (const auto& c : strict) has_sse2 |= c.variant == "simd_sse2";
    EXPECT_TRUE(has_sse2);
  }
  if (simd::isa_available(simd::Isa::kAvx2)) {
    bool strict_has_avx2 = false, fast_has_avx2 = false;
    for (const auto& c : strict) strict_has_avx2 |= c.variant == "simd_avx2";
    for (const auto& c : fast) fast_has_avx2 |= c.variant == "simd_avx2";
    EXPECT_FALSE(strict_has_avx2) << "kUlpBounded candidate leaked into "
                                     "strict enumeration";
    EXPECT_TRUE(fast_has_avx2);
    // find_* applies the same gate.
    EXPECT_FALSE(registry
                     .find_scc(key, "simd_avx2", tune::kGrainDefault,
                               /*allow_ulp_bounded=*/false)
                     .has_value());
    EXPECT_TRUE(registry
                    .find_scc(key, "simd_avx2", tune::kGrainDefault,
                              /*allow_ulp_bounded=*/true)
                    .has_value());
  }

  // Conv simd candidates are always kUlpBounded (packed GEMM).
  const Conv2dArgs args{1, 1, 1};
  const Tensor w = random_uniform(Shape{8, 16, 3, 3}, rng);
  const tune::ProblemKey ckey =
      tune::make_conv2d_forward_key(in.shape(), w.shape(), args);
  for (const auto& c : registry.conv2d_forward(ckey, false)) {
    EXPECT_TRUE(c.variant == "im2col" || c.variant == "direct") << c.label();
  }

  // The depthwise family exists with its default first.
  const DepthwiseArgs dwargs{1, 1};
  const Tensor dww = random_uniform(Shape{16, 1, 3, 3}, rng);
  const tune::ProblemKey dkey =
      tune::make_depthwise_forward_key(in.shape(), dww.shape(), dwargs);
  const auto dw = registry.depthwise_forward(dkey, false);
  ASSERT_FALSE(dw.empty());
  EXPECT_EQ(dw.front().variant, "direct");
}

TEST(SimdTune, CachedUlpRecordNeverAppliedToStrictSession) {
  if (!simd::isa_available(simd::Isa::kAvx2)) GTEST_SKIP();
  SessionGuard guard;
  Rng rng(19);
  const DepthwiseArgs args{1, 1};
  const Tensor in = random_uniform(make_nchw(2, 8, 6, 6), rng, 0.0f, 1.0f);
  const Tensor w = random_uniform(Shape{8, 1, 3, 3}, rng, 0.0f, 1.0f);
  const Tensor expect = depthwise_forward(in, w, nullptr, args);

  // Seed a fast-math record exactly as a DSX_FAST_MATH process would have
  // written it (dispatch stamps the admission domain into the key) ...
  tune::TuningRecord rec;
  rec.key = tune::make_depthwise_forward_key(in.shape(), w.shape(), args);
  rec.key.fast_math = true;
  rec.variant = "simd_avx2";
  rec.grain = tune::kGrainDefault;
  rec.fidelity = tune::Fidelity::kUlpBounded;
  rec.median_ns = 1.0;
  rec.default_ns = 2.0;
  rec.iters = 1;
  tune::Session::global().cache().put(rec);
  // ... plus a tampered/corrupt one: a kUlpBounded winner sitting in the
  // STRICT domain slot, which only the fidelity gate can catch.
  tune::TuningRecord tampered = rec;
  tampered.key.fast_math = false;
  tune::Session::global().cache().put(tampered);

  tune::Session::ScopedMode scope(tune::Mode::kCached);
  {
    // Strict session: neither record may steer dispatch (the fast-math one
    // misses on domain, the tampered one is refused by the fidelity gate) -
    // default kernel, bit-identical output.
    Workspace ws;
    Tensor out(depthwise_output_shape(in.shape(), w.shape(), args));
    tune::DepthwiseSite site;
    tune::depthwise_forward_dispatch(in, w, nullptr, args, ws, out, &site);
    EXPECT_TRUE(bit_identical(expect, out));
    ASSERT_TRUE(site.resolved());
    EXPECT_EQ(site.baked->variant, "direct");
    EXPECT_FALSE(site.record.has_value());
  }
  {
    // Fast-math session: the same record now applies.
    tune::Session::ScopedFastMath fast(true);
    Workspace ws;
    Tensor out(depthwise_output_shape(in.shape(), w.shape(), args));
    tune::DepthwiseSite site;
    tune::depthwise_forward_dispatch(in, w, nullptr, args, ws, out, &site);
    ASSERT_TRUE(site.resolved());
    EXPECT_EQ(site.baked->variant, "simd_avx2");
    testing::expect_allclose_ulp(out, expect, simd::kMaxUlp);
  }
}

TEST(SimdTune, DepthwiseDispatchOffModeIsDefaultBitExact) {
  SessionGuard guard;
  Rng rng(23);
  const DepthwiseArgs args{2, 1};
  const Tensor in = random_uniform(make_nchw(2, 6, 8, 8), rng);
  const Tensor w = random_uniform(Shape{6, 1, 3, 3}, rng);
  const Tensor expect = depthwise_forward(in, w, nullptr, args);
  Workspace ws;
  Tensor out(depthwise_output_shape(in.shape(), w.shape(), args));
  tune::DepthwiseSite site;
  tune::depthwise_forward_dispatch(in, w, nullptr, args, ws, out, &site);
  EXPECT_TRUE(bit_identical(expect, out));
  EXPECT_FALSE(site.resolved());  // off mode resolves nothing
}

// ---- serving compile --------------------------------------------------------

std::unique_ptr<nn::Sequential> small_model(uint64_t seed) {
  Rng rng(seed);
  auto net = std::make_unique<nn::Sequential>();
  net->emplace<nn::Conv2d>(3, 16, 3, 1, 1, 1, rng, /*bias=*/true);
  net->emplace<nn::ReLU>();
  net->emplace<nn::DepthwiseConv2d>(16, 3, 1, 1, rng, /*bias=*/true);
  net->emplace<nn::SCCConv>(scc::SCCConfig{16, 24, 4, 0.5, 1}, rng,
                            /*bias=*/true);
  return net;
}

TEST(SimdServe, StrictTunedCompileStaysBitIdenticalToOff) {
  SessionGuard guard;
  const Shape image{3, 8, 8};
  serve::CompiledModel off(small_model(3), image, {.max_batch = 4});
  serve::CompiledModel tuned(small_model(3), image,
                             {.max_batch = 4,
                              .tuning = tune::Mode::kTune,
                              .tuner = {.warmup = 0, .iters = 1}});
  // allow_fast_math defaults OFF: only kBitExact candidates were admitted,
  // so the tuned plan's outputs are bit-identical whatever won.
  Rng rng(29);
  const Tensor batch = random_uniform(make_nchw(4, 3, 8, 8), rng);
  EXPECT_TRUE(bit_identical(off.run(batch), tuned.run(batch)));
  for (const auto& choice : tuned.report().tuned) {
    EXPECT_EQ(choice.fidelity, tune::Fidelity::kBitExact) << choice.layer;
  }
  SessionGuard::reset();
}

TEST(SimdServe, FastMathCompileReportsFidelityAndStaysUlpClose) {
  SessionGuard guard;
  const Shape image{3, 8, 8};
  serve::CompiledModel off(small_model(4), image, {.max_batch = 4});
  serve::CompiledModel fast(small_model(4), image,
                            {.max_batch = 4,
                             .tuning = tune::Mode::kTune,
                             .tuner = {.warmup = 0, .iters = 1},
                             .allow_fast_math = true});
  // The compile-scoped fast-math flag must not leak into the session.
  EXPECT_FALSE(tune::Session::global().allow_fast_math());

  Rng rng(31);
  const Tensor batch = random_uniform(make_nchw(4, 3, 8, 8), rng);
  const Tensor a = off.run(batch);
  const Tensor b = fast.run(batch);
  // ULP divergence compounds across layers, so the end-to-end check is a
  // relative tolerance, not a per-op ULP bound.
  ASSERT_EQ(a.shape(), b.shape());
  for (int64_t i = 0; i < a.numel(); ++i) {
    ASSERT_NEAR(a[i], b[i], 1e-3f * (1.0f + std::abs(a[i]))) << "i=" << i;
  }
  for (const auto& choice : fast.report().tuned) {
    // Fidelity is reported per layer; whatever won must be a legal value.
    EXPECT_TRUE(choice.fidelity == tune::Fidelity::kBitExact ||
                choice.fidelity == tune::Fidelity::kUlpBounded)
        << choice.layer;
  }
  SessionGuard::reset();
}

}  // namespace
}  // namespace dsx
