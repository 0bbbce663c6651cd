// Unit + property tests for src/ops: GEMM against a naive reference,
// im2col/col2im adjointness, convolution forward against direct references,
// the depthwise forward routes byte for byte against a float reference,
// backward passes against central-difference numerical gradients, pooling,
// batch-norm, activations, linear and softmax/cross-entropy.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "common/check.hpp"
#include "device/launch.hpp"
#include "ops/activations.hpp"
#include "ops/batchnorm.hpp"
#include "ops/conv2d.hpp"
#include "ops/depthwise.hpp"
#include "ops/gemm.hpp"
#include "ops/im2col.hpp"
#include "ops/linear.hpp"
#include "ops/pooling.hpp"
#include "ops/softmax_xent.hpp"
#include "simd/depthwise.hpp"
#include "tensor/workspace.hpp"
#include "tune/dispatch.hpp"
#include "tune/tune.hpp"
#include "testing_utils.hpp"

namespace dsx {
namespace {

using testing::ProbeLoss;
using testing::max_numeric_grad_error;
using testing::naive_conv2d;

// ---- GEMM -----------------------------------------------------------------

Tensor naive_matmul(const Tensor& a, const Tensor& b, bool ta, bool tb) {
  const int64_t M = ta ? a.shape().dim(1) : a.shape().dim(0);
  const int64_t K = ta ? a.shape().dim(0) : a.shape().dim(1);
  const int64_t N = tb ? b.shape().dim(0) : b.shape().dim(1);
  Tensor c(Shape{M, N});
  for (int64_t i = 0; i < M; ++i) {
    for (int64_t j = 0; j < N; ++j) {
      double acc = 0.0;
      for (int64_t k = 0; k < K; ++k) {
        const float av = ta ? a.at(k, i) : a.at(i, k);
        const float bv = tb ? b.at(j, k) : b.at(k, j);
        acc += static_cast<double>(av) * bv;
      }
      c.at(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

class GemmTransposes : public ::testing::TestWithParam<std::tuple<bool, bool>> {
};

TEST_P(GemmTransposes, MatchesNaive) {
  const auto [ta, tb] = GetParam();
  Rng rng(11);
  const int64_t M = 7, N = 9, K = 5;
  Tensor a = random_uniform(ta ? Shape{K, M} : Shape{M, K}, rng);
  Tensor b = random_uniform(tb ? Shape{N, K} : Shape{K, N}, rng);
  Tensor got = matmul(a, b, ta, tb);
  Tensor want = naive_matmul(a, b, ta, tb);
  EXPECT_LT(max_abs_diff(got, want), 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(AllTransposes, GemmTransposes,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool()));

TEST(Gemm, AlphaBetaAccumulate) {
  const int64_t M = 3, N = 4, K = 2;
  Rng rng(2);
  Tensor a = random_uniform(Shape{M, K}, rng);
  Tensor b = random_uniform(Shape{K, N}, rng);
  Tensor c(Shape{M, N}, 1.0f);
  gemm(false, false, M, N, K, 2.0f, a.data(), K, b.data(), N, 0.5f, c.data(),
       N);
  Tensor want = naive_matmul(a, b, false, false);
  for (int64_t i = 0; i < M; ++i) {
    for (int64_t j = 0; j < N; ++j) {
      EXPECT_NEAR(c.at(i, j), 2.0f * want.at(i, j) + 0.5f, 1e-4f);
    }
  }
}

TEST(Gemm, DegenerateDims) {
  Tensor a(Shape{0, 3}), b(Shape{3, 4});
  Tensor c = matmul(a, b);
  EXPECT_EQ(c.shape(), (Shape{0, 4}));
  EXPECT_THROW(matmul(Tensor(Shape{2, 3}), Tensor(Shape{4, 5})), Error);
}

TEST(Gemm, LargerParallelPathMatchesNaive) {
  Rng rng(13);
  Tensor a = random_uniform(Shape{64, 48}, rng);
  Tensor b = random_uniform(Shape{48, 33}, rng);
  EXPECT_LT(max_abs_diff(matmul(a, b), naive_matmul(a, b, false, false)),
            5e-4f);
}

// ---- im2col ------------------------------------------------------------------

TEST(Im2col, IdentityFor1x1) {
  Rng rng(3);
  Tensor in = random_uniform(make_nchw(1, 3, 4, 4), rng);
  Tensor col(Shape{3, 16});
  im2col(in.data(), 3, 4, 4, 1, 1, 0, col.data());
  for (int64_t i = 0; i < in.numel(); ++i) EXPECT_EQ(col[i], in[i]);
}

TEST(Im2col, KnownPatchExtraction) {
  Tensor in(make_nchw(1, 1, 3, 3));
  for (int64_t i = 0; i < 9; ++i) in[i] = static_cast<float>(i);
  // K=2, stride=1, pad=0 -> col is [4, 4].
  Tensor col(Shape{4, 4});
  im2col(in.data(), 1, 3, 3, 2, 1, 0, col.data());
  // Row 0 = top-left of every window: 0,1,3,4.
  EXPECT_EQ(col.at(0, 0), 0.0f);
  EXPECT_EQ(col.at(0, 1), 1.0f);
  EXPECT_EQ(col.at(0, 2), 3.0f);
  EXPECT_EQ(col.at(0, 3), 4.0f);
  // Row 3 = bottom-right of every window: 4,5,7,8.
  EXPECT_EQ(col.at(3, 0), 4.0f);
  EXPECT_EQ(col.at(3, 3), 8.0f);
}

TEST(Im2col, PaddingProducesZeros) {
  Tensor in(make_nchw(1, 1, 2, 2), 1.0f);
  const int64_t Ho = conv_out_size(2, 3, 1, 1);
  Tensor col(Shape{9, Ho * Ho});
  im2col(in.data(), 1, 2, 2, 3, 1, 1, col.data());
  // Corner tap (0,0) of output (0,0) reads padded zero.
  EXPECT_EQ(col.at(0, 0), 0.0f);
}

TEST(Im2col, Col2imIsAdjoint) {
  // <im2col(x), y> == <x, col2im(y)>.
  Rng rng(5);
  const int64_t C = 2, H = 5, W = 4, K = 3, stride = 2, pad = 1;
  const int64_t Ho = conv_out_size(H, K, stride, pad);
  const int64_t Wo = conv_out_size(W, K, stride, pad);
  Tensor x = random_uniform(make_nchw(1, C, H, W), rng);
  Tensor y = random_uniform(Shape{C * K * K, Ho * Wo}, rng);
  Tensor colx(Shape{C * K * K, Ho * Wo});
  im2col(x.data(), C, H, W, K, stride, pad, colx.data());
  Tensor liftedy(make_nchw(1, C, H, W));
  col2im_add(y.data(), C, H, W, K, stride, pad, liftedy.data());
  double lhs = 0.0, rhs = 0.0;
  for (int64_t i = 0; i < colx.numel(); ++i) lhs += colx[i] * y[i];
  for (int64_t i = 0; i < x.numel(); ++i) rhs += x[i] * liftedy[i];
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

// ---- conv2d forward (parameterized) -------------------------------------------

struct ConvCase {
  int64_t N, Cin, Cout, H, W, K, stride, pad, groups;
};

class ConvForward : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvForward, MatchesNaiveReference) {
  const ConvCase p = GetParam();
  Rng rng(17);
  Tensor in = random_uniform(make_nchw(p.N, p.Cin, p.H, p.W), rng);
  Tensor w = random_uniform(Shape{p.Cout, p.Cin / p.groups, p.K, p.K}, rng);
  Tensor b = random_uniform(Shape{p.Cout}, rng);
  Conv2dArgs args{p.stride, p.pad, p.groups};
  Tensor got = conv2d_forward(in, w, &b, args);
  Tensor want = naive_conv2d(in, w, &b, p.stride, p.pad, p.groups);
  EXPECT_EQ(got.shape(), want.shape());
  EXPECT_LT(max_abs_diff(got, want), 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConvForward,
    ::testing::Values(
        ConvCase{1, 3, 4, 6, 6, 3, 1, 1, 1},   // standard 3x3
        ConvCase{2, 4, 6, 5, 5, 3, 1, 1, 1},   // batch > 1
        ConvCase{1, 4, 8, 8, 8, 3, 2, 1, 1},   // strided
        ConvCase{1, 4, 4, 5, 7, 3, 1, 0, 1},   // no pad, rectangular
        ConvCase{1, 4, 8, 6, 6, 1, 1, 0, 1},   // pointwise (1x1 fast path)
        ConvCase{1, 8, 8, 6, 6, 1, 1, 0, 2},   // GPW cg=2
        ConvCase{1, 8, 16, 4, 4, 1, 1, 0, 4},  // GPW cg=4
        ConvCase{2, 6, 6, 5, 5, 3, 1, 1, 3},   // grouped 3x3
        ConvCase{1, 8, 8, 7, 7, 1, 2, 0, 2},   // strided pointwise
        ConvCase{1, 2, 2, 4, 4, 5, 1, 2, 1})); // kernel > input w/ pad

TEST(Conv2d, ShapeValidation) {
  Tensor in(make_nchw(1, 4, 4, 4));
  Tensor w(Shape{8, 2, 3, 3});
  Conv2dArgs args{1, 1, 1};
  EXPECT_THROW(conv2d_forward(in, w, nullptr, args), Error);  // Cin/g mismatch
  args.groups = 3;
  EXPECT_THROW(conv2d_forward(in, w, nullptr, args), Error);  // 4 % 3 != 0
}

TEST(Conv2d, BiasShapeValidation) {
  Tensor in(make_nchw(1, 2, 4, 4));
  Tensor w(Shape{4, 2, 1, 1});
  Tensor bad_bias(Shape{3});
  Conv2dArgs args;
  EXPECT_THROW(conv2d_forward(in, w, &bad_bias, args), Error);
}

// ---- conv2d backward -----------------------------------------------------------

class ConvBackward : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvBackward, GradientsMatchNumerics) {
  const ConvCase p = GetParam();
  Rng rng(23);
  Tensor in = random_uniform(make_nchw(p.N, p.Cin, p.H, p.W), rng);
  Tensor w = random_uniform(Shape{p.Cout, p.Cin / p.groups, p.K, p.K}, rng,
                            -0.5f, 0.5f);
  Tensor b = random_uniform(Shape{p.Cout}, rng);
  Conv2dArgs args{p.stride, p.pad, p.groups};

  const Shape out_shape = conv2d_output_shape(in.shape(), w.shape(), args);
  ProbeLoss probe(out_shape);
  const auto loss = [&] {
    return probe.value(conv2d_forward(in, w, &b, args));
  };

  Tensor dout = probe.mask;
  Conv2dGrads grads = conv2d_backward(in, w, dout, args, true, true);

  EXPECT_LT(max_numeric_grad_error(w, loss, grads.dweight), 2e-2f);
  EXPECT_LT(max_numeric_grad_error(b, loss, grads.dbias), 2e-2f);
  EXPECT_LT(max_numeric_grad_error(in, loss, grads.dinput), 2e-2f);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConvBackward,
    ::testing::Values(ConvCase{1, 2, 3, 4, 4, 3, 1, 1, 1},
                      ConvCase{2, 2, 2, 3, 3, 1, 1, 0, 1},
                      ConvCase{1, 4, 4, 4, 4, 1, 1, 0, 2},
                      ConvCase{1, 2, 2, 5, 5, 3, 2, 1, 1},
                      ConvCase{1, 4, 4, 4, 4, 3, 1, 1, 2}));

TEST(Conv2dBackward, SkipsDinputWhenNotNeeded) {
  Rng rng(29);
  Tensor in = random_uniform(make_nchw(1, 2, 3, 3), rng);
  Tensor w = random_uniform(Shape{2, 2, 1, 1}, rng);
  Conv2dArgs args;
  Tensor dout(make_nchw(1, 2, 3, 3), 1.0f);
  Conv2dGrads g = conv2d_backward(in, w, dout, args, false, false);
  EXPECT_FALSE(g.dinput.defined());
  EXPECT_FALSE(g.dbias.defined());
  EXPECT_TRUE(g.dweight.defined());
}

// ---- depthwise -----------------------------------------------------------------

struct DwCase {
  int64_t N, C, H, W, K, stride, pad;
};

class DepthwiseSweep : public ::testing::TestWithParam<DwCase> {};

TEST_P(DepthwiseSweep, ForwardMatchesGroupedConv) {
  // Depthwise == grouped conv with groups == C and one filter per group.
  const DwCase p = GetParam();
  Rng rng(31);
  Tensor in = random_uniform(make_nchw(p.N, p.C, p.H, p.W), rng);
  Tensor w = random_uniform(Shape{p.C, 1, p.K, p.K}, rng);
  Tensor b = random_uniform(Shape{p.C}, rng);
  DepthwiseArgs args{p.stride, p.pad};
  Tensor got = depthwise_forward(in, w, &b, args);
  Tensor want = naive_conv2d(in, w, &b, p.stride, p.pad, p.C);
  EXPECT_LT(max_abs_diff(got, want), 1e-4f);
}

TEST_P(DepthwiseSweep, BackwardMatchesNumerics) {
  const DwCase p = GetParam();
  Rng rng(37);
  Tensor in = random_uniform(make_nchw(p.N, p.C, p.H, p.W), rng);
  Tensor w = random_uniform(Shape{p.C, 1, p.K, p.K}, rng, -0.5f, 0.5f);
  Tensor b = random_uniform(Shape{p.C}, rng);
  DepthwiseArgs args{p.stride, p.pad};

  ProbeLoss probe(depthwise_output_shape(in.shape(), w.shape(), args));
  const auto loss = [&] {
    return probe.value(depthwise_forward(in, w, &b, args));
  };
  DepthwiseGrads g =
      depthwise_backward(in, w, probe.mask, args, true, true);
  EXPECT_LT(max_numeric_grad_error(w, loss, g.dweight), 2e-2f);
  EXPECT_LT(max_numeric_grad_error(b, loss, g.dbias), 2e-2f);
  EXPECT_LT(max_numeric_grad_error(in, loss, g.dinput), 2e-2f);
}

INSTANTIATE_TEST_SUITE_P(Sweep, DepthwiseSweep,
                         ::testing::Values(DwCase{1, 3, 5, 5, 3, 1, 1},
                                           DwCase{2, 2, 6, 6, 3, 2, 1},
                                           DwCase{1, 4, 4, 4, 3, 1, 0},
                                           DwCase{1, 2, 7, 5, 5, 2, 2}));

TEST(Depthwise, RejectsBadWeightShape) {
  Tensor in(make_nchw(1, 3, 4, 4));
  Tensor w(Shape{3, 2, 3, 3});
  EXPECT_THROW(depthwise_forward(in, w, nullptr, {}), Error);
  Tensor w2(Shape{4, 1, 3, 3});
  EXPECT_THROW(depthwise_forward(in, w2, nullptr, {}), Error);
}

// ---- depthwise: bit-identity against the float reference ----------------------
//
// The kOff contract: every bit-exact depthwise forward computes, per output
// element, bias + w*x per in-bounds tap in ascending (ky, kx), padded taps
// skipped, one float mul and one float add per tap. Compared byte for byte
// (memcmp) with float_dw_reference, never with another library kernel. The
// sweep hits the register tile's edges: channel counts that leave a partial
// channel block, planes below one vector (1x1, 2x2, 3x3), strips that cross
// output rows, border-only planes, stride 2 and 3, pad 0 to 2, K = 3 and 5,
// odd widths, no bias, -0.0 bias with NaN input under the fused ReLU, and an
// infinite corner tap (w*0 for that padded tap would be NaN).

enum class DwData {
  kRandom,
  kSignedZeroNaN,  // -0.0 bias, +0.0 input with NaNs, negative weights
  kInfCornerTap,   // positive data, tap (0, 0) of every channel is +Inf
};

struct DwRefCase {
  int64_t N, C, H, W, K, stride, pad;
  bool bias;
  DwData data;
};

class DwFloatReference : public ::testing::TestWithParam<DwRefCase> {};

/// Every bit-exact forward route under test, as `run(out, fuse_relu)`.
struct DwRoute {
  std::string name;
  std::function<void(Tensor&, bool)> run;
};

TEST_P(DwFloatReference, BitExactRoutesMatchByMemcmp) {
  const DwRefCase p = GetParam();
  const DepthwiseArgs args{p.stride, p.pad};
  Rng rng(241);
  Tensor in = random_uniform(make_nchw(p.N, p.C, p.H, p.W), rng);
  Tensor w = random_uniform(Shape{p.C, 1, p.K, p.K}, rng);
  Tensor b = random_uniform(Shape{p.C}, rng);
  if (p.data == DwData::kSignedZeroNaN) {
    in = Tensor(in.shape(), 0.0f);
    for (int64_t i = 0; i < in.numel(); i += 7) {
      in.data()[i] = std::numeric_limits<float>::quiet_NaN();
    }
    w = random_uniform(w.shape(), rng, -1.0f, -0.5f);
    b = Tensor(b.shape(), -0.0f);
  } else if (p.data == DwData::kInfCornerTap) {
    in = random_uniform(in.shape(), rng, 0.5f, 1.0f);
    w = random_uniform(w.shape(), rng, 0.1f, 1.0f);
    for (int64_t c = 0; c < p.C; ++c) {
      w.at(c, 0, 0, 0) = std::numeric_limits<float>::infinity();
    }
  }
  const Tensor* bp = p.bias ? &b : nullptr;

  std::vector<DwRoute> routes = {
      {"depthwise_forward_into",
       [&](Tensor& o, bool r) {
         depthwise_forward_into(in, w, bp, args, o, r);
       }},
      {"depthwise_forward_dispatch(kOff)",
       [&](Tensor& o, bool r) {
         tune::Session::ScopedMode off(tune::Mode::kOff);
         Workspace ws;
         tune::depthwise_forward_dispatch(in, w, bp, args, ws, o, nullptr, r);
       }},
  };
  for (const simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kSse2}) {
    if (!simd::isa_available(isa)) continue;
    routes.push_back({std::string("simd ") + simd::isa_name(isa),
                      [&, isa](Tensor& o, bool r) {
                        simd::depthwise_forward_into(in, w, bp, args, o, r,
                                                     isa);
                      }});
  }

  // Signed zeros and NaNs are only pinned through the fused ReLU, which
  // maps both to +0.0 (unfused NaN payloads depend on operand order).
  const std::vector<bool> relus = p.data == DwData::kSignedZeroNaN
                                      ? std::vector<bool>{true}
                                      : std::vector<bool>{false, true};
  for (const bool relu : relus) {
    const Tensor want =
        testing::float_dw_reference(in, w, bp, p.stride, p.pad, relu);
    for (const DwRoute& route : routes) {
      Tensor got(want.shape(), 1.0f);
      route.run(got, relu);
      EXPECT_TRUE(testing::bit_identical(got, want))
          << route.name << " fuse_relu=" << relu << " N=" << p.N
          << " C=" << p.C << " HxW=" << p.H << "x" << p.W << " K=" << p.K
          << " stride=" << p.stride << " pad=" << p.pad;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DwFloatReference,
    ::testing::Values(
        DwRefCase{2, 5, 1, 1, 3, 1, 1, true, DwData::kRandom},    // 1x1
        DwRefCase{3, 6, 2, 2, 3, 1, 1, true, DwData::kRandom},    // 2x2
        DwRefCase{2, 9, 2, 2, 3, 2, 1, true, DwData::kRandom},    // 2x2 s2
        DwRefCase{2, 7, 3, 3, 3, 1, 0, true, DwData::kRandom},    // 3x3 valid
        DwRefCase{1, 3, 3, 3, 5, 1, 2, true, DwData::kRandom},    // 3x3, K5
        DwRefCase{2, 8, 4, 4, 3, 1, 1, true, DwData::kRandom},    // 4x4
        DwRefCase{2, 6, 4, 4, 3, 2, 1, true, DwData::kRandom},    // 4x4 s2
        DwRefCase{1, 5, 7, 7, 5, 1, 2, true, DwData::kRandom},    // 7x7 K5
        DwRefCase{2, 4, 7, 7, 3, 2, 0, true, DwData::kRandom},    // 7x7 s2
        DwRefCase{1, 10, 13, 13, 3, 1, 1, true, DwData::kRandom}, // 13x13
        DwRefCase{1, 3, 13, 13, 5, 2, 2, true, DwData::kRandom},  // 13x13 s2
        DwRefCase{2, 4, 32, 32, 3, 1, 1, true, DwData::kRandom},  // 32x32
        DwRefCase{1, 6, 32, 32, 3, 2, 1, true, DwData::kRandom},  // 32x32 s2
        DwRefCase{1, 3, 32, 32, 5, 1, 2, true, DwData::kRandom},  // 32x32 K5
        DwRefCase{2, 5, 5, 9, 3, 1, 1, true, DwData::kRandom},    // odd W
        DwRefCase{1, 7, 6, 11, 5, 2, 1, true, DwData::kRandom},   // odd W s2
        DwRefCase{2, 4, 9, 9, 3, 1, 2, true, DwData::kRandom},    // pad 2, K3
        DwRefCase{1, 5, 10, 9, 3, 3, 1, true, DwData::kRandom},   // stride 3
        DwRefCase{2, 12, 8, 8, 3, 1, 1, false, DwData::kRandom},  // no bias
        DwRefCase{2, 5, 7, 7, 3, 1, 1, true, DwData::kSignedZeroNaN},
        DwRefCase{2, 6, 4, 4, 3, 2, 1, true, DwData::kSignedZeroNaN},
        DwRefCase{1, 9, 2, 2, 3, 1, 1, true, DwData::kSignedZeroNaN},
        DwRefCase{2, 5, 7, 7, 3, 1, 1, true, DwData::kInfCornerTap},
        DwRefCase{2, 6, 4, 4, 3, 2, 1, false, DwData::kInfCornerTap},
        DwRefCase{1, 9, 2, 2, 3, 1, 1, true, DwData::kInfCornerTap}));

// ---- depthwise: launch record --------------------------------------------------
//
// The CPU execution range of the forward is (image, channel block), but the
// recorded launch is the paper's GPU model: one thread per output pixel,
// each doing a K*K-tap dot product. gpusim and the per-kernel benchmark rows
// read exactly this record.

void expect_one_dw_launch(const char* name,
                          const std::function<void(Tensor&)>& run,
                          const Shape& out_shape, int64_t K) {
  Tensor out(out_shape);
  device::KernelProfileScope profile;
  run(out);
  const std::vector<device::KernelRecord> records = profile.records();
  ASSERT_EQ(records.size(), 1u) << name;
  EXPECT_EQ(records[0].name, name);
  EXPECT_EQ(records[0].threads, out.numel());
  EXPECT_DOUBLE_EQ(records[0].flops_per_thread, 2.0 * K * K);
  EXPECT_DOUBLE_EQ(records[0].bytes_per_thread, 4.0 * (K * K + 2.0));
  EXPECT_EQ(records[0].atomic_adds, 0);
}

TEST(DwLaunchRecord, OneLaunchPerForwardWithPerPixelModelThreads) {
  Rng rng(227);
  for (const int64_t K : {3, 5}) {
    for (const int64_t stride : {1, 2}) {
      const DepthwiseArgs args{stride, K / 2};
      const Tensor in = random_uniform(make_nchw(3, 6, 9, 9), rng);
      const Tensor w = random_uniform(Shape{6, 1, K, K}, rng);
      const Tensor b = random_uniform(Shape{6}, rng);
      const Shape out_shape =
          depthwise_output_shape(in.shape(), w.shape(), args);
      for (const bool relu : {false, true}) {
        expect_one_dw_launch(
            "dw_forward",
            [&](Tensor& o) {
              depthwise_forward_into(in, w, &b, args, o, relu);
            },
            out_shape, K);
        for (const simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kSse2,
                                    simd::Isa::kAvx2}) {
          if (!simd::isa_available(isa)) continue;
          expect_one_dw_launch(
              "simd_dw_forward",
              [&](Tensor& o) {
                simd::depthwise_forward_into(in, w, &b, args, o, relu, isa);
              },
              out_shape, K);
        }
      }
    }
  }
}

// ---- pooling -------------------------------------------------------------------

TEST(MaxPool, ForwardPicksMaxAndArgmax) {
  Tensor in(make_nchw(1, 1, 2, 2));
  in[0] = 1.0f; in[1] = 5.0f; in[2] = 3.0f; in[3] = 2.0f;
  MaxPoolResult res = maxpool2d_forward(in, {2, 2});
  EXPECT_EQ(res.output.shape(), make_nchw(1, 1, 1, 1));
  EXPECT_FLOAT_EQ(res.output[0], 5.0f);
  EXPECT_EQ(res.argmax[0], 1);
}

TEST(MaxPool, BackwardRoutesToArgmax) {
  Rng rng(41);
  Tensor in = random_uniform(make_nchw(2, 3, 4, 4), rng);
  MaxPoolResult res = maxpool2d_forward(in, {2, 2});
  Tensor dout(res.output.shape(), 1.0f);
  Tensor din = maxpool2d_backward(dout, res, in.shape(), {2, 2});
  // Each window routes exactly one unit of gradient.
  EXPECT_DOUBLE_EQ(sum(din), static_cast<double>(dout.numel()));
  // Gradient lands only on window maxima.
  for (int64_t i = 0; i < din.numel(); ++i) {
    EXPECT_TRUE(din[i] == 0.0f || din[i] == 1.0f);
  }
}

TEST(MaxPool, NumericGradient) {
  Rng rng(43);
  Tensor in = random_uniform(make_nchw(1, 2, 4, 4), rng);
  PoolArgs args{2, 2};
  MaxPoolResult res = maxpool2d_forward(in, args);
  ProbeLoss probe(res.output.shape());
  const auto loss = [&] {
    return probe.value(maxpool2d_forward(in, args).output);
  };
  Tensor din = maxpool2d_backward(probe.mask, res, in.shape(), args);
  EXPECT_LT(max_numeric_grad_error(in, loss, din, 1e-3f), 2e-2f);
}

TEST(AvgPool, ForwardAverages) {
  Tensor in(make_nchw(1, 1, 2, 2));
  in[0] = 1.0f; in[1] = 2.0f; in[2] = 3.0f; in[3] = 6.0f;
  Tensor out = avgpool2d_forward(in, {2, 2});
  EXPECT_FLOAT_EQ(out[0], 3.0f);
}

TEST(AvgPool, BackwardSpreadsUniformly) {
  Tensor dout(make_nchw(1, 1, 1, 1), 4.0f);
  Tensor din = avgpool2d_backward(dout, make_nchw(1, 1, 2, 2), {2, 2});
  for (int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(din[i], 1.0f);
}

TEST(GlobalAvgPool, ForwardBackward) {
  Rng rng(47);
  Tensor in = random_uniform(make_nchw(2, 3, 4, 4), rng);
  Tensor out = global_avgpool_forward(in);
  EXPECT_EQ(out.shape(), make_nchw(2, 3, 1, 1));
  double manual = 0.0;
  for (int64_t y = 0; y < 4; ++y) {
    for (int64_t x = 0; x < 4; ++x) manual += in.at(1, 2, y, x);
  }
  EXPECT_NEAR(out.at(1, 2, 0, 0), manual / 16.0, 1e-5);

  Tensor dout(out.shape(), 16.0f);
  Tensor din = global_avgpool_backward(dout, in.shape());
  EXPECT_FLOAT_EQ(din.at(0, 0, 3, 3), 1.0f);
}

// ---- batchnorm -----------------------------------------------------------------

TEST(BatchNorm, TrainingNormalizesBatch) {
  Rng rng(53);
  Tensor in = random_uniform(make_nchw(4, 3, 5, 5), rng, -3.0f, 7.0f);
  BatchNormState state = BatchNormState::create(3);
  BatchNormCache cache;
  Tensor out = batchnorm_forward(in, state, &cache, /*training=*/true);
  // Per-channel mean ~0, var ~1.
  const int64_t plane = 25;
  for (int64_t c = 0; c < 3; ++c) {
    double m = 0.0, v = 0.0;
    for (int64_t n = 0; n < 4; ++n) {
      for (int64_t j = 0; j < plane; ++j) {
        const float x = out.data()[(n * 3 + c) * plane + j];
        m += x;
        v += static_cast<double>(x) * x;
      }
    }
    m /= 100.0;
    v = v / 100.0 - m * m;
    EXPECT_NEAR(m, 0.0, 1e-4);
    EXPECT_NEAR(v, 1.0, 1e-2);
  }
}

TEST(BatchNorm, RunningStatsConvergeToBatchStats) {
  Rng rng(59);
  Tensor in = random_normal(make_nchw(8, 2, 4, 4), rng, 2.0f, 3.0f);
  BatchNormState state = BatchNormState::create(2);
  BatchNormCache cache;
  for (int i = 0; i < 60; ++i) {
    batchnorm_forward(in, state, &cache, true);
  }
  EXPECT_NEAR(state.running_mean[0], 2.0f, 0.5f);
  EXPECT_NEAR(state.running_var[0], 9.0f, 2.5f);
}

TEST(BatchNorm, EvalUsesRunningStats) {
  Tensor in(make_nchw(1, 1, 2, 2), 4.0f);
  BatchNormState state = BatchNormState::create(1);
  state.running_mean[0] = 2.0f;
  state.running_var[0] = 4.0f;
  Tensor out = batchnorm_forward(in, state, nullptr, /*training=*/false);
  EXPECT_NEAR(out[0], (4.0f - 2.0f) / 2.0f, 1e-3f);
}

TEST(BatchNorm, AffineParamsApply) {
  Tensor in(make_nchw(1, 1, 1, 2));
  in[0] = -1.0f;
  in[1] = 1.0f;
  BatchNormState state = BatchNormState::create(1);
  state.gamma[0] = 3.0f;
  state.beta[0] = 0.5f;
  BatchNormCache cache;
  Tensor out = batchnorm_forward(in, state, &cache, true);
  EXPECT_NEAR(out[0], -3.0f + 0.5f, 1e-2f);
  EXPECT_NEAR(out[1], 3.0f + 0.5f, 1e-2f);
}

TEST(BatchNorm, BackwardMatchesNumerics) {
  Rng rng(61);
  Tensor in = random_uniform(make_nchw(2, 2, 3, 3), rng);
  BatchNormState state = BatchNormState::create(2);
  state.gamma[0] = 1.3f;
  state.gamma[1] = 0.7f;
  state.beta[0] = 0.2f;

  BatchNormCache cache;
  ProbeLoss probe(in.shape());
  const auto loss = [&] {
    BatchNormState s2 = state;  // forward mutates running stats; copy
    BatchNormCache c2;
    return probe.value(batchnorm_forward(in, s2, &c2, true));
  };
  batchnorm_forward(in, state, &cache, true);
  BatchNormGrads g = batchnorm_backward(probe.mask, state, cache);
  EXPECT_LT(max_numeric_grad_error(in, loss, g.dinput, 1e-2f), 3e-2f);
  EXPECT_LT(max_numeric_grad_error(state.gamma, loss, g.dgamma, 1e-2f), 3e-2f);
  EXPECT_LT(max_numeric_grad_error(state.beta, loss, g.dbeta, 1e-2f), 3e-2f);
}

TEST(BatchNorm, TrainingRequiresCache) {
  Tensor in(make_nchw(1, 1, 2, 2));
  BatchNormState state = BatchNormState::create(1);
  EXPECT_THROW(batchnorm_forward(in, state, nullptr, true), Error);
}

// ---- activations ----------------------------------------------------------------

TEST(ReLU, ForwardClampsNegatives) {
  Tensor in(Shape{4});
  in[0] = -1.0f; in[1] = 0.0f; in[2] = 2.0f; in[3] = -0.5f;
  Tensor out = relu_forward(in);
  EXPECT_FLOAT_EQ(out[0], 0.0f);
  EXPECT_FLOAT_EQ(out[2], 2.0f);
}

TEST(ReLU, BackwardMasksBySign) {
  Tensor in(Shape{3});
  in[0] = -1.0f; in[1] = 1.0f; in[2] = 0.0f;
  Tensor dout(Shape{3}, 5.0f);
  Tensor din = relu_backward(dout, in);
  EXPECT_FLOAT_EQ(din[0], 0.0f);
  EXPECT_FLOAT_EQ(din[1], 5.0f);
  EXPECT_FLOAT_EQ(din[2], 0.0f);  // subgradient at 0 -> 0
}

// ---- linear --------------------------------------------------------------------

TEST(Linear, ForwardMatchesManual) {
  Tensor in(Shape{1, 2});
  in[0] = 1.0f; in[1] = 2.0f;
  Tensor w(Shape{3, 2});
  for (int64_t i = 0; i < 6; ++i) w[i] = static_cast<float>(i);
  Tensor b(Shape{3});
  b[0] = 0.5f;
  Tensor out = linear_forward(in, w, &b);
  EXPECT_FLOAT_EQ(out.at(0, 0), 0 * 1 + 1 * 2 + 0.5f);
  EXPECT_FLOAT_EQ(out.at(0, 1), 2 * 1 + 3 * 2);
  EXPECT_FLOAT_EQ(out.at(0, 2), 4 * 1 + 5 * 2);
}

TEST(Linear, BackwardMatchesNumerics) {
  Rng rng(67);
  Tensor in = random_uniform(Shape{3, 4}, rng);
  Tensor w = random_uniform(Shape{5, 4}, rng, -0.5f, 0.5f);
  Tensor b = random_uniform(Shape{5}, rng);
  ProbeLoss probe(Shape{3, 5});
  const auto loss = [&] { return probe.value(linear_forward(in, w, &b)); };
  LinearGrads g = linear_backward(in, w, probe.mask, true, true);
  EXPECT_LT(max_numeric_grad_error(w, loss, g.dweight), 2e-2f);
  EXPECT_LT(max_numeric_grad_error(b, loss, g.dbias), 2e-2f);
  EXPECT_LT(max_numeric_grad_error(in, loss, g.dinput), 2e-2f);
}

// ---- softmax / cross-entropy ----------------------------------------------------

TEST(Softmax, RowsSumToOne) {
  Rng rng(71);
  Tensor logits = random_uniform(Shape{4, 7}, rng, -10.0f, 10.0f);
  Tensor p = softmax(logits);
  for (int64_t n = 0; n < 4; ++n) {
    double row = 0.0;
    for (int64_t k = 0; k < 7; ++k) {
      EXPECT_GE(p.at(n, k), 0.0f);
      row += p.at(n, k);
    }
    EXPECT_NEAR(row, 1.0, 1e-5);
  }
}

TEST(Softmax, NumericallyStableForLargeLogits) {
  Tensor logits(Shape{1, 3});
  logits[0] = 1000.0f; logits[1] = 1000.0f; logits[2] = -1000.0f;
  Tensor p = softmax(logits);
  EXPECT_NEAR(p[0], 0.5f, 1e-5f);
  EXPECT_NEAR(p[2], 0.0f, 1e-6f);
  EXPECT_FALSE(std::isnan(p[0]));
}

TEST(Xent, UniformLogitsGiveLogK) {
  Tensor logits(Shape{2, 4}, 0.0f);
  const std::vector<int32_t> labels = {1, 3};
  XentResult res = softmax_cross_entropy(logits, labels);
  EXPECT_NEAR(res.loss, std::log(4.0), 1e-5);
}

TEST(Xent, GradientIsSoftmaxMinusOneHotOverN) {
  Rng rng(73);
  Tensor logits = random_uniform(Shape{2, 3}, rng);
  const std::vector<int32_t> labels = {2, 0};
  Tensor p = softmax(logits);
  XentResult res = softmax_cross_entropy(logits, labels);
  for (int64_t n = 0; n < 2; ++n) {
    for (int64_t k = 0; k < 3; ++k) {
      const float onehot = labels[static_cast<size_t>(n)] == k ? 1.0f : 0.0f;
      EXPECT_NEAR(res.dlogits.at(n, k), (p.at(n, k) - onehot) / 2.0f, 1e-5f);
    }
  }
}

TEST(Xent, GradientMatchesNumerics) {
  Rng rng(79);
  Tensor logits = random_uniform(Shape{3, 4}, rng);
  const std::vector<int32_t> labels = {0, 2, 3};
  XentResult res = softmax_cross_entropy(logits, labels);
  const auto loss = [&] {
    return softmax_cross_entropy(logits, labels).loss;
  };
  EXPECT_LT(max_numeric_grad_error(logits, loss, res.dlogits, 1e-2f), 1e-3f);
}

TEST(Xent, ValidatesLabels) {
  Tensor logits(Shape{2, 3});
  const std::vector<int32_t> bad = {0, 3};
  EXPECT_THROW(softmax_cross_entropy(logits, bad), Error);
  const std::vector<int32_t> neg = {-1, 0};
  EXPECT_THROW(softmax_cross_entropy(logits, neg), Error);
  const std::vector<int32_t> short_labels = {0};
  EXPECT_THROW(softmax_cross_entropy(logits, short_labels), Error);
}

}  // namespace
}  // namespace dsx
