// Kernel-level microbenchmarks (google-benchmark): SCC forward/backward vs
// the PW/GPW primitives it replaces and the composition implementations.
// These complement the table/figure harnesses with op-granularity numbers.
//
// `--json` switches to the dsx::tune harness instead: it measures every
// registered kernel candidate on a shape sweep (including the dsx::simd
// vectorized candidates, admitted via fast-math; depthwise rows also carry
// GFLOP/s), compiles a tuned vs untuned serving plan, asserts the tuned plan
// is never slower by the median of per-round paired ratios (SHAPE-CHECK),
// and writes machine-readable BENCH_micro_kernels.json
// (per-candidate timings) plus BENCH_tune.json (per-problem winners and the
// plan comparison) plus BENCH_simd_gemm.json (packed-GEMM GFLOP/s scalar vs
// sse2 vs avx2, and the fast-math tuned-plan end-to-end; SHAPE-CHECKs the
// packed AVX2 GEMM at >= 2x the scalar baseline on an AVX2 host).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <vector>

#include "bench_common.hpp"
#include "core/compositions.hpp"
#include "core/scc_gemm.hpp"
#include "core/scc_kernels.hpp"
#include "device/thread_pool.hpp"
#include "nn/layers_basic.hpp"
#include "ops/conv2d.hpp"
#include "ops/depthwise.hpp"
#include "ops/gemm.hpp"
#include "ops/shift.hpp"
#include "ops/shuffle.hpp"
#include "serve/compiled_model.hpp"
#include "simd/dispatch.hpp"
#include "simd/gemm.hpp"
#include "tensor/random.hpp"

namespace dsx {
namespace {

struct LayerData {
  scc::SCCConfig cfg;
  scc::ChannelWindowMap map;
  Tensor in, w, dout;

  LayerData(int64_t cin, int64_t cout, int64_t spatial, int64_t cg, double co,
            int64_t batch)
      : cfg{cin, cout, cg, co, 1}, map(cfg) {
    Rng rng(7);
    in = random_uniform(make_nchw(batch, cin, spatial, spatial), rng);
    w = random_uniform(Shape{cout, map.group_width()}, rng);
    dout = random_uniform(scc::scc_output_shape(in.shape(), map), rng);
  }
};

LayerData& layer(int64_t cg) {
  static LayerData l2(64, 128, 16, 2, 0.5, 8);
  static LayerData l4(64, 128, 16, 4, 0.5, 8);
  static LayerData l8(64, 128, 16, 8, 0.5, 8);
  switch (cg) {
    case 4: return l4;
    case 8: return l8;
    default: return l2;
  }
}

void BM_SCCForwardFused(benchmark::State& state) {
  LayerData& l = layer(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(scc::scc_forward(l.in, l.w, nullptr, l.map));
  }
  state.counters["macs"] = benchmark::Counter(
      static_cast<double>(l.in.shape().n()) * l.cfg.out_channels * 16 * 16 *
          l.map.group_width(),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_SCCForwardFused)->Arg(2)->Arg(4)->Arg(8);

void BM_SCCForwardNoCycleTable(benchmark::State& state) {
  // Ablation of the channel-cyclic index reuse (paper Algorithm 2): window
  // starts recomputed per filter instead of read from the one-cycle table.
  LayerData& l = layer(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        scc::scc_forward_no_cycle_table(l.in, l.w, nullptr, l.map));
  }
}
BENCHMARK(BM_SCCForwardNoCycleTable)->Arg(2)->Arg(4)->Arg(8);

void BM_SCCForwardChannelStack(benchmark::State& state) {
  LayerData& l = layer(state.range(0));
  const scc::ChannelStackSCC impl(l.cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(impl.forward(l.in, l.w, nullptr));
  }
}
BENCHMARK(BM_SCCForwardChannelStack)->Arg(2)->Arg(4)->Arg(8);

void BM_SCCForwardConvStack(benchmark::State& state) {
  LayerData& l = layer(state.range(0));
  const scc::ConvStackSCC impl(l.cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(impl.forward(l.in, l.w, nullptr));
  }
}
BENCHMARK(BM_SCCForwardConvStack)->Arg(2)->Arg(4)->Arg(8);

void BM_SCCBackwardInputCentric(benchmark::State& state) {
  LayerData& l = layer(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(scc::scc_backward_input_centric(
        l.in, l.w, l.dout, l.map, true, false));
  }
}
BENCHMARK(BM_SCCBackwardInputCentric)->Arg(2)->Arg(4)->Arg(8);

void BM_SCCBackwardOutputCentric(benchmark::State& state) {
  LayerData& l = layer(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(scc::scc_backward_output_centric(
        l.in, l.w, l.dout, l.map, true, false));
  }
}
BENCHMARK(BM_SCCBackwardOutputCentric)->Arg(2)->Arg(4)->Arg(8);

void BM_SCCForwardGemmStack(benchmark::State& state) {
  // The paper's rejected alternative (§IV): Cout fine-grained per-filter
  // GEMMs over gathered windows. Expected to lose to the fused kernel on
  // gather traffic and GEMM-granularity alone.
  LayerData& l = layer(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(scc::scc_forward_gemm(l.in, l.w, nullptr, l.map));
  }
}
BENCHMARK(BM_SCCForwardGemmStack)->Arg(2)->Arg(4)->Arg(8);

void BM_SCCBackwardGemmStack(benchmark::State& state) {
  LayerData& l = layer(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        scc::scc_backward_gemm(l.in, l.w, l.dout, l.map, true, false));
  }
}
BENCHMARK(BM_SCCBackwardGemmStack)->Arg(2)->Arg(4)->Arg(8);

void BM_ShiftForward(benchmark::State& state) {
  // Zero-FLOP spatial stage (paper ref [10]); contrast with depthwise.
  Rng rng(9);
  Tensor in = random_uniform(make_nchw(8, 64, 16, 16), rng);
  const auto shifts = make_uniform_shifts(64, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(shift_forward(in, shifts, 1));
  }
}
BENCHMARK(BM_ShiftForward);

void BM_ChannelShuffleForward(benchmark::State& state) {
  Rng rng(9);
  Tensor in = random_uniform(make_nchw(8, 64, 16, 16), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(channel_shuffle_forward(in, state.range(0)));
  }
}
BENCHMARK(BM_ChannelShuffleForward)->Arg(2)->Arg(4)->Arg(8);

void BM_PointwiseConvForward(benchmark::State& state) {
  Rng rng(9);
  Tensor in = random_uniform(make_nchw(8, 64, 16, 16), rng);
  Tensor w = random_uniform(Shape{128, 64, 1, 1}, rng);
  const Conv2dArgs args{1, 0, 1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv2d_forward(in, w, nullptr, args));
  }
}
BENCHMARK(BM_PointwiseConvForward);

void BM_GroupPointwiseForward(benchmark::State& state) {
  const int64_t cg = state.range(0);
  Rng rng(9);
  Tensor in = random_uniform(make_nchw(8, 64, 16, 16), rng);
  Tensor w = random_uniform(Shape{128, 64 / cg, 1, 1}, rng);
  const Conv2dArgs args{1, 0, cg};
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv2d_forward(in, w, nullptr, args));
  }
}
BENCHMARK(BM_GroupPointwiseForward)->Arg(2)->Arg(4)->Arg(8);

// ---- dsx::tune harness (--json mode) -----------------------------------------

namespace tunebench {

struct SccShape {
  const char* tag;
  int64_t batch, cin, cout, spatial, cg;
  double co;
};

struct ConvShape {
  const char* tag;
  int64_t batch, cin, cout, spatial, k, pad;
};

struct DwShape {
  const char* tag;
  int64_t batch, c, spatial, k, stride, pad;
};

std::string json_scc_timing(const SccShape& s, const tune::CandidateTiming& t) {
  std::ostringstream os;
  os << "{\"op\":\"scc_forward\",\"shape\":\"" << s.tag << "\",\"n\":" << s.batch
     << ",\"c\":" << s.cin << ",\"hw\":" << s.spatial << ",\"cout\":" << s.cout
     << ",\"variant\":\"" << t.variant << "\",\"fidelity\":\""
     << tune::fidelity_name(t.fidelity)
     << "\",\"median_ns\":" << bench::fmt(t.median_ns, 0)
     << "}";
  return os.str();
}

std::string json_conv_timing(const ConvShape& s,
                             const tune::CandidateTiming& t) {
  std::ostringstream os;
  os << "{\"op\":\"conv2d_forward\",\"shape\":\"" << s.tag
     << "\",\"n\":" << s.batch << ",\"c\":" << s.cin << ",\"hw\":" << s.spatial
     << ",\"cout\":" << s.cout << ",\"k\":" << s.k << ",\"variant\":\""
     << t.variant << "\",\"fidelity\":\"" << tune::fidelity_name(t.fidelity)
     << "\",\"median_ns\":" << bench::fmt(t.median_ns, 0) << "}";
  return os.str();
}

std::string json_dw_timing(const DwShape& s, const tune::CandidateTiming& t,
                           double flops) {
  std::ostringstream os;
  os << "{\"op\":\"depthwise_forward\",\"shape\":\"" << s.tag
     << "\",\"n\":" << s.batch << ",\"c\":" << s.c << ",\"hw\":" << s.spatial
     << ",\"k\":" << s.k << ",\"stride\":" << s.stride << ",\"variant\":\""
     << t.variant << "\",\"fidelity\":\"" << tune::fidelity_name(t.fidelity)
     << "\",\"median_ns\":" << bench::fmt(t.median_ns, 0)
     << ",\"gflops\":" << bench::fmt(flops / t.median_ns, 2) << "}";
  return os.str();
}

std::string json_winner(const char* op, const char* tag,
                        const tune::TuningRecord& rec) {
  std::ostringstream os;
  os << "{\"kind\":\"problem_winner\",\"op\":\"" << op << "\",\"shape\":\""
     << tag << "\",\"variant\":\"" << rec.variant
     << "\",\"median_ns\":" << bench::fmt(rec.median_ns, 0)
     << ",\"default_ns\":" << bench::fmt(rec.default_ns, 0)
     << ",\"speedup_vs_default\":"
     << bench::fmt(rec.default_ns / rec.median_ns, 3) << "}";
  return os.str();
}

/// Paired A-vs-B plan timing. Each round runs both plans back to back, in
/// alternating order, and records the ratio b/a of that round, so a
/// scheduler burst lands inside one pair instead of biasing one plan's
/// median. The gate reads the median ratio; its quartiles show the spread.
struct PlanComparison {
  double a_ms = 0.0, b_ms = 0.0;  // per-plan medians
  double ratio = 0.0;             // median over rounds of b / a
  double ratio_q1 = 0.0, ratio_q3 = 0.0;
};

PlanComparison time_plans_interleaved(serve::CompiledModel& a,
                                      serve::CompiledModel& b,
                                      const Tensor& batch_in,
                                      int rounds = 41) {
  const auto time_run = [&batch_in](serve::CompiledModel& m) {
    const auto t0 = std::chrono::steady_clock::now();
    (void)m.run(batch_in);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };
  std::vector<double> ta, tb, ratios;
  for (int it = 0; it < rounds; ++it) {
    double da, db;
    if (it % 2 == 0) {
      da = time_run(a);
      db = time_run(b);
    } else {
      db = time_run(b);
      da = time_run(a);
    }
    ta.push_back(da);
    tb.push_back(db);
    ratios.push_back(db / da);
  }
  const auto quantile = [](std::vector<double>& v, size_t num, size_t den) {
    std::sort(v.begin(), v.end());
    return v[(v.size() - 1) * num / den];
  };
  PlanComparison c;
  c.a_ms = quantile(ta, 1, 2) * 1e3;
  c.b_ms = quantile(tb, 1, 2) * 1e3;
  c.ratio = quantile(ratios, 1, 2);
  c.ratio_q1 = quantile(ratios, 1, 4);
  c.ratio_q3 = quantile(ratios, 3, 4);
  return c;
}

/// Prints a compiled plan's per-layer winners and emits one `kind` JSON
/// record per layer into `out`. When `scc_non_default_win` is non-null it
/// is OR-ed with "an SCC layer picked a non-default variant with measured
/// speedup" (the sweep SHAPE-CHECK input).
void report_plan_layers(const serve::CompiledModel& plan, const char* kind,
                        bench::JsonWriter& out, bool* scc_non_default_win) {
  for (const serve::TunedLayerChoice& c : plan.report().tuned) {
    std::printf("  %-40s %s [%s]  %.0f -> %.0f ns (%.2fx)\n",
                c.layer.c_str(), c.variant.c_str(),
                tune::fidelity_name(c.fidelity), c.default_ns, c.median_ns,
                c.default_ns / c.median_ns);
    std::ostringstream os;
    os << "{\"kind\":\"" << kind << "\",\"layer\":\"" << c.layer
       << "\",\"variant\":\"" << c.variant << "\",\"fidelity\":\""
       << tune::fidelity_name(c.fidelity)
       << "\",\"median_ns\":" << bench::fmt(c.median_ns, 0)
       << ",\"default_ns\":" << bench::fmt(c.default_ns, 0) << "}";
    out.add(os.str());
    if (scc_non_default_win != nullptr && c.layer.rfind("SCCConv", 0) == 0 &&
        c.variant != "fused" && c.median_ns < c.default_ns) {
      *scc_non_default_win = true;
    }
  }
}

/// Tuned-vs-untuned serving plan model: a conv stem plus three SCC stages
/// whose spatial work shrinks 8x8 -> 4x4 - the deep-layer regime where
/// per-item work is smallest and kernel variants differ most.
std::unique_ptr<nn::Sequential> build_plan_model(uint64_t seed) {
  Rng rng(seed);
  auto net = std::make_unique<nn::Sequential>();
  net->emplace<nn::Conv2d>(3, 64, 3, 1, 1, 1, rng, /*bias=*/true);
  net->emplace<nn::ReLU>();
  net->emplace<nn::SCCConv>(scc::SCCConfig{64, 128, 4, 0.5, 1}, rng,
                            /*bias=*/true);
  net->emplace<nn::ReLU>();
  net->emplace<nn::SCCConv>(scc::SCCConfig{128, 64, 8, 0.5, 2}, rng,
                            /*bias=*/true);
  net->emplace<nn::ReLU>();
  net->emplace<nn::SCCConv>(scc::SCCConfig{64, 128, 8, 0.5, 1}, rng,
                            /*bias=*/true);
  return net;
}

int run() {
  // Honor an operator's DSX_THREADS but default to 4 so even single-core CI
  // measures the kernels under the same fan-out a multi-core host gets.
  ::setenv("DSX_THREADS", "4", /*overwrite=*/0);
  bench::banner("dsx::tune candidate sweep + tuned serving plan");
  std::printf("pool threads: %u (DSX_THREADS=%s)\n",
              device::ThreadPool::global().size(), std::getenv("DSX_THREADS"));

  bench::JsonWriter kernels("micro_kernels", true);
  bench::JsonWriter tuned_report("tune", true);
  bench::JsonWriter simd_report("simd_gemm", true);
  // allow_fast_math: the sweep measures the full menu including the
  // kUlpBounded simd candidates (the strict plan compile below still runs
  // with fast-math off and keeps its bit-identity SHAPE-CHECK).
  const tune::Tuner tuner(
      {.warmup = 2, .iters = 9, .allow_fast_math = true});
  bool scc_non_default_win = false;

  // ---- per-candidate sweep --------------------------------------------------
  const std::vector<SccShape> scc_shapes = {
      // Mid-network geometry: 1024 (n, filter) planes of 8x8 work.
      {"b8_c64_s8_cout128", 8, 64, 128, 8, 4, 0.5},
      // Deep-layer geometry: 1024 planes of TINY 2x2/gw4 work - per-item
      // overheads (window lookup, hand-off) dominate the arithmetic.
      {"b8_c64_s2_cout128", 8, 64, 128, 2, 16, 0.5},
      // Head geometry after full downsampling: 2048 planes of one pixel
      // each - the tiniest execution items in the sweep.
      {"b8_c64_s1_cout256", 8, 64, 256, 1, 16, 0.5},
      // Single-image geometry: 128 planes of heavy 32x32 work.
      {"b1_c64_s32_cout128", 1, 64, 128, 32, 4, 0.5},
      // The two SCC shapes that dominate a b8 run of the x1.0 32x32
      // MobileNet-SCC (cg 4, co 50%): 512->512 at 4x4 (gw 128, five
      // layers) and 1024->1024 at 2x2 (gw 256).
      {"b8_c512_s4_cout512", 8, 512, 512, 4, 4, 0.5},
      {"b8_c1024_s2_cout1024", 8, 1024, 1024, 2, 4, 0.5},
  };
  Rng rng(21);
  for (const SccShape& s : scc_shapes) {
    const scc::SCCConfig cfg{s.cin, s.cout, s.cg, s.co, 1};
    const scc::ChannelWindowMap map(cfg);
    const Tensor in =
        random_uniform(make_nchw(s.batch, s.cin, s.spatial, s.spatial), rng);
    const Tensor w = random_uniform(Shape{s.cout, map.group_width()}, rng);
    const tune::ProblemKey key = tune::make_scc_forward_key(in.shape(), map);
    const tune::TuneResult result = tuner.tune_scc(key, in, w, nullptr, map);
    for (const tune::CandidateTiming& t : result.timings) {
      kernels.add(json_scc_timing(s, t));
    }
    tuned_report.add(json_winner("scc_forward", s.tag, result.record));
    std::printf("  scc  %-20s -> %s (%.2fx vs default)\n", s.tag,
                result.record.variant.c_str(),
                result.record.default_ns / result.record.median_ns);
    if (result.record.variant != "fused" &&
        result.record.median_ns < result.record.default_ns) {
      scc_non_default_win = true;
    }
  }

  const std::vector<ConvShape> conv_shapes = {
      {"b8_c64_s16_cout64_k3", 8, 64, 64, 16, 3, 1},
      {"b8_c64_s16_cout128_k1", 8, 64, 128, 16, 1, 0},
  };
  for (const ConvShape& s : conv_shapes) {
    const Conv2dArgs args{1, s.pad, 1};
    const Tensor in =
        random_uniform(make_nchw(s.batch, s.cin, s.spatial, s.spatial), rng);
    const Tensor w = random_uniform(Shape{s.cout, s.cin, s.k, s.k}, rng);
    const tune::ProblemKey key =
        tune::make_conv2d_forward_key(in.shape(), w.shape(), args);
    const tune::TuneResult result = tuner.tune_conv2d(key, in, w, nullptr, args);
    for (const tune::CandidateTiming& t : result.timings) {
      kernels.add(json_conv_timing(s, t));
    }
    tuned_report.add(json_winner("conv2d_forward", s.tag, result.record));
    std::printf("  conv %-20s -> %s (%.2fx vs default)\n", s.tag,
                result.record.variant.c_str(),
                result.record.default_ns / result.record.median_ns);
  }

  // The depthwise layers of a b8 run of the x1.0 32x32 MobileNet-SCC
  // (3x3, pad 1): the 32x32 stem-side layers, the first downsampling layer,
  // and the deep 4x4 / 2x2 planes narrower than a vector row.
  const std::vector<DwShape> dw_shapes = {
      {"b8_c32_s32_k3", 8, 32, 32, 3, 1, 1},
      {"b8_c64_s32_k3_stride2", 8, 64, 32, 3, 2, 1},
      {"b8_c128_s16_k3", 8, 128, 16, 3, 1, 1},
      {"b8_c512_s4_k3", 8, 512, 4, 3, 1, 1},
      {"b8_c1024_s2_k3", 8, 1024, 2, 3, 1, 1},
  };
  for (const DwShape& s : dw_shapes) {
    const DepthwiseArgs args{s.stride, s.pad};
    const Tensor in =
        random_uniform(make_nchw(s.batch, s.c, s.spatial, s.spatial), rng);
    const Tensor w = random_uniform(Shape{s.c, 1, s.k, s.k}, rng);
    const Tensor b = random_uniform(Shape{s.c}, rng);
    const Shape out = depthwise_output_shape(in.shape(), w.shape(), args);
    const double flops = 2.0 * static_cast<double>(s.k * s.k * out.numel());
    const tune::ProblemKey key =
        tune::make_depthwise_forward_key(in.shape(), w.shape(), args);
    const tune::TuneResult result = tuner.tune_depthwise(key, in, w, &b, args);
    std::printf("  dw   %-20s", s.tag);
    for (const tune::CandidateTiming& t : result.timings) {
      kernels.add(json_dw_timing(s, t, flops));
      std::printf(" | %s %.0f ns %.2f GFLOP/s", t.variant.c_str(), t.median_ns,
                  flops / t.median_ns);
    }
    std::printf("\n");
    tuned_report.add(json_winner("depthwise_forward", s.tag, result.record));
  }

  // ---- packed GEMM GFLOP/s: scalar baseline vs simd ISA levels -------------
  std::printf("\npacked GEMM (dsx::simd) vs scalar dsx::gemm, host ISA %s:\n",
              simd::isa_name(simd::detect_isa()));
  struct GemmShape {
    int64_t M, N, K;
  };
  const std::vector<GemmShape> gemm_shapes = {
      {128, 128, 128},  // L1-resident
      {256, 256, 256},  // L2-resident
      {384, 384, 384},  // spills L2: packing reuse pays
      {96, 1024, 576},  // conv-shaped (cout x planeo x cin*k*k)
  };
  double avx2_best_speedup = 0.0;
  for (const GemmShape& s : gemm_shapes) {
    const Tensor a = random_uniform(Shape{s.M, s.K}, rng);
    const Tensor b = random_uniform(Shape{s.K, s.N}, rng);
    Tensor c(Shape{s.M, s.N});
    const double flops = 2.0 * static_cast<double>(s.M * s.N * s.K);
    const double t_scalar = bench::time_median(
        [&] {
          gemm(false, false, s.M, s.N, s.K, 1.0f, a.data(), s.K, b.data(),
               s.N, 0.0f, c.data(), s.N);
        },
        1, 5);
    {
      std::ostringstream os;
      os << "{\"op\":\"gemm\",\"M\":" << s.M << ",\"N\":" << s.N
         << ",\"K\":" << s.K << ",\"impl\":\"scalar_ref\",\"gflops\":"
         << bench::fmt(flops / t_scalar / 1e9, 2) << ",\"speedup\":1.0}";
      simd_report.add(os.str());
    }
    std::printf("  %4lldx%-4lldx%-4lld scalar_ref %7.2f GFLOP/s",
                static_cast<long long>(s.M), static_cast<long long>(s.N),
                static_cast<long long>(s.K), flops / t_scalar / 1e9);
    for (const simd::Isa isa :
         {simd::Isa::kScalar, simd::Isa::kSse2, simd::Isa::kAvx2}) {
      if (!simd::isa_available(isa)) continue;
      const double t = bench::time_median(
          [&] {
            simd::gemm(false, false, s.M, s.N, s.K, 1.0f, a.data(), s.K,
                       b.data(), s.N, 0.0f, c.data(), s.N, isa);
          },
          1, 5);
      const double speedup = t_scalar / t;
      if (isa == simd::Isa::kAvx2) {
        avx2_best_speedup = std::max(avx2_best_speedup, speedup);
      }
      std::ostringstream os;
      os << "{\"op\":\"gemm\",\"M\":" << s.M << ",\"N\":" << s.N
         << ",\"K\":" << s.K << ",\"impl\":\"simd_" << simd::isa_name(isa)
         << "\",\"gflops\":" << bench::fmt(flops / t / 1e9, 2)
         << ",\"speedup\":" << bench::fmt(speedup, 2) << "}";
      simd_report.add(os.str());
      std::printf(" | %s %7.2f (%4.2fx)", simd::isa_name(isa),
                  flops / t / 1e9, speedup);
    }
    std::printf("\n");
  }

  // ---- tuned vs untuned CompiledModel --------------------------------------
  const int64_t image = 8, batch = 8;
  tune::Session::global().cache().clear();
  serve::CompiledModel untuned(build_plan_model(5), Shape{3, image, image},
                               {.max_batch = batch});
  // The compile pass uses a higher challenger bar than the sweep: a baked
  // variant must beat the default by >10% measured, which keeps plan
  // choices out of this substrate's noise band.
  serve::CompiledModel tuned(
      build_plan_model(5), Shape{3, image, image},
      {.max_batch = batch,
       .tuning = tune::Mode::kTune,
       .tuner = {.warmup = 2, .iters = 9, .time_epsilon = 0.10}});

  Rng img_rng(23);
  const Tensor batch_in =
      random_uniform(make_nchw(batch, 3, image, image), img_rng);
  const Tensor out_untuned = untuned.run(batch_in);
  const Tensor out_tuned = tuned.run(batch_in);

  const PlanComparison plan = time_plans_interleaved(untuned, tuned, batch_in);
  const double untuned_ms = plan.a_ms, tuned_ms = plan.b_ms;
  std::printf("\ncompiled plan, batch %lld: untuned %.3f ms, tuned %.3f ms; "
              "tuned/untuned paired ratio %.3f (IQR %.3f, q1 %.3f q3 %.3f); "
              "per-layer winners:\n",
              static_cast<long long>(batch), untuned_ms, tuned_ms, plan.ratio,
              plan.ratio_q3 - plan.ratio_q1, plan.ratio_q1, plan.ratio_q3);
  report_plan_layers(tuned, "plan_layer", tuned_report, &scc_non_default_win);
  {
    std::ostringstream os;
    os << "{\"kind\":\"compiled_plan\",\"batch\":" << batch
       << ",\"untuned_ms\":" << bench::fmt(untuned_ms, 3)
       << ",\"tuned_ms\":" << bench::fmt(tuned_ms, 3)
       << ",\"speedup\":" << bench::fmt(untuned_ms / tuned_ms, 3)
       << ",\"tuned_over_untuned\":" << bench::fmt(plan.ratio, 3)
       << ",\"ratio_iqr\":" << bench::fmt(plan.ratio_q3 - plan.ratio_q1, 3)
       << "}";
    tuned_report.add(os.str());
  }

  // ---- fast-math tuned plan end-to-end (simd candidates admitted) ----------
  tune::Session::global().cache().clear();
  serve::CompiledModel fast_plan(
      build_plan_model(5), Shape{3, image, image},
      {.max_batch = batch,
       .tuning = tune::Mode::kTune,
       .tuner = {.warmup = 2, .iters = 9, .time_epsilon = 0.10},
       .allow_fast_math = true});
  const Tensor out_fast = fast_plan.run(batch_in);
  const PlanComparison fast =
      time_plans_interleaved(untuned, fast_plan, batch_in);
  const double base_ms = fast.a_ms, fast_ms = fast.b_ms;
  std::printf("\nfast-math plan, batch %lld: untuned %.3f ms, fast-math tuned "
              "%.3f ms; fast/untuned paired ratio %.3f (IQR %.3f, q1 %.3f q3 "
              "%.3f); per-layer winners:\n",
              static_cast<long long>(batch), base_ms, fast_ms, fast.ratio,
              fast.ratio_q3 - fast.ratio_q1, fast.ratio_q1, fast.ratio_q3);
  report_plan_layers(fast_plan, "fastmath_plan_layer", simd_report, nullptr);
  {
    std::ostringstream os;
    os << "{\"kind\":\"fastmath_plan\",\"batch\":" << batch
       << ",\"untuned_ms\":" << bench::fmt(base_ms, 3)
       << ",\"fastmath_ms\":" << bench::fmt(fast_ms, 3)
       << ",\"speedup\":" << bench::fmt(base_ms / fast_ms, 3)
       << ",\"fastmath_over_untuned\":" << bench::fmt(fast.ratio, 3)
       << ",\"ratio_iqr\":" << bench::fmt(fast.ratio_q3 - fast.ratio_q1, 3)
       << "}";
    simd_report.add(os.str());
  }

  kernels.write();
  tuned_report.write();
  simd_report.write();

  bool ok = true;
  {
    const bool same = out_untuned.shape() == out_tuned.shape() &&
                      std::memcmp(out_untuned.data(), out_tuned.data(),
                                  static_cast<size_t>(out_untuned.numel()) *
                                      sizeof(float)) == 0;
    ok = bench::shape_check(
             "tuned plan output is bit-identical to the untuned plan", same) &&
         ok;
  }
  {
    char claim[192];
    std::snprintf(claim, sizeof(claim),
                  "tuned plan is never slower than the untuned default "
                  "(median paired ratio %.3f over 41 rounds, IQR %.3f, 10%% "
                  "noise margin)",
                  plan.ratio, plan.ratio_q3 - plan.ratio_q1);
    ok = bench::shape_check(claim, plan.ratio <= 1.10) && ok;
  }
  ok = bench::shape_check(
           "at least one SCC problem selects a non-default variant with "
           "measured speedup",
           scc_non_default_win) &&
       ok;
  if (simd::isa_available(simd::Isa::kAvx2)) {
    char claim[128];
    std::snprintf(claim, sizeof(claim),
                  "packed AVX2 GEMM beats the scalar baseline by >= 2x "
                  "(best %.2fx)",
                  avx2_best_speedup);
    ok = bench::shape_check(claim, avx2_best_speedup >= 2.0) && ok;
  } else {
    std::printf("note: host lacks AVX2; packed-GEMM >=2x check skipped\n");
  }
  {
    // Fast-math outputs are not bit-identical, but must stay numerically
    // close to the strict plan (ULP divergence compounds across layers, so
    // this is a relative tolerance, not a per-op ULP bound).
    bool close = out_fast.shape() == out_untuned.shape();
    for (int64_t i = 0; close && i < out_fast.numel(); ++i) {
      close = std::abs(out_fast[i] - out_untuned[i]) <=
              1e-3f * (1.0f + std::abs(out_untuned[i]));
    }
    ok = bench::shape_check(
             "fast-math tuned plan output stays numerically close to the "
             "untuned plan",
             close) &&
         ok;
  }
  {
    char claim[192];
    std::snprintf(claim, sizeof(claim),
                  "fast-math tuned plan is never slower than the untuned "
                  "default (median paired ratio %.3f over 41 rounds, IQR "
                  "%.3f, 10%% noise margin)",
                  fast.ratio, fast.ratio_q3 - fast.ratio_q1);
    ok = bench::shape_check(claim, fast.ratio <= 1.10) && ok;
  }
  return ok ? 0 : 1;
}

}  // namespace tunebench

}  // namespace
}  // namespace dsx

int main(int argc, char** argv) {
  if (dsx::bench::has_flag(argc, argv, "--json")) {
    return dsx::tunebench::run();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
