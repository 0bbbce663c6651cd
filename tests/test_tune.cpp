// dsx::tune - the empirical autotuner.
//
// The load-bearing guarantees:
//   * every registered candidate of an op family is BIT-identical to the
//     default implementation on randomized shapes (this is what makes
//     swapping variants safe without re-validating numerics);
//   * tuning `off` is bit-identical to calling the default kernels directly
//     (pre-tuning behavior is pinned);
//   * a CompiledModel compiled in `tune` mode produces exactly the same
//     outputs as one compiled in `off` mode;
//   * the TuningCache round-trips through disk, rejects foreign/stale
//     files, and lets a second compile warm-start without re-measuring.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>

#include "common/binary_io.hpp"
#include "core/scc_kernels.hpp"
#include "models/mobilenet.hpp"
#include "nn/layers_basic.hpp"
#include "nn/layers_conv.hpp"
#include "serve/compiled_model.hpp"
#include "tensor/random.hpp"
#include "tune/dispatch.hpp"
#include "tune/tune.hpp"
#include "testing_utils.hpp"

namespace dsx {
namespace {

using testing::bit_identical;

/// Every test leaves the global session as it found it: off, empty cache,
/// no autosave path.
struct SessionGuard {
  SessionGuard() { reset(); }
  ~SessionGuard() { reset(); }
  static void reset() {
    tune::Session::global().set_mode(tune::Mode::kOff);
    tune::Session::global().set_cache_path("");
    tune::Session::global().cache().clear();
    tune::Session::global().set_tuner_options({});
  }
};

tune::TuningRecord make_test_record(int64_t n) {
  tune::TuningRecord rec;
  rec.key.op = tune::OpFamily::kSCCForward;
  rec.key.n = n;
  rec.key.c = 64;
  rec.key.h = 8;
  rec.key.w = 8;
  rec.key.cout = 128;
  rec.key.gw = 16;
  rec.key.step = 8;
  rec.key.threads = 2;
  rec.variant = "fused";
  rec.median_ns = 123.0;
  rec.default_ns = 456.0;
  rec.iters = 5;
  return rec;
}

// ---- ProblemKey ---------------------------------------------------------------

TEST(TuneProblemKey, OrderingEqualityAndNames) {
  tune::TuningRecord a = make_test_record(1);
  tune::TuningRecord b = make_test_record(2);
  EXPECT_TRUE(a.key == a.key);
  EXPECT_FALSE(a.key == b.key);
  EXPECT_TRUE(a.key < b.key || b.key < a.key);
  EXPECT_NE(a.key.to_string().find("scc_forward"), std::string::npos);

  Rng rng(3);
  const Tensor in = random_uniform(make_nchw(2, 8, 5, 5), rng);
  const Tensor w = random_uniform(Shape{16, 4, 3, 3}, rng);
  const tune::ProblemKey ck =
      tune::make_conv2d_forward_key(in.shape(), w.shape(), {1, 1, 2});
  EXPECT_EQ(ck.op, tune::OpFamily::kConv2dForward);
  EXPECT_EQ(ck.cout, 16);
  EXPECT_EQ(ck.kernel, 3);
  EXPECT_EQ(ck.groups, 2);
  EXPECT_NE(ck.to_string().find("conv2d_forward"), std::string::npos);
}

// ---- registry candidates are bit-identical ------------------------------------

TEST(TuneRegistry, SccCandidatesBitIdenticalPropertyStyle) {
  SessionGuard guard;
  Rng rng(11);
  const struct {
    int64_t batch, cin, cout, spatial, cg, stride;
    double co;
    bool bias;
  } cases[] = {
      {1, 8, 12, 5, 2, 1, 0.5, false},
      {2, 16, 24, 7, 4, 1, 0.25, true},
      {2, 12, 8, 6, 3, 2, 0.33, true},
      {3, 32, 32, 4, 8, 1, 0.75, false},
  };
  for (const auto& c : cases) {
    const scc::SCCConfig cfg{c.cin, c.cout, c.cg, c.co, c.stride};
    const scc::ChannelWindowMap map(cfg);
    const Tensor in =
        random_uniform(make_nchw(c.batch, c.cin, c.spatial, c.spatial), rng);
    const Tensor w = random_uniform(Shape{c.cout, map.group_width()}, rng);
    const Tensor b = random_uniform(Shape{c.cout}, rng);
    const Tensor* bias = c.bias ? &b : nullptr;

    const Tensor expect = scc::scc_forward(in, w, bias, map);
    const tune::ProblemKey key = tune::make_scc_forward_key(in.shape(), map);
    const auto candidates = tune::KernelRegistry::global().scc_forward(key);
    ASSERT_GE(candidates.size(), 3u);  // fused, fused_nocc, gemm at least
    EXPECT_EQ(candidates.front().variant, "fused");  // default first
    for (const auto& cand : candidates) {
      Workspace ws;
      Tensor out(scc::scc_output_shape(in.shape(), map));
      cand.run({&in, &w, bias, &map, &ws, &out});
      EXPECT_TRUE(bit_identical(expect, out))
          << cand.variant << " diverges on " << key.to_string();
    }
  }
}

TEST(TuneRegistry, ConvCandidatesBitIdenticalPropertyStyle) {
  SessionGuard guard;
  Rng rng(13);
  const struct {
    int64_t batch, cin, cout, spatial, k, stride, pad, groups;
    bool bias;
  } cases[] = {
      {2, 8, 16, 6, 3, 1, 1, 1, true},
      {1, 12, 12, 7, 3, 2, 0, 2, false},
      {2, 16, 32, 5, 1, 1, 0, 1, true},
      {1, 16, 16, 5, 1, 1, 0, 4, false},  // grouped 1x1 (GPW)
      {2, 6, 9, 9, 5, 2, 2, 3, true},
  };
  for (const auto& c : cases) {
    const Conv2dArgs args{c.stride, c.pad, c.groups};
    const Tensor in =
        random_uniform(make_nchw(c.batch, c.cin, c.spatial, c.spatial), rng);
    const Tensor w =
        random_uniform(Shape{c.cout, c.cin / c.groups, c.k, c.k}, rng);
    const Tensor b = random_uniform(Shape{c.cout}, rng);
    const Tensor* bias = c.bias ? &b : nullptr;

    const Tensor expect = conv2d_forward(in, w, bias, args);
    // Independent semantic reference (double accumulator - tolerance, not
    // bit, equality): candidates must agree with the math, and then be
    // bit-identical to each other.
    const Tensor naive =
        testing::naive_conv2d(in, w, bias, c.stride, c.pad, c.groups);
    ASSERT_EQ(expect.shape(), naive.shape());
    for (int64_t i = 0; i < expect.numel(); ++i) {
      ASSERT_NEAR(expect[i], naive[i], 1e-3f) << "semantic reference, i=" << i;
    }
    const tune::ProblemKey key =
        tune::make_conv2d_forward_key(in.shape(), w.shape(), args);
    const auto candidates = tune::KernelRegistry::global().conv2d_forward(key);
    ASSERT_GE(candidates.size(), 2u);  // im2col + direct at least
    EXPECT_EQ(candidates.front().variant, "im2col");
    for (const auto& cand : candidates) {
      Workspace ws;
      Tensor out(conv2d_output_shape(in.shape(), w.shape(), args));
      cand.run({&in, &w, bias, &args, &ws, &out});
      EXPECT_TRUE(bit_identical(expect, out))
          << cand.variant << " diverges on " << key.to_string();
    }
  }
}

TEST(TuneRegistry, MenuHasNoDuplicateComputation) {
  // Each candidate is distinct code: no variant is listed twice (once per
  // schedule) and no kernel appears under a second name, so a tuning pass
  // never times the same computation twice. Pool width does not shape the
  // menu.
  const Shape in = make_nchw(2, 16, 6, 6);
  const scc::ChannelWindowMap map(scc::SCCConfig{16, 24, 4, 0.5, 1});
  const Conv2dArgs conv_args{1, 1, 1};
  const DepthwiseArgs dw_args{1, 1};
  auto& registry = tune::KernelRegistry::global();

  const auto names = [](const auto& candidates) {
    std::vector<std::string> out;
    for (const auto& c : candidates) out.push_back(c.variant);
    return out;
  };
  const auto expect_unique = [](const std::vector<std::string>& variants,
                                const std::string& default_variant,
                                const std::string& what) {
    ASSERT_FALSE(variants.empty()) << what;
    EXPECT_EQ(variants.front(), default_variant) << what;
    const std::set<std::string> unique(variants.begin(), variants.end());
    EXPECT_EQ(unique.size(), variants.size()) << what;
  };

  for (const int64_t threads : {1, 4}) {
    for (const bool fast : {false, true}) {
      const std::string what = "threads=" + std::to_string(threads) +
                               (fast ? " fast-math" : " strict");
      tune::ProblemKey skey = tune::make_scc_forward_key(in, map);
      tune::ProblemKey ckey = tune::make_conv2d_forward_key(
          in, Shape{8, 16, 3, 3}, conv_args);
      tune::ProblemKey dkey = tune::make_depthwise_forward_key(
          in, Shape{16, 1, 3, 3}, dw_args);
      for (tune::ProblemKey* k : {&skey, &ckey, &dkey}) {
        k->threads = threads;
        k->fast_math = fast;
      }
      const auto scc = names(registry.scc_forward(skey, fast));
      expect_unique(scc, "fused", "scc " + what);
      expect_unique(names(registry.conv2d_forward(ckey, fast)), "im2col",
                    "conv2d " + what);
      expect_unique(names(registry.depthwise_forward(dkey, fast)), "direct",
                    "depthwise " + what);
      // The SSE2 SCC and depthwise tiles are the defaults ("fused",
      // "direct") themselves, never a second candidate.
      const auto dw = names(registry.depthwise_forward(dkey, fast));
      EXPECT_EQ(std::count(scc.begin(), scc.end(), "simd_sse2"), 0) << what;
      EXPECT_EQ(std::count(dw.begin(), dw.end(), "simd_sse2"), 0) << what;
      if (!fast) {
        EXPECT_EQ(scc, (std::vector<std::string>{"fused", "fused_nocc",
                                                 "gemm"}))
            << what;
        EXPECT_EQ(dw, (std::vector<std::string>{"direct"})) << what;
      }
    }
  }
}

// ---- TuningCache --------------------------------------------------------------

TEST(TuneCache, RoundTripsThroughDisk) {
  tune::TuningCache cache;
  cache.put(make_test_record(1));
  cache.put(make_test_record(2));
  ASSERT_EQ(cache.size(), 2);

  const std::string path = ::testing::TempDir() + "dsx_tune_roundtrip.bin";
  cache.save_file(path);

  tune::TuningCache loaded;
  loaded.load_file(path);
  EXPECT_EQ(loaded.size(), 2);
  const auto rec = loaded.find(make_test_record(2).key);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->variant, "fused");
  EXPECT_DOUBLE_EQ(rec->median_ns, 123.0);
  EXPECT_DOUBLE_EQ(rec->default_ns, 456.0);
  EXPECT_EQ(rec->iters, 5);
  EXPECT_FALSE(loaded.find(make_test_record(3).key).has_value());
}

TEST(TuneCache, PutOverwritesSameKey) {
  tune::TuningCache cache;
  cache.put(make_test_record(1));
  tune::TuningRecord updated = make_test_record(1);
  updated.variant = "gemm";
  cache.put(updated);
  EXPECT_EQ(cache.size(), 1);
  EXPECT_EQ(cache.find(updated.key)->variant, "gemm");
}

TEST(TuneCache, RejectsVersionMismatchAndBadMagic) {
  tune::TuningCache cache;
  cache.put(make_test_record(1));
  std::ostringstream os(std::ios::binary);
  cache.save(os);
  std::string bytes = os.str();

  // Bump the version field (8 bytes little-endian right after the magic).
  std::string stale = bytes;
  stale[4] = static_cast<char>(tune::TuningCache::kVersion + 1);
  {
    std::istringstream is(stale, std::ios::binary);
    tune::TuningCache fresh;
    EXPECT_THROW(fresh.load(is), Error);
  }
  // Corrupt the magic.
  std::string foreign = bytes;
  foreign[0] = 'X';
  {
    std::istringstream is(foreign, std::ios::binary);
    tune::TuningCache fresh;
    EXPECT_THROW(fresh.load(is), Error);
  }
  // Truncate mid-record.
  {
    std::istringstream is(bytes.substr(0, bytes.size() / 2),
                          std::ios::binary);
    tune::TuningCache fresh;
    EXPECT_THROW(fresh.load(is), Error);
  }
  // The original still loads.
  {
    std::istringstream is(bytes, std::ios::binary);
    tune::TuningCache fresh;
    fresh.load(is);
    EXPECT_EQ(fresh.size(), 1);
  }
}

/// A one-record cache file in an older on-disk layout, byte for byte. v1
/// keys had no fast_math flag and v1 records no fidelity; v2 added both.
/// Both carried a grain slot after the variant, which v3 dropped.
std::string legacy_cache_file(int64_t version) {
  std::ostringstream os(std::ios::binary);
  const char magic[4] = {'D', 'S', 'X', 'U'};
  os.write(magic, 4);
  io::write_i64(os, version);
  io::write_i64(os, 1);  // one record
  const tune::TuningRecord rec = make_test_record(1);
  io::write_i64(os, static_cast<int64_t>(rec.key.op));
  for (const int64_t v : {rec.key.n, rec.key.c, rec.key.h, rec.key.w,
                          rec.key.cout, rec.key.kernel, rec.key.stride,
                          rec.key.pad, rec.key.groups, rec.key.gw,
                          rec.key.step, rec.key.threads}) {
    io::write_i64(os, v);
  }
  io::write_i64(os, static_cast<int64_t>(rec.key.dtype));
  if (version >= 2) io::write_i64(os, rec.key.fast_math ? 1 : 0);
  io::write_str(os, rec.variant);
  io::write_i64(os, 0);  // grain slot (0 = library default)
  if (version >= 2) io::write_i64(os, static_cast<int64_t>(rec.fidelity));
  io::write_f64(os, rec.median_ns);
  io::write_f64(os, rec.default_ns);
  io::write_i64(os, rec.iters);
  return os.str();
}

/// The version check must reject a stale layout up front, with a message
/// that says what to do, and apply nothing: a stale record never half-loads.
void expect_rejected_as_stale(const std::string& bytes) {
  std::istringstream is(bytes, std::ios::binary);
  tune::TuningCache fresh;
  EXPECT_THROW(
      {
        try {
          fresh.load(is);
        } catch (const Error& e) {
          EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
          throw;
        }
      },
      Error);
  EXPECT_EQ(fresh.size(), 0);
}

TEST(TuneCache, RejectsV1FormatFileWithoutFidelity) {
  // A fidelity-less v1 record parsed under a later layout would misread
  // median_ns bytes as the fidelity and corrupt dispatch.
  expect_rejected_as_stale(legacy_cache_file(1));
}

TEST(TuneCache, RejectsV2FormatFileWithGrain) {
  // A v2 record parsed under the v3 layout would read its grain slot as
  // the fidelity and shift every later field by eight bytes.
  expect_rejected_as_stale(legacy_cache_file(2));
}

// ---- dispatch -----------------------------------------------------------------

TEST(TuneDispatch, OffModeIsDefaultKernelBitExact) {
  SessionGuard guard;
  Rng rng(17);
  const scc::SCCConfig cfg{16, 24, 4, 0.5, 1};
  const scc::ChannelWindowMap map(cfg);
  const Tensor in = random_uniform(make_nchw(2, 16, 6, 6), rng);
  const Tensor w = random_uniform(Shape{24, map.group_width()}, rng);

  const Tensor expect = scc::scc_forward(in, w, nullptr, map);
  Workspace ws;
  Tensor out(scc::scc_output_shape(in.shape(), map));
  tune::SccSite site;
  tune::scc_forward_dispatch(in, w, nullptr, map, ws, out, &site);
  EXPECT_TRUE(bit_identical(expect, out));
  // Off mode resolves nothing and performs no measurements.
  EXPECT_FALSE(site.resolved());
  EXPECT_EQ(tune::Session::global().tunes_performed(), 0);
}

TEST(TuneDispatch, CachedModeBakesRecordWithoutMeasuring) {
  SessionGuard guard;
  Rng rng(19);
  const scc::SCCConfig cfg{16, 24, 4, 0.5, 1};
  const scc::ChannelWindowMap map(cfg);
  const Tensor in = random_uniform(make_nchw(2, 16, 6, 6), rng);
  const Tensor w = random_uniform(Shape{24, map.group_width()}, rng);
  const Tensor expect = scc::scc_forward(in, w, nullptr, map);

  // Seed a record steering this problem to the no-cycle-table variant.
  tune::TuningRecord rec;
  rec.key = tune::make_scc_forward_key(in.shape(), map);
  rec.variant = "fused_nocc";
  rec.median_ns = 1.0;
  rec.default_ns = 2.0;
  rec.iters = 1;
  tune::Session::global().cache().put(rec);

  const int64_t tunes_before = tune::Session::global().tunes_performed();
  tune::Session::ScopedMode scope(tune::Mode::kCached);
  Workspace ws;
  Tensor out(scc::scc_output_shape(in.shape(), map));
  tune::SccSite site;
  tune::scc_forward_dispatch(in, w, nullptr, map, ws, out, &site);

  EXPECT_TRUE(bit_identical(expect, out));
  ASSERT_TRUE(site.resolved());
  EXPECT_EQ(site.baked->variant, "fused_nocc");
  ASSERT_TRUE(site.record.has_value());
  EXPECT_EQ(site.record->variant, "fused_nocc");
  // kCached never measures.
  EXPECT_EQ(tune::Session::global().tunes_performed(), tunes_before);

  // Baked sites skip the session entirely on later calls.
  tune::Session::global().set_mode(tune::Mode::kOff);
  Tensor out2(scc::scc_output_shape(in.shape(), map));
  tune::scc_forward_dispatch(in, w, nullptr, map, ws, out2, &site);
  EXPECT_TRUE(bit_identical(expect, out2));
}

TEST(TuneDispatch, CachedMissRunsDefaultAndStaleRecordFallsBack) {
  SessionGuard guard;
  Rng rng(23);
  const Conv2dArgs args{1, 1, 1};
  const Tensor in = random_uniform(make_nchw(1, 8, 6, 6), rng);
  const Tensor w = random_uniform(Shape{12, 8, 3, 3}, rng);
  const Tensor expect = conv2d_forward(in, w, nullptr, args);

  tune::Session::ScopedMode scope(tune::Mode::kCached);
  {
    // Miss: default runs, the site bakes the default candidate, no record.
    Workspace ws;
    Tensor out(expect.shape());
    tune::ConvSite site;
    tune::conv2d_forward_dispatch(in, w, nullptr, args, ws, out, &site);
    EXPECT_TRUE(bit_identical(expect, out));
    ASSERT_TRUE(site.resolved());
    EXPECT_EQ(site.baked->variant, "im2col");
    EXPECT_FALSE(site.record.has_value());
  }
  {
    // A record naming a variant this registry does not offer must not
    // break dispatch - it falls back to the default implementation.
    tune::TuningRecord stale;
    stale.key = tune::make_conv2d_forward_key(in.shape(), w.shape(), args);
    stale.variant = "simd_magic_v2";
    tune::Session::global().cache().put(stale);
    Workspace ws;
    Tensor out(expect.shape());
    tune::ConvSite site;
    tune::conv2d_forward_dispatch(in, w, nullptr, args, ws, out, &site);
    EXPECT_TRUE(bit_identical(expect, out));
    ASSERT_TRUE(site.resolved());
    EXPECT_EQ(site.baked->variant, "im2col");
    EXPECT_FALSE(site.record.has_value());
  }
}

TEST(TuneDispatch, TuneModeMeasuresOncePersistsAndWarmStarts) {
  SessionGuard guard;
  Rng rng(29);
  const scc::SCCConfig cfg{16, 24, 4, 0.5, 1};
  const scc::ChannelWindowMap map(cfg);
  const Tensor in = random_uniform(make_nchw(1, 16, 5, 5), rng);
  const Tensor w = random_uniform(Shape{24, map.group_width()}, rng);
  const Tensor expect = scc::scc_forward(in, w, nullptr, map);

  const std::string path = ::testing::TempDir() + "dsx_tune_warmstart.bin";
  std::remove(path.c_str());
  tune::Session::global().set_cache_path(path);
  tune::Session::global().set_tuner_options({.warmup = 0, .iters = 1});
  tune::Session::ScopedMode scope(tune::Mode::kTune);

  const int64_t before = tune::Session::global().tunes_performed();
  Workspace ws;
  Tensor out(scc::scc_output_shape(in.shape(), map));
  tune::SccSite site;
  tune::scc_forward_dispatch(in, w, nullptr, map, ws, out, &site);
  EXPECT_TRUE(bit_identical(expect, out));
  EXPECT_EQ(tune::Session::global().tunes_performed(), before + 1);
  ASSERT_TRUE(site.resolved());
  ASSERT_TRUE(site.record.has_value());
  EXPECT_GT(site.record->median_ns, 0.0);

  // Same problem, new site: the record is reused, nothing re-measured.
  Tensor out2(scc::scc_output_shape(in.shape(), map));
  tune::SccSite site2;
  tune::scc_forward_dispatch(in, w, nullptr, map, ws, out2, &site2);
  EXPECT_TRUE(bit_identical(expect, out2));
  EXPECT_EQ(tune::Session::global().tunes_performed(), before + 1);

  // "Second process": a fresh cache loads the autosaved file and the same
  // problem warm-starts without re-measuring.
  tune::Session::global().cache().clear();
  tune::Session::global().set_cache_path(path);  // reloads the file
  Tensor out3(scc::scc_output_shape(in.shape(), map));
  tune::SccSite site3;
  tune::scc_forward_dispatch(in, w, nullptr, map, ws, out3, &site3);
  EXPECT_TRUE(bit_identical(expect, out3));
  EXPECT_EQ(tune::Session::global().tunes_performed(), before + 1);
  ASSERT_TRUE(site3.record.has_value());
  EXPECT_EQ(site3.record->variant, site.record->variant);
  std::remove(path.c_str());
}

TEST(TuneSession, TornCacheFileDegradesToColdStart) {
  SessionGuard guard;
  const std::string path = ::testing::TempDir() + "dsx_tune_torn.bin";
  {
    std::ofstream os(path, std::ios::binary);
    os << "DSXU\x01garbage-that-is-not-a-valid-cache";
  }
  // Auto-load paths must warn and continue, not throw: a torn write would
  // otherwise permanently brick every startup that names this file.
  tune::Session::global().set_cache_path(path);
  EXPECT_EQ(tune::Session::global().cache().size(), 0);
  // The strict API still rejects it for callers who asked explicitly.
  tune::TuningCache strict;
  EXPECT_THROW(strict.load_file(path), Error);
  std::remove(path.c_str());
}

// ---- Tuner --------------------------------------------------------------------

TEST(TuneTuner, RecordsDefaultTimeAndPicksARegisteredCandidate) {
  SessionGuard guard;
  Rng rng(31);
  const scc::SCCConfig cfg{16, 24, 4, 0.5, 1};
  const scc::ChannelWindowMap map(cfg);
  const Tensor in = random_uniform(make_nchw(1, 16, 5, 5), rng);
  const Tensor w = random_uniform(Shape{24, map.group_width()}, rng);
  const tune::ProblemKey key = tune::make_scc_forward_key(in.shape(), map);

  const tune::Tuner tuner({.warmup = 0, .iters = 1});
  const tune::TuneResult result = tuner.tune_scc(key, in, w, nullptr, map);
  EXPECT_EQ(result.timings.size(),
            tune::KernelRegistry::global().scc_forward(key).size());
  EXPECT_GT(result.record.median_ns, 0.0);
  EXPECT_GT(result.record.default_ns, 0.0);
  EXPECT_TRUE(tune::KernelRegistry::global()
                  .find_scc(key, result.record.variant)
                  .has_value());
  // The winner is never slower than the measured default.
  EXPECT_LE(result.record.median_ns, result.record.default_ns * 1.0001);
}

// ---- CompiledModel integration ------------------------------------------------

std::unique_ptr<nn::Sequential> tiny_model(uint64_t seed) {
  Rng rng(seed);
  auto net = std::make_unique<nn::Sequential>();
  net->emplace<nn::Conv2d>(3, 16, 3, 1, 1, 1, rng, /*bias=*/true);
  net->emplace<nn::ReLU>();
  net->emplace<nn::SCCConv>(scc::SCCConfig{16, 32, 4, 0.5, 1}, rng,
                            /*bias=*/true);
  net->emplace<nn::ReLU>();
  net->emplace<nn::SCCConv>(scc::SCCConfig{32, 16, 4, 0.5, 2}, rng,
                            /*bias=*/true);
  return net;
}

TEST(TuneCompiledModel, TuneModeMatchesOffModeBitExact) {
  SessionGuard guard;
  const Shape image{3, 8, 8};
  serve::CompiledModel off(tiny_model(41), image, {.max_batch = 4});
  serve::CompiledModel tuned(tiny_model(41), image,
                             {.max_batch = 4,
                              .tuning = tune::Mode::kTune,
                              .tuner = {.warmup = 0, .iters = 1}});

  EXPECT_EQ(off.report().layers_tuned, 0);
  EXPECT_TRUE(off.report().tuned.empty());
  EXPECT_EQ(tuned.report().layers_tuned, 3);  // conv + 2 scc sites
  EXPECT_EQ(tuned.report().tuned.size(), 3u);
  for (const serve::TunedLayerChoice& c : tuned.report().tuned) {
    EXPECT_FALSE(c.variant.empty());
    EXPECT_GT(c.median_ns, 0.0);
    EXPECT_GT(c.default_ns, 0.0);
  }
  // The compile pass restores the session (mode off, options default).
  EXPECT_EQ(tune::Session::global().mode(), tune::Mode::kOff);

  Rng rng(43);
  for (int64_t batch : {1, 3, 4}) {
    const Tensor x = random_uniform(make_nchw(batch, 3, 8, 8), rng);
    EXPECT_TRUE(bit_identical(off.run(x), tuned.run(x)))
        << "batch " << batch;
  }
}

TEST(TuneCompiledModel, SecondCompileWarmStartsFromPersistedCache) {
  SessionGuard guard;
  const Shape image{3, 8, 8};
  const std::string path = ::testing::TempDir() + "dsx_tune_compile.bin";
  std::remove(path.c_str());

  const int64_t before = tune::Session::global().tunes_performed();
  serve::CompiledModel first(tiny_model(47), image,
                             {.max_batch = 4,
                              .tuning = tune::Mode::kTune,
                              .tuning_cache = path,
                              .tuner = {.warmup = 0, .iters = 1}});
  const int64_t cold = tune::Session::global().tunes_performed() - before;
  EXPECT_GT(cold, 0);
  EXPECT_EQ(first.report().layers_tuned, 3);

  // "Second process": wipe the in-memory cache, compile the same
  // architecture again against the persisted file - zero re-measurements.
  tune::Session::global().cache().clear();
  serve::CompiledModel second(tiny_model(47), image,
                              {.max_batch = 4,
                               .tuning = tune::Mode::kTune,
                               .tuning_cache = path,
                               .tuner = {.warmup = 0, .iters = 1}});
  EXPECT_EQ(tune::Session::global().tunes_performed(), before + cold);
  EXPECT_EQ(second.report().layers_tuned, 3);
  EXPECT_EQ(second.report().tuned.size(), first.report().tuned.size());

  Rng rng(53);
  const Tensor x = random_uniform(make_nchw(2, 3, 8, 8), rng);
  EXPECT_TRUE(bit_identical(first.run(x), second.run(x)));
  std::remove(path.c_str());
}

TEST(TuneCompiledModel, EmptyCachePathStaysInMemoryAndSessionIsRestored) {
  SessionGuard guard;
  const std::string stray = ::testing::TempDir() + "dsx_tune_stray.bin";
  std::remove(stray.c_str());
  // A previous compile (or operator) armed a session cache path; a compile
  // that asks for in-memory-only tuning must not write into it.
  tune::Session::global().set_cache_path(stray);
  serve::CompiledModel tuned(tiny_model(67), Shape{3, 8, 8},
                             {.max_batch = 2,
                              .tuning = tune::Mode::kTune,
                              .tuning_cache = "",
                              .tuner = {.warmup = 0, .iters = 1}});
  EXPECT_EQ(tuned.report().layers_tuned, 3);
  EXPECT_FALSE(std::ifstream(stray).is_open()) << "in-memory-only compile "
                                                  "wrote a cache file";
  // ...and the pass restores the session's own path afterwards.
  EXPECT_EQ(tune::Session::global().cache_path(), stray);
  std::remove(stray.c_str());
}

TEST(TuneCompiledModel, CachedModeAppliesRecordsWithoutMeasuring) {
  SessionGuard guard;
  const Shape image{3, 8, 8};
  const int64_t before = tune::Session::global().tunes_performed();
  serve::CompiledModel off(tiny_model(59), image, {.max_batch = 2});
  serve::CompiledModel cached(tiny_model(59), image,
                              {.max_batch = 2,
                               .tuning = tune::Mode::kCached});
  // Empty cache: everything resolves to the default, nothing measured.
  EXPECT_EQ(tune::Session::global().tunes_performed(), before);
  EXPECT_EQ(cached.report().layers_tuned, 3);
  EXPECT_TRUE(cached.report().tuned.empty());

  Rng rng(61);
  const Tensor x = random_uniform(make_nchw(2, 3, 8, 8), rng);
  EXPECT_TRUE(bit_identical(off.run(x), cached.run(x)));
}

}  // namespace
}  // namespace dsx
