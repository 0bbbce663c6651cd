// Tests for dsx::deploy: the versioned ModelStore (integrity-checked
// artifacts, warm-started compiles), the server's hot-swap/unregister paths
// (zero dropped requests under concurrent traffic), and the rollout ladder
// end to end - shadow -> canary (deterministic split) -> promote -> forced
// p99 regression -> guardrail auto-rollback.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/binary_io.hpp"
#include "common/check.hpp"
#include "deploy/deploy.hpp"
#include "models/mobilenet.hpp"
#include "serve/server.hpp"
#include "tensor/random.hpp"
#include "tensor/tensor_ops.hpp"
#include "tune/tune.hpp"
#include "testing_utils.hpp"

namespace fs = std::filesystem;

namespace dsx::deploy {
namespace {

constexpr int64_t kImage = 16;
constexpr int64_t kClasses = 10;

ArchSpec tiny_spec(uint64_t seed, double width_mult = 0.25) {
  ArchSpec spec;
  spec.family = "mobilenet";
  spec.num_classes = kClasses;
  spec.image = kImage;
  spec.scheme.scheme = models::ConvScheme::kDWSCC;
  spec.scheme.cg = 2;
  spec.scheme.co = 0.5;
  spec.scheme.width_mult = width_mult;
  spec.init_seed = seed;
  return spec;
}

std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir.string();
}

std::vector<Tensor> make_images(int64_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<Tensor> images;
  for (int64_t i = 0; i < count; ++i) {
    images.push_back(
        random_uniform(make_nchw(1, 3, kImage, kImage), rng, -1.0f, 1.0f));
  }
  return images;
}

using testing::bit_identical;

/// Per-image batch-1 answers of a store version compiled the same way the
/// rollout controller compiles it.
std::vector<Tensor> version_reference(const ModelStore& store,
                                      const std::string& model,
                                      const std::string& version,
                                      const std::vector<Tensor>& images) {
  auto compiled = store.compile(model, version);
  std::vector<Tensor> refs;
  for (const Tensor& img : images) refs.push_back(compiled->run(img));
  return refs;
}

// ---- request hashing -------------------------------------------------------

TEST(RequestHash, DeterministicAcrossCopies) {
  const auto images = make_images(4, 11);
  for (const Tensor& img : images) {
    const Tensor copy = img.clone();
    EXPECT_EQ(request_hash(img), request_hash(copy));
    const int bucket = request_bucket(img);
    EXPECT_GE(bucket, 0);
    EXPECT_LT(bucket, kRouteBuckets);
    EXPECT_EQ(bucket, request_bucket(copy));
  }
}

TEST(RequestHash, SpreadsDistinctImages) {
  const auto images = make_images(32, 12);
  int distinct = 0;
  for (size_t i = 1; i < images.size(); ++i) {
    if (request_hash(images[i]) != request_hash(images[0])) ++distinct;
  }
  EXPECT_GT(distinct, 25);  // FNV over float payloads must not collapse
}

// ---- arch specs ------------------------------------------------------------

TEST(ArchSpec, SerializationRoundTrip) {
  ArchSpec spec = tiny_spec(7, 0.5);
  spec.family = "vgg16";
  spec.num_classes = 42;
  spec.image = 32;
  spec.scheme.scc_impl = nn::SCCImpl::kGemmStack;
  std::stringstream blob;
  write_arch_spec(blob, spec);
  const ArchSpec back = read_arch_spec(blob);
  EXPECT_EQ(back.family, spec.family);
  EXPECT_EQ(back.num_classes, spec.num_classes);
  EXPECT_EQ(back.channels, spec.channels);
  EXPECT_EQ(back.image, spec.image);
  EXPECT_EQ(back.scheme.scheme, spec.scheme.scheme);
  EXPECT_EQ(back.scheme.cg, spec.scheme.cg);
  EXPECT_DOUBLE_EQ(back.scheme.co, spec.scheme.co);
  EXPECT_EQ(back.scheme.scc_impl, spec.scheme.scc_impl);
  EXPECT_DOUBLE_EQ(back.scheme.width_mult, spec.scheme.width_mult);
  EXPECT_EQ(back.init_seed, spec.init_seed);
}

TEST(ArchSpec, BuildRejectsUnknownFamily) {
  ArchSpec spec = tiny_spec(1);
  spec.family = "transformer";
  EXPECT_THROW(build_architecture(spec), Error);
}

TEST(ArchSpec, BuildsEveryKnownFamily) {
  for (const char* family : {"mobilenet", "resnet18", "vgg16"}) {
    ArchSpec spec = tiny_spec(1);
    spec.family = family;
    spec.image = 32;  // vgg needs >= 32
    auto net = build_architecture(spec);
    ASSERT_NE(net, nullptr) << family;
    EXPECT_GT(net->params().size(), 0u) << family;
  }
}

// ---- model store -----------------------------------------------------------

TEST(ModelStore, SaveLoadRoundTripRestoresPredictions) {
  ModelStore store(fresh_dir("store_roundtrip"));
  const ArchSpec spec = tiny_spec(21);
  auto net = build_architecture(spec);
  // Perturb away from the spec's init so the round trip provably carries the
  // weights through the checkpoint, not through the rebuild seed.
  for (nn::Param* p : net->params()) {
    for (int64_t i = 0; i < std::min<int64_t>(4, p->value.numel()); ++i) {
      p->value[i] += 0.25f;
    }
  }
  store.save_version("mnet", "v1", *net, spec);

  EXPECT_TRUE(store.has_version("mnet", "v1"));
  EXPECT_EQ(store.list_models(), std::vector<std::string>{"mnet"});
  EXPECT_EQ(store.list_versions("mnet"), std::vector<std::string>{"v1"});

  const VersionManifest m = store.manifest("mnet", "v1");
  EXPECT_EQ(m.model, "mnet");
  EXPECT_EQ(m.version, "v1");
  EXPECT_EQ(m.arch.family, "mobilenet");
  EXPECT_GT(m.weights.bytes, 0);
  EXPECT_FALSE(m.has_tuning_cache);

  auto loaded = store.load_model("mnet", "v1");
  const auto images = make_images(3, 22);
  for (const Tensor& img : images) {
    EXPECT_TRUE(bit_identical(loaded->forward(img, false),
                              net->forward(img, false)));
  }
}

TEST(ModelStore, VersionsAreImmutableAndNamesValidated) {
  ModelStore store(fresh_dir("store_immutable"));
  const ArchSpec spec = tiny_spec(23);
  auto net = build_architecture(spec);
  store.save_version("mnet", "v1", *net, spec);
  EXPECT_THROW(store.save_version("mnet", "v1", *net, spec), Error);
  EXPECT_THROW(store.save_version("../escape", "v1", *net, spec), Error);
  EXPECT_THROW(store.save_version("mnet", ".hidden", *net, spec), Error);
  EXPECT_THROW(store.save_version("", "v1", *net, spec), Error);
  // Read/remove paths validate names too - '..' must never escape the root.
  EXPECT_THROW(store.manifest("..", "v1"), Error);
  EXPECT_THROW(store.remove_version("..", "anything"), Error);
  EXPECT_THROW(store.list_versions(".."), Error);
  EXPECT_THROW(store.load_model("mnet", "../../v1"), Error);
  // An unbuildable spec is rejected at SAVE time - the store must never
  // publish weights behind an architecture no reader can reconstruct.
  ArchSpec bad = spec;
  bad.family = "transformer";
  EXPECT_THROW(store.save_version("mnet", "v9", *net, bad), Error);
  EXPECT_FALSE(store.has_version("mnet", "v9"));
}

TEST(ModelStore, RejectsCorruptedAndTruncatedArtifacts) {
  ModelStore store(fresh_dir("store_corrupt"));
  const ArchSpec spec = tiny_spec(25);
  auto net = build_architecture(spec);
  const std::string dir = store.save_version("mnet", "v1", *net, spec);
  const fs::path weights = fs::path(dir) / "weights.bin";

  // Flip one byte in the middle of the weights payload: size unchanged, so
  // only the checksum can catch it.
  {
    std::fstream f(weights, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(fs::file_size(weights) / 2));
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(-1, std::ios::cur);
    byte = static_cast<char>(byte ^ 0x5a);
    f.write(&byte, 1);
  }
  EXPECT_THROW(store.manifest("mnet", "v1"), Error);
  EXPECT_THROW(store.load_model("mnet", "v1"), Error);

  // Truncation: restore a fresh version, then chop the weights file.
  store.save_version("mnet", "v2", *net, spec);
  const fs::path w2 = fs::path(store.root()) / "mnet" / "v2" / "weights.bin";
  fs::resize_file(w2, fs::file_size(w2) / 2);
  EXPECT_THROW(store.manifest("mnet", "v2"), Error);

  // Manifest truncation is rejected too.
  store.save_version("mnet", "v3", *net, spec);
  const fs::path m3 = fs::path(store.root()) / "mnet" / "v3" / "manifest.bin";
  fs::resize_file(m3, fs::file_size(m3) - 6);
  EXPECT_THROW(store.manifest("mnet", "v3"), Error);
}

TEST(ModelStore, RemoveVersionDeletesAndPrunes) {
  ModelStore store(fresh_dir("store_remove"));
  const ArchSpec spec = tiny_spec(27);
  auto net = build_architecture(spec);
  store.save_version("mnet", "v1", *net, spec);
  store.save_version("mnet", "v2", *net, spec);
  store.remove_version("mnet", "v1");
  EXPECT_FALSE(store.has_version("mnet", "v1"));
  EXPECT_TRUE(store.has_version("mnet", "v2"));
  store.remove_version("mnet", "v2");
  EXPECT_TRUE(store.list_models().empty());
  EXPECT_THROW(store.remove_version("mnet", "v2"), Error);
}

TEST(ModelStore, CompileWarmStartsFromStoredTuningCache) {
  ModelStore store(fresh_dir("store_tune"));
  const ArchSpec spec = tiny_spec(29);

  // Measure once (kTune) so the session cache holds records for this
  // architecture's problems, then persist those records with the version.
  {
    auto net = build_architecture(spec);
    serve::CompileOptions copts;
    copts.max_batch = 4;
    copts.tuning = tune::Mode::kTune;
    copts.tuner = {.warmup = 1, .iters = 3};
    serve::CompiledModel measured(std::move(net), spec.image_shape(), copts);
    ASSERT_GT(measured.report().layers_tuned, 0);
  }
  auto net = build_architecture(spec);
  store.save_version("mnet", "v1", *net, spec,
                     &tune::Session::global().cache());
  ASSERT_TRUE(store.manifest("mnet", "v1").has_tuning_cache);

  // Forget the in-memory records so the warm start provably comes from the
  // stored artifact, then compile through the store: zero measurements.
  tune::Session::global().cache().clear();
  const int64_t tunes_before = tune::Session::global().tunes_performed();
  auto compiled =
      store.compile("mnet", "v1", serve::CompileOptions{.max_batch = 4});
  EXPECT_EQ(tune::Session::global().tunes_performed(), tunes_before);
  EXPECT_GT(compiled->report().layers_tuned, 0);
  EXPECT_EQ(compiled->options().tuning, tune::Mode::kCached);

  // The stored artifact must remain byte-identical (compile never writes
  // back into the immutable version).
  EXPECT_NO_THROW(store.manifest("mnet", "v1"));
}

TEST(ModelStore, StaleTuningCacheFallsBackToColdCompile) {
  ModelStore store(fresh_dir("store_stale_tune"));
  const ArchSpec spec = tiny_spec(31);
  const tune::TuningCache empty;
  store.save_version("mnet", "v1", *build_architecture(spec), spec, &empty);

  // Replace the stored tuning.bin with a file in the previous cache format
  // (v2) and re-fingerprint it, as a version published by an older build
  // looks: integrity intact, format stale. The tuning entry is the last
  // thing in the manifest, so its size and checksum are the final 16 bytes.
  const std::string tuning = store.tuning_cache_path("mnet", "v1");
  {
    std::ofstream os(tuning, std::ios::binary | std::ios::trunc);
    os.write("DSXU", 4);
    io::write_i64(os, 2);  // cache format version
    io::write_i64(os, 0);  // no records
  }
  const fs::path manifest = fs::path(store.root()) / "mnet" / "v1" /
                            "manifest.bin";
  {
    std::fstream os(manifest, std::ios::binary | std::ios::in |
                                  std::ios::out);
    os.seekp(-16, std::ios::end);
    io::write_i64(os, static_cast<int64_t>(fs::file_size(tuning)));
    io::write_u64(os, fnv1a64_file(tuning));
  }
  ASSERT_TRUE(store.manifest("mnet", "v1").has_tuning_cache);

  // The stale cache is ignored, not fatal: the compile runs cold in the
  // caller's mode and serves the stored weights.
  auto compiled =
      store.compile("mnet", "v1", serve::CompileOptions{.max_batch = 2});
  EXPECT_EQ(compiled->options().tuning, tune::Mode::kOff);
  serve::CompiledModel reference(build_architecture(spec), spec.image_shape(),
                                 serve::CompileOptions{.max_batch = 2});
  const Tensor img = make_images(1, 37).front();
  EXPECT_TRUE(bit_identical(compiled->run(img), reference.run(img)));
}

// ---- server hot-swap / unregister ------------------------------------------

std::unique_ptr<serve::CompiledModel> compile_spec(const ArchSpec& spec,
                                                   int64_t max_batch = 4) {
  return std::make_unique<serve::CompiledModel>(
      build_architecture(spec), spec.image_shape(),
      serve::CompileOptions{.max_batch = max_batch});
}

TEST(InferenceServer, UnregisterModelFreesTheName) {
  serve::InferenceServer server;
  server.register_model("m", compile_spec(tiny_spec(31)));
  const auto images = make_images(2, 32);
  EXPECT_EQ(server.infer("m", images[0]).numel(), kClasses);

  server.unregister_model("m");
  EXPECT_FALSE(server.has_model("m"));
  EXPECT_THROW(server.submit("m", images[0]), Error);
  EXPECT_THROW(server.unregister_model("m"), Error);

  // The name is immediately reusable.
  server.register_model("m", compile_spec(tiny_spec(33)));
  EXPECT_EQ(server.infer("m", images[1]).numel(), kClasses);
}

TEST(InferenceServer, UnregisterAnswersEveryAcceptedRequest) {
  serve::InferenceServer server;
  server.register_model("m", compile_spec(tiny_spec(35)),
                        {.max_batch = 4,
                         .max_delay = std::chrono::microseconds(50000)});
  const auto images = make_images(6, 36);
  std::vector<std::future<Tensor>> futures;
  for (const Tensor& img : images) futures.push_back(server.submit("m", img));
  server.unregister_model("m");  // drains: answers all six
  for (auto& f : futures) EXPECT_EQ(f.get().numel(), kClasses);
}

TEST(InferenceServer, HotSwapSwitchesModelAtomically) {
  const ArchSpec spec_a = tiny_spec(41);
  const ArchSpec spec_b = tiny_spec(42);
  auto a = compile_spec(spec_a);
  auto b = compile_spec(spec_b);
  const auto images = make_images(4, 43);
  std::vector<Tensor> ref_a, ref_b;
  {
    auto ra = compile_spec(spec_a);
    auto rb = compile_spec(spec_b);
    for (const Tensor& img : images) {
      ref_a.push_back(ra->run(img));
      ref_b.push_back(rb->run(img));
    }
  }
  ASSERT_GT(max_abs_diff(ref_a[0], ref_b[0]), 1e-3f);

  serve::InferenceServer server;
  server.register_model("m", std::move(a));
  for (size_t i = 0; i < images.size(); ++i) {
    EXPECT_TRUE(bit_identical(server.infer("m", images[i]), ref_a[i]));
  }
  const serve::SwapReport report = server.swap_model("m", std::move(b));
  EXPECT_GE(report.drained, 0);
  for (size_t i = 0; i < images.size(); ++i) {
    EXPECT_TRUE(bit_identical(server.infer("m", images[i]), ref_b[i]));
  }
  EXPECT_THROW(server.swap_model("nope", compile_spec(spec_a)), Error);
}

TEST(InferenceServer, HotSwapUnderConcurrentTrafficDropsNothing) {
  // 4 client threads hammer one name while the main thread hot-swaps the
  // model repeatedly (including onto a 2-replica sharded fleet). Contract:
  // no submit fails, every request is answered exactly once, and every
  // answer is one of the two versions' outputs - never garbage.
  const ArchSpec spec_a = tiny_spec(45);
  const ArchSpec spec_b = tiny_spec(46);
  const auto images = make_images(4, 47);
  std::vector<Tensor> ref_a, ref_b;
  {
    auto ra = compile_spec(spec_a);
    auto rb = compile_spec(spec_b);
    for (const Tensor& img : images) {
      ref_a.push_back(ra->run(img));
      ref_b.push_back(rb->run(img));
    }
  }

  serve::InferenceServer server;
  server.register_model("m", compile_spec(spec_a),
                        {.max_delay = std::chrono::microseconds(300)});

  constexpr int kClients = 4;
  constexpr int kPerClient = 40;
  std::atomic<int> answered{0};
  std::atomic<int> wrong{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kPerClient; ++r) {
        const size_t j = static_cast<size_t>(c + r) % images.size();
        const Tensor y = server.infer("m", images[j]);
        if (!bit_identical(y, ref_a[j]) && !bit_identical(y, ref_b[j])) {
          wrong.fetch_add(1);
        }
        answered.fetch_add(1);
      }
    });
  }
  // Swap back and forth while traffic flows; one swap lands on a sharded
  // fleet to cover the ReplicaSet path.
  for (int s = 0; s < 4; ++s) {
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    const ArchSpec& spec = (s % 2 == 0) ? spec_b : spec_a;
    serve::BatcherOptions opts;
    opts.max_delay = std::chrono::microseconds(300);
    if (s == 2) opts.replicas = 2;
    server.swap_model("m", compile_spec(spec), opts);
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(answered.load(), kClients * kPerClient);
  EXPECT_EQ(wrong.load(), 0);
}

// ---- rollout ladder end to end ---------------------------------------------

TEST(Rollout, ShadowCanaryPromoteThenGuardrailRollback) {
  ModelStore store(fresh_dir("store_rollout"));

  // v1/v2: same tiny design point, different weights. v3: a 2.0-width
  // DW+PW variant of the same family - dense pointwise convs (the baseline
  // SCC replaces), ~128x the pointwise MACs: a p99 regression heavy enough
  // to clear the guardrail ratio even when CI contention inflates the
  // primary's own tail latency. Its cost sits in conv2d, so a faster SCC
  // kernel does not shrink the regression.
  const ArchSpec spec_v1 = tiny_spec(51);
  const ArchSpec spec_v2 = tiny_spec(52);
  ArchSpec spec_v3 = tiny_spec(53, /*width_mult=*/2.0);
  spec_v3.scheme.scheme = models::ConvScheme::kDWPW;

  // Measure v1's problems once and persist the records with v2, so staging
  // v2 warm-starts (v1 and v2 share every problem shape).
  {
    auto net = build_architecture(spec_v1);
    serve::CompileOptions copts;
    copts.max_batch = 4;
    copts.tuning = tune::Mode::kTune;
    copts.tuner = {.warmup = 1, .iters = 3};
    serve::CompiledModel measured(std::move(net), spec_v1.image_shape(),
                                  copts);
  }
  {
    auto v1 = build_architecture(spec_v1);
    store.save_version("mnet", "v1", *v1, spec_v1);
    auto v2 = build_architecture(spec_v2);
    store.save_version("mnet", "v2", *v2, spec_v2,
                       &tune::Session::global().cache());
    auto v3 = build_architecture(spec_v3);
    store.save_version("mnet", "v3", *v3, spec_v3);
  }

  const auto images = make_images(24, 54);
  const auto ref_v1 = version_reference(store, "mnet", "v1", images);
  const auto ref_v2 = version_reference(store, "mnet", "v2", images);

  serve::InferenceServer server;
  RolloutOptions ropts;
  ropts.shadow_fraction = 0.5;  // plenty of mirrors from 24 images
  ropts.canary_fraction = 0.25;
  // min_samples = 40 keeps the guardrail UNARMED through v2's (healthy)
  // shadow+canary phases (~24 candidate answers) and arms it only once the
  // deliberately slow v3 has enough samples that its p99 is dominated by
  // real execution cost, not a single scheduler hiccup.
  ropts.guardrail_min_samples = 40;
  ropts.guardrail_max_p99_ratio = 3.0;
  ropts.guardrail_check_every = 8;
  RolloutController rollout(server, store, ropts);

  int64_t accepted = 0;  // every request the ladder accepts must answer
  const auto drive = [&](int rounds) {
    for (int r = 0; r < rounds; ++r) {
      for (const Tensor& img : images) {
        (void)rollout.infer("mnet", img);  // .get() inside: answered or throw
        ++accepted;
      }
    }
  };

  // --- live: v1 only -------------------------------------------------------
  rollout.deploy("mnet", "v1", serve::CompileOptions{.max_batch = 4});
  for (size_t i = 0; i < images.size(); ++i) {
    EXPECT_TRUE(bit_identical(rollout.infer("mnet", images[i]), ref_v1[i]));
    ++accepted;
  }

  // --- stage v2: shadow ----------------------------------------------------
  const int64_t tunes_before = tune::Session::global().tunes_performed();
  tune::Session::global().cache().clear();  // force the store artifact path
  rollout.stage("mnet", "v2", serve::CompileOptions{.max_batch = 4});
  // Warm start: staging compiled v2 without a single measurement, yet the
  // plan resolved its call sites from the stored records.
  EXPECT_EQ(tune::Session::global().tunes_performed(), tunes_before);
  EXPECT_GT(server.stats("mnet@v2").compile.layers_tuned, 0);

  RolloutStatus status = rollout.status("mnet");
  EXPECT_EQ(status.phase, Phase::kShadow);
  EXPECT_EQ(status.candidate_version, "v2");

  // Shadowed traffic: the caller's reply is ALWAYS v1's output.
  for (size_t i = 0; i < images.size(); ++i) {
    EXPECT_TRUE(bit_identical(rollout.infer("mnet", images[i]), ref_v1[i]));
    ++accepted;
  }
  rollout.drain_shadow_compares();
  status = rollout.status("mnet");
  EXPECT_GT(status.shadow.mirrored, 0);
  EXPECT_EQ(status.shadow.compared, status.shadow.mirrored);
  EXPECT_EQ(status.shadow.errors, 0);
  // v1 != v2, so the comparator must flag disagreement - shadow's whole job.
  EXPECT_GT(status.shadow.mismatches, 0);
  EXPECT_GT(status.shadow.max_abs_diff, 0.0);

  // --- canary at 25%: deterministic split ----------------------------------
  rollout.advance_to_canary("mnet");
  EXPECT_DOUBLE_EQ(rollout.status("mnet").split_fraction, 0.25);
  int canary_routed = 0;
  for (int round = 0; round < 2; ++round) {
    for (size_t i = 0; i < images.size(); ++i) {
      const bool expect_candidate = request_bucket(images[i]) < 2500;
      const Tensor y = rollout.infer("mnet", images[i]);
      ++accepted;
      // The same image lands on the same side every round (deterministic
      // hash), and each side's answer is bit-identical to its version.
      if (expect_candidate) {
        EXPECT_TRUE(bit_identical(y, ref_v2[i])) << "image " << i;
        ++canary_routed;
      } else {
        EXPECT_TRUE(bit_identical(y, ref_v1[i])) << "image " << i;
      }
    }
  }
  EXPECT_GT(canary_routed, 0);

  // --- promote: v2 becomes live, v1 drains ---------------------------------
  const RolloutStatus pre_promote = rollout.status("mnet");
  rollout.promote("mnet");
  status = rollout.status("mnet");
  EXPECT_EQ(status.phase, Phase::kLive);
  EXPECT_EQ(status.live_version, "v2");
  EXPECT_EQ(status.promotions, 1);
  EXPECT_FALSE(server.has_model("mnet@v2"));  // alias consumed by the swap
  for (size_t i = 0; i < images.size(); ++i) {
    EXPECT_TRUE(bit_identical(rollout.infer("mnet", images[i]), ref_v2[i]));
    ++accepted;
  }

  // The healthy v2 rollout must have finished BELOW the guardrail's arming
  // threshold - otherwise the phases above were themselves at (noise) risk
  // of an auto-rollback and this test's sizing needs revisiting.
  ASSERT_LT(pre_promote.candidate_requests + pre_promote.candidate_errors,
            ropts.guardrail_min_samples);

  // --- stage v3 (DW+PW x2.0), canary, and watch the guardrail fire --------
  rollout.stage("mnet", "v3", serve::CompileOptions{.max_batch = 4});
  // 100% canary: every request routes to the slow candidate, so it crosses
  // guardrail_min_samples fastest (the deterministic 25% split was already
  // verified on v2). Every reply still arrives; once the guardrail rolls
  // back mid-drive, later submits just go back to the primary.
  rollout.advance_to_canary("mnet", 1.0);
  drive(static_cast<int>(ropts.guardrail_min_samples) /
            static_cast<int>(images.size()) + 2);
  rollout.check_guardrail("mnet");
  status = rollout.status("mnet");
  EXPECT_TRUE(status.rolled_back);
  EXPECT_NE(status.rollback_reason.find("guardrail"), std::string::npos);
  EXPECT_EQ(status.phase, Phase::kLive);
  EXPECT_EQ(status.live_version, "v2");
  EXPECT_FALSE(server.has_model("mnet@v3"));

  // Post-rollback: ALL traffic (including former canary buckets) is v2.
  for (size_t i = 0; i < images.size(); ++i) {
    EXPECT_TRUE(bit_identical(rollout.infer("mnet", images[i]), ref_v2[i]));
    ++accepted;
  }
  // Exactly-once across the whole ladder: every accepted request produced
  // exactly one reply (each infer() above returned or threw; none threw).
  EXPECT_GT(accepted, 0);
}

TEST(Rollout, ManualRollbackDropsCandidate) {
  ModelStore store(fresh_dir("store_manual_rb"));
  const ArchSpec spec_v1 = tiny_spec(61);
  const ArchSpec spec_v2 = tiny_spec(62);
  {
    auto v1 = build_architecture(spec_v1);
    store.save_version("mnet", "v1", *v1, spec_v1);
    auto v2 = build_architecture(spec_v2);
    store.save_version("mnet", "v2", *v2, spec_v2);
  }
  serve::InferenceServer server;
  RolloutController rollout(server, store);
  rollout.deploy("mnet", "v1");
  rollout.stage("mnet", "v2");
  EXPECT_THROW(rollout.stage("mnet", "v2"), Error);  // one candidate at a time
  rollout.rollback("mnet");
  const RolloutStatus status = rollout.status("mnet");
  EXPECT_TRUE(status.rolled_back);
  EXPECT_EQ(status.rollback_reason, "manual");
  EXPECT_EQ(status.phase, Phase::kLive);
  EXPECT_FALSE(server.has_model("mnet@v2"));
  // And the ladder is reusable: stage again after rollback.
  rollout.stage("mnet", "v2");
  EXPECT_EQ(rollout.status("mnet").phase, Phase::kShadow);
}

TEST(Rollout, AdoptManagesInProcessModels) {
  ModelStore store(fresh_dir("store_adopt"));
  serve::InferenceServer server;
  server.register_model("m", compile_spec(tiny_spec(71)));
  RolloutController rollout(server, store);
  EXPECT_THROW(rollout.adopt("ghost", "v0"), Error);
  rollout.adopt("m", "v0");
  EXPECT_EQ(rollout.status("m").live_version, "v0");
  const auto images = make_images(1, 72);
  EXPECT_EQ(rollout.infer("m", images[0]).numel(), kClasses);
}

}  // namespace
}  // namespace dsx::deploy
