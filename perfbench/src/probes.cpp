#include "probes.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <vector>

#include "deploy/model_store.hpp"
#include "device/launch.hpp"
#include "device/thread_pool.hpp"
#include "net/residency.hpp"
#include "serve/server.hpp"
#include "simd/gemm.hpp"
#include "tensor/random.hpp"
#include "tensor/workspace.hpp"

namespace perfbench {

namespace {

const char* family_of(const std::vector<dsx::device::KernelRecord>& records) {
  for (const char* f : {"scc_forward", "dw_forward", "relu_fwd"}) {
    for (const auto& r : records) {
      if (r.name == f) return f;
    }
  }
  for (const auto& r : records) {
    if (r.name.rfind("conv2d", 0) == 0 || r.name.rfind("im2col", 0) == 0) {
      return "conv2d";
    }
  }
  for (const auto& r : records) {
    if (r.name == "gemm") return "gemm";
  }
  return "other";
}

struct Leaf {
  dsx::nn::Layer* layer;
  dsx::Tensor input;  // owned copy of the layer's real input
  const char* family;
  int64_t launches;
  double flops;
  std::vector<double> ms;
};

/// Walks `seq` depth-first, running every leaf once to capture its input,
/// launches and output.
dsx::Tensor collect_leaves(dsx::nn::Sequential& seq, dsx::Tensor x,
                           dsx::Workspace& ws, std::vector<Leaf>& out) {
  for (size_t i = 0; i < seq.size(); ++i) {
    dsx::nn::Layer& layer = seq.layer(i);
    if (auto* inner = dynamic_cast<dsx::nn::Sequential*>(&layer)) {
      x = collect_leaves(*inner, std::move(x), ws, out);
      continue;
    }
    Leaf leaf{&layer, x, "other", 0, 0.0, {}};
    dsx::Tensor y;
    {
      dsx::device::KernelProfileScope profile;
      ws.reset();
      y = layer.forward_inference(leaf.input, ws).clone();
      const auto records = profile.records();
      leaf.family = family_of(records);
      leaf.launches = static_cast<int64_t>(records.size());
      for (const auto& r : records) leaf.flops += r.total_flops();
    }
    out.push_back(std::move(leaf));
    x = std::move(y);
  }
  return x;
}

}  // namespace

KernelBreakdown time_layers(dsx::nn::Sequential& model,
                            const dsx::Tensor& input, int passes,
                            SpanLog* spans) {
  dsx::Workspace ws;
  std::vector<Leaf> leaves;
  collect_leaves(model, input.clone(), ws, leaves);
  for (int p = 0; p < passes; ++p) {
    const int64_t pass_start = now_ns();
    std::vector<std::pair<int64_t, int64_t>> calls;
    for (Leaf& leaf : leaves) {
      ws.reset();
      const int64_t t0 = now_ns();
      (void)leaf.layer->forward_inference(leaf.input, ws);
      const int64_t t1 = now_ns();
      leaf.ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
      calls.emplace_back(t0, t1);
    }
    if (spans != nullptr) {
      const uint64_t id = spans->add("kern.pass", pass_start, now_ns());
      for (size_t i = 0; i < leaves.size(); ++i) {
        spans->add(leaves[i].family, calls[i].first, calls[i].second, id);
      }
    }
  }
  KernelBreakdown out;
  for (const char* f : kFamilies) out.families[f];
  for (const Leaf& leaf : leaves) {
    const double ms = median(leaf.ms);
    KernelBreakdown::Family& fam = out.families[leaf.family];
    fam.ms += ms;
    fam.calls += leaf.launches;
    fam.flops += leaf.flops;
    out.layer_sum_ms += ms;
    out.launches += leaf.launches;
  }
  return out;
}

double median_run_ms(dsx::serve::CompiledModel& plan, const dsx::Tensor& batch,
                     int reps) {
  (void)plan.run(batch);
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const int64_t t0 = now_ns();
    (void)plan.run(batch);
    ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
  }
  return median(ms);
}

int64_t launches_per_run(dsx::serve::CompiledModel& plan,
                         const dsx::Tensor& batch) {
  dsx::device::KernelProfileScope profile;
  (void)plan.run(batch);
  return static_cast<int64_t>(profile.records().size());
}

double handoff_us(int reps) {
  dsx::device::ThreadPool& pool = dsx::device::ThreadPool::global();
  const int64_t chunks = pool.size();
  std::vector<double> us;
  for (int i = 0; i < reps; ++i) {
    const int64_t t0 = now_ns();
    pool.run_chunks(chunks, [](int64_t, int64_t) {});
    us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  }
  return median(us);
}

double gemm_peak_gflops() {
  constexpr int64_t n = 256;
  dsx::Rng rng(7);
  const dsx::Tensor a = dsx::random_uniform(dsx::Shape{n, n}, rng);
  const dsx::Tensor b = dsx::random_uniform(dsx::Shape{n, n}, rng);
  dsx::Tensor c(dsx::Shape{n, n});
  std::vector<double> s;
  for (int i = 0; i < 41; ++i) {
    const int64_t t0 = now_ns();
    dsx::simd::gemm(false, false, n, n, n, 1.0f, a.data(), n, b.data(), n,
                    0.0f, c.data(), n);
    s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  return 2.0 * n * n * n / median(s) * 1e-9;
}

double copy_gbs() {
  constexpr size_t bytes = 32u << 20;
  std::vector<char> src(bytes, 1);
  std::vector<char> dst(bytes, 0);
  std::vector<double> s;
  for (int i = 0; i < 9; ++i) {
    src[static_cast<size_t>(i)] = static_cast<char>(i);
    const int64_t t0 = now_ns();
    std::memcpy(dst.data(), src.data(), bytes);
    s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  return 2.0 * static_cast<double>(bytes) / median(s) * 1e-9;
}

// ---- windows over exported counters -----------------------------------------

namespace {

int64_t global_busy_ns() {
  for (const auto& p : dsx::device::ThreadPool::pool_stats()) {
    if (p.name == "global") return p.busy_ns;
  }
  return 0;
}

}  // namespace

void PoolWindow::open() {
  t0_ns_ = now_ns();
  busy0_ns_ = global_busy_ns();
}

void PoolWindow::close() {
  wall_ns_ += now_ns() - t0_ns_;
  busy_ns_ += global_busy_ns() - busy0_ns_;
}

double PoolWindow::busy_frac() const {
  const double wall = static_cast<double>(wall_ns_) *
                      dsx::device::ThreadPool::global().size();
  return wall > 0.0 ? static_cast<double>(busy_ns_) / wall : 0.0;
}

HistWindow::HistWindow(std::string name) : name_(std::move(name)) {}

void HistWindow::open() {
  start_ = dsx::obs::Registry::global().merged_histogram(name_, {});
}

void HistWindow::close() {
  const auto now = dsx::obs::Registry::global().merged_histogram(name_, {});
  sum_.count += now.count - start_.count;
  sum_.sum += now.sum - start_.sum;
  // Lifetime extrema: delta_snapshot only clamps quantiles to them.
  sum_.min = std::min(sum_.min, now.min);
  sum_.max = std::max(sum_.max, now.max);
  for (size_t b = 0; b < sum_.buckets.size(); ++b) {
    sum_.buckets[b] += std::max<int64_t>(now.buckets[b] - start_.buckets[b], 0);
  }
}

dsx::device::LogHistogram::Snapshot HistWindow::total() const {
  return dsx::device::LogHistogram::delta_snapshot(
      sum_, dsx::device::LogHistogram::BucketSnapshot{});
}

// ---- deploy, residency, tune --------------------------------------------------

double deploy_compile_ms(const dsx::deploy::ArchSpec& spec,
                         const std::string& dir) {
  std::filesystem::remove_all(dir);
  double result = 0.0;
  {
    dsx::deploy::ModelStore store(dir);
    auto net = dsx::deploy::build_architecture(spec);
    store.save_version("m", "v1", *net, spec);
    std::vector<double> ms;
    for (int i = 0; i < 3; ++i) {
      const int64_t t0 = now_ns();
      auto plan = store.compile("m", "v1", default_compile());
      ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    }
    result = median(ms);
  }
  std::filesystem::remove_all(dir);
  return result;
}

ResidencyCycle quiet_residency_cycle(uint64_t weight_seed,
                                     const std::string& dir, int rounds) {
  std::filesystem::remove_all(dir);
  ResidencyCycle out;
  {
    dsx::deploy::ModelStore store(dir);
    const std::vector<std::string> names = save_design_points(store, weight_seed);
    dsx::serve::InferenceServer server;
    dsx::net::ResidencyOptions opts;
    opts.budget_floats = two_model_budget(store, names);
    opts.compile = default_compile();
    opts.batcher.max_batch = kMaxBatch;
    dsx::net::ResidencyManager residency(server, store, opts);
    for (const std::string& name : names) residency.add_model(name, "v1");
    HistWindow faults("dsx_residency_fault_latency_us");
    faults.open();
    for (int r = 0; r < rounds; ++r) {
      for (const std::string& name : names) residency.ensure_resident(name);
    }
    faults.close();
    const auto d = faults.total();
    const dsx::net::ResidencyStats st = residency.stats();
    out.faults = st.faults;
    out.evictions = st.evictions;
    out.fault_ms_p50 = d.p50 * 1e-3;
    out.fault_ms_p99 = d.p99 * 1e-3;
    server.stop();
  }
  std::filesystem::remove_all(dir);
  return out;
}

TuneProbe tune_probe(const dsx::deploy::ArchSpec& spec,
                     dsx::serve::CompiledModel& off_plan,
                     const dsx::Tensor& batch8, int reps) {
  TuneProbe out;
  dsx::serve::CompileOptions opts = default_compile();
  opts.tuning = dsx::tune::Mode::kTune;
  const int64_t t0 = now_ns();
  dsx::serve::CompiledModel tuned(dsx::deploy::build_architecture(spec),
                                  spec.image_shape(), opts);
  out.compile_ms = static_cast<double>(now_ns() - t0) * 1e-6;
  (void)tuned.run(batch8);
  std::vector<double> off_ms;
  std::vector<double> tuned_ms;
  for (int i = 0; i < reps; ++i) {
    for (auto* plan : {&off_plan, &tuned}) {
      const int64_t start = now_ns();
      (void)plan->run(batch8);
      (plan == &tuned ? tuned_ms : off_ms)
          .push_back(static_cast<double>(now_ns() - start));
    }
  }
  out.tuned_over_off = median(off_ms) / median(tuned_ms);
  return out;
}

}  // namespace perfbench
