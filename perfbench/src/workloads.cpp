#include "workloads.hpp"

#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>

#include "deploy/model_store.hpp"
#include "device/thread_pool.hpp"
#include "net/ingress.hpp"
#include "net/residency.hpp"
#include "probes.hpp"
#include "serve/server.hpp"
#include "tensor/random.hpp"
#include "wire.hpp"

namespace perfbench {

namespace {

/// End-to-end metrics every workload reports, in output order.
const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},
    {"lat_p50_ms", "ms"},
    {"peak_p50_ms", "ms"},
    {"ok_frac", "ratio"},
};

/// Per-layer metrics every traced run reports, in output order. A layer a
/// workload does not run reports 0.
const std::vector<std::pair<std::string, std::string>> kPerLayer = [] {
  std::vector<std::pair<std::string, std::string>> m = {
      {"net.wire_tax_us_p50", "us"},
      {"net.probe_rtt_us_p50", "us"},
      {"net.split_miss_frac", "ratio"},
      {"net.frames", "count"},
      {"net.rejected", "count"},
      {"net.framing_errors", "count"},
      {"net.backpressure_pauses", "count"},
      {"serve.queue_wait_us_p50", "us"},
      {"serve.queue_wait_us_p99", "us"},
      {"serve.batch_size_mean", "req/batch"},
      {"serve.batches", "count"},
      {"serve.server_lat_us_p50", "us"},
      {"serve.server_lat_us_p99", "us"},
      {"serve.sat_qps", "1/s"},
      {"serve.served_over_raw", "ratio"},
      {"device.handoff_us", "us"},
      {"device.launches_per_run", "count"},
      {"device.pool_busy_frac", "ratio"},
      {"device.scale_4t_over_1t", "ratio"},
  };
  for (const char* f : kFamilies) {
    const std::string k = std::string("kern.") + f;
    m.push_back({k + ".ms_per_run", "ms"});
    m.push_back({k + ".calls", "count"});
    m.push_back({k + ".gflops", "GFLOP/s"});
  }
  const std::vector<std::pair<std::string, std::string>> rest = {
      {"kern.other.ms_per_run", "ms"},
      {"kern.sum_over_run", "ratio"},
      {"kern.gemm_peak_gflops", "GFLOP/s"},
      {"kern.copy_gbs", "GB/s"},
      {"tune.compile_ms", "ms"},
      {"tune.tuned_over_off", "ratio"},
      {"deploy.compile_ms", "ms"},
      {"residency.faults", "count"},
      {"residency.evictions", "count"},
      {"residency.fault_ms_p50", "ms"},
      {"residency.fault_ms_p99", "ms"},
      {"obs.trace_overhead", "ratio"},
      {"obs.spans", "count"},
      {"client.lat_p99_ms", "ms"},
      {"client.peak_p99_ms", "ms"},
      {"gen.lag_ms_p99", "ms"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}();

// Open-loop rates. Both stay below the capacity the shared host falls to in
// its slow spells (about 450/s, against 1200-2100/s closed-loop normally):
// near capacity, queueing turns a host slowdown into a 5-15x latency jump.
// `base` runs requests mostly as batch 1; at `peak` small batches form.
constexpr double kBaseRate = 200.0;
constexpr double kPeakRate = 400.0;
constexpr int kRounds = 20;
constexpr int kConnections = 4;
constexpr int kClosedWindow = 4;
constexpr int kImages = 32;
constexpr int kPicks = 4096;
// churn_wire: share of requests aimed at the third (cold) model.
constexpr double kColdShare = 0.1;

using Values = std::map<std::string, double>;

void emit(Report& report,
          const std::vector<std::pair<std::string, std::string>>& schema,
          const Values& values) {
  for (const auto& [name, unit] : schema) {
    const auto it = values.find(name);
    report.add(name, it == values.end() ? 0.0 : it->second, unit);
  }
}

std::string format(const char* fmt, double a, double b, double c, double d) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c, d);
  return buf;
}

void note_timing(Report& report, const char* what,
                 const std::vector<double>& ms) {
  report.note(std::string(what) + ": " +
              format("p50 %.4f ms  p99 %.4f ms  max %.4f ms  n=%.0f",
                     quantile(ms, 0.5), quantile(ms, 0.99), quantile(ms, 1.0),
                     static_cast<double>(ms.size())));
}

double ok_frac(const Report& report) {
  return 1.0 - static_cast<double>(report.failed()) /
                   static_cast<double>(std::max<int64_t>(report.attempted(), 1));
}

/// [N, C, H, W] batch of [1, C, H, W] images.
dsx::Tensor stack_images(const std::vector<dsx::Tensor>& images) {
  const dsx::Shape& s = images.front().shape();
  dsx::Tensor batch(dsx::make_nchw(static_cast<int64_t>(images.size()), s.c(),
                                   s.h(), s.w()));
  for (size_t i = 0; i < images.size(); ++i) {
    std::copy(images[i].data(), images[i].data() + images[i].numel(),
              batch.data() + static_cast<int64_t>(i) * images[i].numel());
  }
  return batch;
}

/// Probes against one compiled plan, run after traffic stopped. Returns the
/// plan's median b8 run() time (ms).
double plan_probes(const RunConfig& cfg, dsx::serve::CompiledModel& plan,
                   const dsx::deploy::ArchSpec& spec,
                   const dsx::Tensor& image, const dsx::Tensor& kern_input,
                   int reps, SpanLog* spans, Values& v) {
  v["device.handoff_us"] = handoff_us(2000);
  v["device.launches_per_run"] =
      static_cast<double>(launches_per_run(plan, image));

  const double run_ms = median_run_ms(plan, kern_input, reps);
  const KernelBreakdown kb = time_layers(plan.model(), kern_input, reps, spans);
  for (const auto& [name, fam] : kb.families) {
    const std::string k = "kern." + name;
    v[k + ".ms_per_run"] = fam.ms;
    if (name == "other") continue;
    v[k + ".calls"] = static_cast<double>(fam.calls);
    v[k + ".gflops"] = fam.ms > 0.0 ? fam.flops / fam.ms * 1e-6 : 0.0;
  }
  v["kern.sum_over_run"] = kb.layer_sum_ms / run_ms;

  const dsx::Tensor batch8 = stack_images(
      std::vector<dsx::Tensor>(static_cast<size_t>(kMaxBatch), image));
  const double b8_ms = median_run_ms(plan, batch8, reps);
  double b8_1t_ms = 0.0;
  {
    dsx::device::ThreadPool one(1);
    dsx::device::PoolScope scope(one);
    b8_1t_ms = median_run_ms(plan, batch8, reps);
  }
  v["device.scale_4t_over_1t"] = b8_1t_ms / b8_ms;
  v["kern.gemm_peak_gflops"] = gemm_peak_gflops();
  v["kern.copy_gbs"] = copy_gbs();
  v["deploy.compile_ms"] = deploy_compile_ms(spec, cfg.scratch + "/deploy");
  // Last: a kTune compile fills the process-wide tuning cache.
  const TuneProbe tp = tune_probe(spec, plan, batch8, reps);
  v["tune.compile_ms"] = tp.compile_ms;
  v["tune.tuned_over_off"] = tp.tuned_over_off;
  return b8_ms;
}

void finish_trace(const RunConfig& cfg, const SpanLog& spans, Report& report,
                  Values& v) {
  v["obs.spans"] = static_cast<double>(spans.size());
  if (!cfg.trace_out.empty()) {
    if (!spans.write_chrome_json(cfg.trace_out)) {
      throw std::runtime_error("cannot write " + cfg.trace_out);
    }
    report.note("spans written to " + cfg.trace_out);
  }
  dsx::device::set_pool_accounting(false);
}

// ---- wire workloads -----------------------------------------------------------

/// One serving stack behind a loopback ingress, plus its connected clients.
/// Members are torn down in reverse order: clients, ingress, residency,
/// server, store.
struct WireStack {
  WireStack() = default;
  WireStack(const WireStack&) = delete;
  WireStack& operator=(const WireStack&) = delete;
  ~WireStack() {
    client.reset();
    ingress.reset();
    residency.reset();
    server.reset();
    store.reset();
    if (!store_dir.empty()) std::filesystem::remove_all(store_dir);
  }

  std::string store_dir;
  std::unique_ptr<dsx::deploy::ModelStore> store;
  std::unique_ptr<dsx::serve::InferenceServer> server;
  std::unique_ptr<dsx::net::ResidencyManager> residency;
  std::unique_ptr<dsx::net::IngressServer> ingress;
  std::unique_ptr<WireClient> client;
};

/// Builds the serving side of a stack (store, server, residency, ingress);
/// the clients are connected by run_wire.
using BuildStack = std::function<void(WireStack&)>;

/// Appends `src`'s samples and counts to `dst`.
void merge(PhaseResult& dst, const PhaseResult& src) {
  dst.attempted += src.attempted;
  dst.failed += src.failed;
  dst.mismatches += src.mismatches;
  for (auto [d, s] : {std::pair{&dst.latency_ms, &src.latency_ms},
                      std::pair{&dst.rtt_us, &src.rtt_us},
                      std::pair{&dst.lag_ms, &src.lag_ms},
                      std::pair{&dst.probe_rtt_us, &src.probe_rtt_us}}) {
    d->insert(d->end(), s->begin(), s->end());
  }
}

Report run_wire(const RunConfig& cfg, const WireTarget& target,
                const BuildStack& build, dsx::serve::CompiledModel& raw_plan,
                const dsx::deploy::ArchSpec& raw_spec) {
  Report report;
  // Set-up is timed once more in every round, on a throwaway stack, so its
  // samples see the same host conditions as the traffic phases.
  std::vector<double> setup_s;
  auto timed_setup = [&] {
    auto s = std::make_unique<WireStack>();
    const int64_t t0 = now_ns();
    build(*s);
    s->client = std::make_unique<WireClient>(s->ingress->port(), kConnections);
    setup_s.push_back(seconds_since(t0));
    return s;
  };
  std::unique_ptr<WireStack> stack = timed_setup();

  SpanLog spans;
  SpanLog* sp = cfg.trace ? &spans : nullptr;
  dsx::device::set_pool_accounting(cfg.trace);
  WireClient& client = *stack->client;
  const auto ing0 = stack->ingress->stats();
  const int64_t pauses0 = counter_sum("dsx_net_backpressure_pauses_total");
  HistWindow faults("dsx_residency_fault_latency_us");
  faults.open();
  // Warm-up: batcher, pool and sockets reach steady state; its requests
  // count as attempts but not as latency samples.
  PhaseResult warm = client.open_loop(target, kBaseRate, 0.03 * cfg.seconds);

  // Rounds of base -> peak -> saturation, so every phase samples the
  // host's conditions across the whole run.
  const double round_s = cfg.seconds / kRounds;
  HistWindow base_wait("dsx_serve_queue_wait_us");
  HistWindow base_lat("dsx_serve_request_latency_us");
  HistWindow peak_wait("dsx_serve_queue_wait_us");
  HistWindow sat_batch("dsx_serve_batch_size");
  PoolWindow sat_pool;
  int64_t batches = 0;
  PhaseResult base;
  PhaseResult peak;
  PhaseResult sat;
  double sat_rate_sum = 0.0;
  std::string sat_rounds;
  for (int r = 0; r < kRounds; ++r) {
    timed_setup();
    base_wait.open();
    base_lat.open();
    merge(base, client.open_loop(target, kBaseRate, 0.3 * round_s,
                                 cfg.trace ? 8 : 0, sp));
    base_wait.close();
    base_lat.close();

    peak_wait.open();
    merge(peak, client.open_loop(target, kPeakRate, 0.25 * round_s, 0, sp));
    peak_wait.close();

    sat_batch.open();
    sat_pool.open();
    const int64_t batches0 = counter_sum("dsx_serve_batches_total");
    const PhaseResult s =
        client.closed_loop(target, kClosedWindow, 0.4 * round_s);
    batches += counter_sum("dsx_serve_batches_total") - batches0;
    sat_pool.close();
    sat_batch.close();
    merge(sat, s);
    sat_rate_sum += s.qps;
    sat_rounds += format(" %.0f", s.qps, 0, 0, 0);
  }
  // Rounds are equally long: the mean rate is total replies over total time.
  sat.qps = sat_rate_sum / kRounds;
  for (const PhaseResult* p : {&warm, &base, &peak, &sat}) {
    report.count(p->attempted, p->failed, p->mismatches);
  }

  note_timing(report, "base  (open loop, 200/s)", base.latency_ms);
  note_timing(report, "peak  (open loop, 400/s)", peak.latency_ms);
  report.note(format("sat   (closed loop, %.0f conns x %.0f): %.1f req/s, "
                     "n=%.0f, per round:",
                     kConnections, kClosedWindow, sat.qps,
                     static_cast<double>(sat.attempted)) +
              sat_rounds);

  Values v;
  if (!cfg.trace) {
    v["setup_s"] = median(setup_s);
    v["lat_p50_ms"] = quantile(base.latency_ms, 0.5);
    v["peak_p50_ms"] = quantile(peak.latency_ms, 0.5);
    v["ok_frac"] = ok_frac(report);
    emit(report, kEndToEnd, v);
    return report;
  }

  const auto ing1 = stack->ingress->stats();
  v["net.frames"] = static_cast<double>(ing1.frames - ing0.frames);
  v["net.rejected"] = static_cast<double>(ing1.rejected - ing0.rejected);
  v["net.framing_errors"] =
      static_cast<double>(ing1.framing_errors - ing0.framing_errors);
  v["net.backpressure_pauses"] = static_cast<double>(
      counter_sum("dsx_net_backpressure_pauses_total") - pauses0);
  // Client round trip = wire tax + server latency; the unknown-model probe
  // measures the wire on its own, so the split can be checked.
  const double rtt = quantile(base.rtt_us, 0.5);
  const double server = base_lat.total().p50;
  const double probe = quantile(base.probe_rtt_us, 0.5);
  v["net.wire_tax_us_p50"] = rtt - server;
  v["net.probe_rtt_us_p50"] = probe;
  v["net.split_miss_frac"] = (rtt - server - probe) / rtt;
  v["serve.queue_wait_us_p50"] = base_wait.total().p50;
  v["serve.queue_wait_us_p99"] = peak_wait.total().p99;
  v["serve.batch_size_mean"] = sat_batch.total().mean;
  v["serve.batches"] = static_cast<double>(batches);
  v["serve.server_lat_us_p50"] = server;
  v["serve.server_lat_us_p99"] = base_lat.total().p99;
  v["device.pool_busy_frac"] = sat_pool.busy_frac();
  std::vector<double> lag = base.lag_ms;
  lag.insert(lag.end(), peak.lag_ms.begin(), peak.lag_ms.end());
  v["gen.lag_ms_p99"] = quantile(lag, 0.99);
  v["client.lat_p99_ms"] = quantile(base.latency_ms, 0.99);
  v["client.peak_p99_ms"] = quantile(peak.latency_ms, 0.99);

  // Tracing overhead on the headline metric: alternate untraced and traced
  // base-rate segments and compare their median latency.
  PhaseResult off;
  PhaseResult on;
  for (int seg = 0; seg < 4; ++seg) {
    const bool traced = seg % 2 == 1;
    dsx::device::set_pool_accounting(traced);
    const PhaseResult r =
        client.open_loop(target, kBaseRate, 1.0, 0, traced ? sp : nullptr);
    report.count(r.attempted, r.failed, r.mismatches);
    merge(traced ? on : off, r);
  }
  v["obs.trace_overhead"] = median(on.latency_ms) / median(off.latency_ms);

  faults.close();
  if (stack->residency) {
    const auto d = faults.total();
    const dsx::net::ResidencyStats st = stack->residency->stats();
    v["residency.faults"] = static_cast<double>(st.faults);
    v["residency.evictions"] = static_cast<double>(st.evictions);
    v["residency.fault_ms_p50"] = d.p50 * 1e-3;
    v["residency.fault_ms_p99"] = d.p99 * 1e-3;
  } else {
    const ResidencyCycle rc = quiet_residency_cycle(
        derive_seed(cfg.seed, kSeedWeights), cfg.scratch + "/residency", 4);
    v["residency.faults"] = static_cast<double>(rc.faults);
    v["residency.evictions"] = static_cast<double>(rc.evictions);
    v["residency.fault_ms_p50"] = rc.fault_ms_p50;
    v["residency.fault_ms_p99"] = rc.fault_ms_p99;
  }
  stack.reset();  // the probes below run on a quiet host
  const double b8_ms = plan_probes(cfg, raw_plan, raw_spec, target.images[0],
                                   target.images[0], 31, sp, v);
  v["serve.sat_qps"] = sat.qps;
  v["serve.served_over_raw"] = sat.qps / (kMaxBatch * 1e3 / b8_ms);
  finish_trace(cfg, spans, report, v);
  emit(report, kPerLayer, v);
  return report;
}

void connect_ingress(WireStack& s, dsx::net::IngressOptions opts) {
  s.ingress = std::make_unique<dsx::net::IngressServer>(*s.server, opts,
                                                        s.residency.get());
  s.ingress->start();
}

}  // namespace

Report run_serve_wire(const RunConfig& cfg) {
  const dsx::deploy::ArchSpec spec =
      serving_spec(derive_seed(cfg.seed, kSeedWeights));
  WireTarget target;
  target.models = {"mobilenet-scc"};
  target.tokens = {""};
  target.priorities = {dsx::serve::Priority::kNormal};
  target.images = make_images(spec, kImages, derive_seed(cfg.seed, kSeedImages));
  // The reference plan is compiled separately from every served one.
  auto ref = compile_spec(spec);
  target.refs = {reference_logits(*ref, target.images)};
  dsx::Rng rng(derive_seed(cfg.seed, kSeedSequence));
  for (int i = 0; i < kPicks; ++i) {
    target.picks.push_back({0, static_cast<int>(rng.randint(0, kImages - 1)), 0});
  }
  const BuildStack build = [&](WireStack& s) {
    s.server = std::make_unique<dsx::serve::InferenceServer>();
    dsx::serve::BatcherOptions bopts;
    bopts.max_batch = kMaxBatch;
    s.server->register_model(target.models[0], compile_spec(spec), bopts);
    connect_ingress(s, {});
  };
  return run_wire(cfg, target, build, *ref, spec);
}

Report run_churn_wire(const RunConfig& cfg) {
  const uint64_t weight_seed = derive_seed(cfg.seed, kSeedWeights);
  const std::vector<dsx::deploy::ArchSpec> specs = design_points(weight_seed);
  WireTarget target;
  target.models = {"m0", "m1", "m2"};
  target.tokens = {"tok-interactive", "tok-bulk"};
  target.priorities = {dsx::serve::Priority::kInteractive,
                       dsx::serve::Priority::kBulk};
  target.images =
      make_images(specs[0], kImages, derive_seed(cfg.seed, kSeedImages));
  std::vector<std::unique_ptr<dsx::serve::CompiledModel>> refs;
  for (const auto& spec : specs) {
    refs.push_back(compile_spec(spec));
    target.refs.push_back(reference_logits(*refs.back(), target.images));
  }
  dsx::Rng rng(derive_seed(cfg.seed, kSeedSequence));
  for (int i = 0; i < kPicks; ++i) {
    Pick p;
    p.model = rng.bernoulli(kColdShare) ? 2 : static_cast<int>(rng.randint(0, 1));
    p.image = static_cast<int>(rng.randint(0, kImages - 1));
    p.tenant = static_cast<int>(rng.randint(0, 1));
    target.picks.push_back(p);
  }
  int stacks = 0;
  const BuildStack build = [&](WireStack& s) {
    s.store_dir = cfg.scratch + "/churn-store-" + std::to_string(stacks++);
    std::filesystem::remove_all(s.store_dir);
    s.store = std::make_unique<dsx::deploy::ModelStore>(s.store_dir);
    const std::vector<std::string> names =
        save_design_points(*s.store, weight_seed);
    s.server = std::make_unique<dsx::serve::InferenceServer>();
    dsx::net::ResidencyOptions ropts;
    ropts.budget_floats = two_model_budget(*s.store, names);
    ropts.compile = default_compile();
    ropts.batcher.max_batch = kMaxBatch;
    s.residency = std::make_unique<dsx::net::ResidencyManager>(
        *s.server, *s.store, ropts);
    for (const std::string& name : names) s.residency->add_model(name, "v1");
    dsx::net::IngressOptions iopts;
    for (size_t t = 0; t < target.tokens.size(); ++t) {
      dsx::net::TenantSpec tenant;
      tenant.token = target.tokens[t];
      tenant.priority = target.priorities[t];
      iopts.tenants.push_back(tenant);
    }
    connect_ingress(s, iopts);
  };
  return run_wire(cfg, target, build, *refs[0], specs[0]);
}

// ---- plan_large ----------------------------------------------------------------

Report run_plan_large(const RunConfig& cfg) {
  const dsx::deploy::ArchSpec spec = large_spec(derive_seed(cfg.seed, kSeedWeights));
  const std::vector<dsx::Tensor> images =
      make_images(spec, kMaxBatch, derive_seed(cfg.seed, kSeedImages));
  const dsx::Tensor batch8 = stack_images(images);
  auto ref = compile_spec(spec);
  const auto refs = reference_logits(*ref, images);

  Report report;
  // Set-up (build + compile) is timed once more in every round.
  std::vector<double> setup_s;
  auto timed_compile = [&] {
    const int64_t t0 = now_ns();
    auto p = compile_spec(spec);
    setup_s.push_back(seconds_since(t0));
    return p;
  };
  std::unique_ptr<dsx::serve::CompiledModel> plan = timed_compile();

  SpanLog spans;
  dsx::device::set_pool_accounting(cfg.trace);
  const int64_t classes = refs.front().size();
  int64_t rows = 0;
  int64_t bad = 0;
  auto check = [&](const dsx::Tensor& y, int64_t first_image) {
    for (int64_t r = 0; r < y.shape().dim(0); ++r) {
      ++rows;
      if (!same_bits(y.data() + r * classes,
                     refs[static_cast<size_t>(first_image + r)], classes)) {
        ++bad;
      }
    }
  };
  // One b8 run, then four b1 runs (about the same time), until the window
  // closes: both batch sizes see the same host conditions.
  auto timed_run = [&](const dsx::Tensor& x, int64_t first_image, bool traced,
                       std::vector<double>& ms) {
    const int64_t t0 = now_ns();
    const dsx::Tensor y = plan->run(x);
    const int64_t t1 = now_ns();
    ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    if (traced) spans.add(x.shape().n() == 1 ? "plan.run_b1" : "plan.run_b8", t0, t1);
    check(y, first_image);
  };
  (void)plan->run(batch8);
  (void)plan->run(images[0]);
  std::vector<double> b1_ms;
  std::vector<double> b8_ms;
  PoolWindow pool;
  pool.open();
  int64_t i = 0;
  for (int r = 0; r < kRounds; ++r) {
    timed_compile();
    const int64_t end =
        now_ns() + static_cast<int64_t>(0.95 * cfg.seconds / kRounds * 1e9);
    for (; now_ns() < end; ++i) {
      timed_run(batch8, 0, cfg.trace, b8_ms);
      for (int64_t k = 0; k < 4; ++k) {
        const int64_t img = (4 * i + k) % kMaxBatch;
        timed_run(images[static_cast<size_t>(img)], img, cfg.trace, b1_ms);
      }
    }
  }
  pool.close();
  const double busy = pool.busy_frac();
  report.count(rows, bad, bad);
  note_timing(report, "b1 run()", b1_ms);
  note_timing(report, "b8 run()", b8_ms);
  report.note(format("b8 throughput: %.1f images/s", kMaxBatch * 1e3 / median(b8_ms),
                     0, 0, 0));

  Values v;
  if (!cfg.trace) {
    v["setup_s"] = median(setup_s);
    v["lat_p50_ms"] = quantile(b1_ms, 0.5);
    v["peak_p50_ms"] = quantile(b8_ms, 0.5);
    v["ok_frac"] = ok_frac(report);
    emit(report, kEndToEnd, v);
    return report;
  }

  v["device.pool_busy_frac"] = busy;
  v["client.lat_p99_ms"] = quantile(b1_ms, 0.99);
  v["client.peak_p99_ms"] = quantile(b8_ms, 0.99);
  std::vector<double> off;
  std::vector<double> on;
  for (int i = 0; i < 24; ++i) {
    const bool traced = i % 2 == 1;
    dsx::device::set_pool_accounting(traced);
    timed_run(batch8, 0, traced, traced ? on : off);
  }
  v["obs.trace_overhead"] = median(on) / median(off);
  dsx::device::set_pool_accounting(true);
  plan_probes(cfg, *ref, spec, images[0], batch8, 5, &spans, v);
  finish_trace(cfg, spans, report, v);
  emit(report, kPerLayer, v);
  return report;
}

}  // namespace perfbench
