#include "tune/dispatch.hpp"

#include <chrono>
#include <sstream>

#include "common/check.hpp"
#include "core/scc_kernels.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "tune/tune.hpp"

namespace dsx::tune {

namespace {

int64_t mono_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Shared dispatch skeleton for every op family: baked site -> off-mode
/// default -> cache lookup -> (kTune) measure + record -> resolve -> bake ->
/// run. A new op family only supplies the five family-specific callables;
/// the cache/tune/fallback sequencing stays in one place.
template <typename Problem, typename Site, typename MakeKey,
          typename RunDefault, typename TuneProblem, typename FindCandidate,
          typename Enumerate>
void dispatch_impl(const Problem& problem, Site* site, MakeKey&& make_key,
                   RunDefault&& run_default, TuneProblem&& tune_problem,
                   FindCandidate&& find_candidate, Enumerate&& enumerate) {
  if (site != nullptr && site->resolved()) {
    // Kernel-variant time attribution, profiler-gated: with prof off the
    // steady-state cost here is prof_enabled()'s single relaxed load. The
    // clock reads bracket the existing call - float work is untouched.
    if (obs::prof::prof_enabled()) {
      const int64_t t0 = mono_ns();
      site->baked->run(problem);
      site->kernel_ns.inc(mono_ns() - t0);
      return;
    }
    site->baked->run(problem);
    return;
  }

  Session& session = Session::global();
  const Mode mode = session.mode();
  if (mode == Mode::kOff) {
    run_default();
    return;
  }

  // Fidelity admission comes from the session's fast-math opt-in. It is
  // stamped into the ProblemKey: strict and fast-math records are distinct
  // cache entries, so a shape tuned in one domain still measures (kTune) or
  // misses to the default (kCached) in the other instead of silently
  // replaying a winner picked from the wrong candidate menu.
  const bool allow = session.allow_fast_math();
  ProblemKey key = make_key();
  key.fast_math = allow;
  std::optional<TuningRecord> rec = session.cache().find(key);
  if (!rec.has_value() && mode == Mode::kTune) {
    TunerOptions opts = session.tuner_options();
    opts.allow_fast_math = allow;
    const Tuner tuner(opts);
    TuneResult result = tune_problem(tuner, key);
    session.cache().put(result.record);
    session.note_tune();
    session.save_cache();
    // Journal the measurement (obs): which problem, which winner, and the
    // speedup over the default - the post-mortem trail for "why is this
    // process running variant X".
    {
      std::ostringstream os;
      os << key.to_string() << " -> " << result.record.variant
         << " (median " << result.record.median_ns / 1e3 << " us, default "
         << result.record.default_ns / 1e3 << " us)";
      obs::Journal::global().record(obs::EventKind::kTuneMeasure, "tune",
                                    os.str());
    }
    obs::Registry::global()
        .counter("dsx_tune_measurements_total", {},
                 "Tuner measurements performed through dispatch.")
        .inc();
    rec = std::move(result.record);
  }

  // Defense in depth on top of the domain-keyed lookup: a kUlpBounded
  // record (hand-seeded, or from a tampered cache) found while fast-math is
  // off fails this fidelity-gated lookup and falls through to the default
  // kernel - a fast-math record can never change a strict process's
  // numerics.
  using Candidate = typename decltype(find_candidate(
      key, std::string(), int64_t{0}, false))::value_type;
  std::optional<Candidate> cand;
  if (rec.has_value()) {
    cand = find_candidate(key, rec->variant, rec->grain, allow);
  }
  if (!cand.has_value()) {  // cache miss in kCached, or a stale record
    auto candidates = enumerate(key, allow);
    DSX_CHECK(!candidates.empty(), "tune: registry offered no candidates");
    // The registry's first candidate is the library default.
    cand = std::move(candidates.front());
    rec.reset();
  }
  if (site != nullptr) {
    site->baked = cand;
    site->record = rec;
    // Bake-time registration (cold path): all steady-state dispatches of
    // this site attribute into the winner's per-variant series.
    site->kernel_ns = obs::Registry::global().counter(
        "dsx_tune_kernel_ns_total", {{"variant", cand->variant}},
        "Nanoseconds spent inside baked tuned kernels, by winning variant "
        "(attributed while the profiler is on)");
  }
  cand->run(problem);
}

}  // namespace

void scc_forward_dispatch(const Tensor& input, const Tensor& weight,
                          const Tensor* bias, const scc::ChannelWindowMap& map,
                          Workspace& ws, Tensor& out, SccSite* site,
                          bool fuse_relu) {
  const SCCProblem problem{&input, &weight, bias, &map, &ws, &out, fuse_relu};
  const KernelRegistry& registry = KernelRegistry::global();
  dispatch_impl(
      problem, site,
      [&] { return make_scc_forward_key(input.shape(), map); },
      [&] { scc::scc_forward_into(input, weight, bias, map, out, fuse_relu); },
      [&](const Tuner& tuner, const ProblemKey& key) {
        return tuner.tune_scc(key, input, weight, bias, map);
      },
      [&](const ProblemKey& key, const std::string& variant, int64_t grain,
          bool allow) { return registry.find_scc(key, variant, grain, allow); },
      [&](const ProblemKey& key, bool allow) {
        return registry.scc_forward(key, allow);
      });
}

void conv2d_forward_dispatch(const Tensor& input, const Tensor& weight,
                             const Tensor* bias, const Conv2dArgs& args,
                             Workspace& ws, Tensor& out, ConvSite* site,
                             bool fuse_relu) {
  const ConvProblem problem{&input, &weight, bias, &args, &ws, &out, fuse_relu};
  const KernelRegistry& registry = KernelRegistry::global();
  dispatch_impl(
      problem, site,
      [&] { return make_conv2d_forward_key(input.shape(), weight.shape(), args); },
      [&] {
        conv2d_forward_into(input, weight, bias, args, ws, out, fuse_relu);
      },
      [&](const Tuner& tuner, const ProblemKey& key) {
        return tuner.tune_conv2d(key, input, weight, bias, args);
      },
      [&](const ProblemKey& key, const std::string& variant, int64_t grain,
          bool allow) {
        return registry.find_conv(key, variant, grain, allow);
      },
      [&](const ProblemKey& key, bool allow) {
        return registry.conv2d_forward(key, allow);
      });
}

void depthwise_forward_dispatch(const Tensor& input, const Tensor& weight,
                                const Tensor* bias, const DepthwiseArgs& args,
                                Workspace& ws, Tensor& out,
                                DepthwiseSite* site, bool fuse_relu) {
  const DepthwiseProblem problem{&input, &weight, bias, &args,
                                 &ws, &out, fuse_relu};
  const KernelRegistry& registry = KernelRegistry::global();
  dispatch_impl(
      problem, site,
      [&] {
        return make_depthwise_forward_key(input.shape(), weight.shape(), args);
      },
      [&] {
        depthwise_forward_into(input, weight, bias, args, out, fuse_relu);
      },
      [&](const Tuner& tuner, const ProblemKey& key) {
        return tuner.tune_depthwise(key, input, weight, bias, args);
      },
      [&](const ProblemKey& key, const std::string& variant, int64_t grain,
          bool allow) {
        return registry.find_depthwise(key, variant, grain, allow);
      },
      [&](const ProblemKey& key, bool allow) {
        return registry.depthwise_forward(key, allow);
      });
}

}  // namespace dsx::tune
