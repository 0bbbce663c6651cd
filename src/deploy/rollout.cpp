#include "deploy/rollout.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/check.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "tensor/tensor_ops.hpp"

namespace dsx::deploy {

uint64_t request_hash(const Tensor& image) {
  DSX_REQUIRE(image.defined(), "request_hash: undefined tensor");
  return fnv1a64(image.data(), static_cast<size_t>(image.size_bytes()));
}

int request_bucket(const Tensor& image) {
  return static_cast<int>(request_hash(image) % kRouteBuckets);
}

const char* phase_name(Phase phase) {
  switch (phase) {
    case Phase::kLive: return "live";
    case Phase::kShadow: return "shadow";
    case Phase::kCanary: return "canary";
  }
  return "?";
}

namespace {

/// Bucket threshold for a fraction in [0, 1]: buckets < threshold take the
/// candidate side. Round-to-nearest keeps 0.25 exactly 2500/10000.
int bucket_threshold(double fraction) {
  if (fraction <= 0.0) return 0;
  if (fraction >= 1.0) return kRouteBuckets;
  return static_cast<int>(fraction * kRouteBuckets + 0.5);
}

/// The guardrail's p99 of a fleet's cumulative latency histogram
/// (nanosecond samples), in ms. Up to 50 samples the nearest-rank p99 is
/// the sample maximum, so one scheduler stall on a healthy fleet would set
/// the baseline the candidate is judged against. The rank therefore stays
/// at least two below the sample count: the estimate never rests on the two
/// worst samples, and beyond 150 samples it is the plain p99.
double guardrail_p99_ms(const device::LogHistogram::BucketSnapshot& h) {
  if (h.count <= 0) return 0.0;
  const auto p99_rank =
      static_cast<int64_t>(0.99 * static_cast<double>(h.count) + 0.5);
  const int64_t rank = std::max<int64_t>(1, std::min(p99_rank, h.count - 2));
  int64_t seen = 0;
  int b = 0;
  for (; b + 1 < device::LogHistogram::kBuckets; ++b) {
    seen += h.buckets[static_cast<size_t>(b)];
    if (seen >= rank) break;
  }
  return std::clamp(device::LogHistogram::bucket_value(b),
                    static_cast<double>(h.min), static_cast<double>(h.max)) /
         1e6;
}

}  // namespace

RolloutController::RolloutController(serve::InferenceServer& server,
                                     ModelStore& store, RolloutOptions opts)
    : server_(server), store_(store), opts_(opts) {
  DSX_REQUIRE(opts_.shadow_fraction >= 0.0 && opts_.shadow_fraction <= 1.0,
              "RolloutOptions: shadow_fraction must be in [0,1]");
  DSX_REQUIRE(opts_.canary_fraction >= 0.0 && opts_.canary_fraction <= 1.0,
              "RolloutOptions: canary_fraction must be in [0,1]");
  DSX_REQUIRE(opts_.guardrail_min_samples >= 1,
              "RolloutOptions: guardrail_min_samples must be >= 1");
  DSX_REQUIRE(opts_.guardrail_max_p99_ratio > 0.0,
              "RolloutOptions: guardrail_max_p99_ratio must be > 0");
  DSX_REQUIRE(opts_.guardrail_check_every >= 1,
              "RolloutOptions: guardrail_check_every must be >= 1");
  comparator_ = std::thread([this] { comparator_loop(); });
}

RolloutController::~RolloutController() {
  {
    std::lock_guard<std::mutex> lock(shadow_mu_);
    shadow_stop_ = true;
  }
  shadow_cv_.notify_all();
  if (comparator_.joinable()) comparator_.join();
  std::vector<std::thread> reapers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    reapers.swap(reapers_);
  }
  for (std::thread& t : reapers) t.join();
}

RolloutController::Deployment& RolloutController::deployment_locked(
    const std::string& name) {
  auto it = deployments_.find(name);
  DSX_REQUIRE(it != deployments_.end(),
              "rollout: no deployment named '" << name << "'");
  return it->second;
}

const RolloutController::Deployment& RolloutController::deployment_locked(
    const std::string& name) const {
  auto it = deployments_.find(name);
  DSX_REQUIRE(it != deployments_.end(),
              "rollout: no deployment named '" << name << "'");
  return it->second;
}

void RolloutController::deploy(const std::string& name,
                               const std::string& version,
                               serve::CompileOptions copts,
                               serve::BatcherOptions bopts) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    DSX_REQUIRE(deployments_.find(name) == deployments_.end(),
                "rollout: '" << name << "' is already deployed");
  }
  // Compile outside the lock (slow); register_model's own duplicate check
  // guards the race.
  auto compiled = store_.compile(name, version, copts);
  server_.register_model(name, std::move(compiled), bopts);
  {
    std::lock_guard<std::mutex> lock(mu_);
    Deployment d;
    d.live_version = version;
    deployments_.emplace(name, std::move(d));
  }
  obs::Journal::global().record(obs::EventKind::kDeploy, name,
                                "live=" + version);
}

void RolloutController::adopt(const std::string& name,
                              const std::string& version_label) {
  DSX_REQUIRE(server_.has_model(name),
              "rollout: adopt('" << name << "'): not registered on the server");
  std::lock_guard<std::mutex> lock(mu_);
  DSX_REQUIRE(deployments_.find(name) == deployments_.end(),
              "rollout: '" << name << "' is already deployed");
  Deployment d;
  d.live_version = version_label;
  deployments_.emplace(name, std::move(d));
}

void RolloutController::stage(const std::string& name,
                              const std::string& version,
                              serve::CompileOptions copts,
                              serve::BatcherOptions bopts) {
  std::string alias;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Deployment& d = deployment_locked(name);
    DSX_REQUIRE(d.phase == Phase::kLive,
                "rollout: '" << name << "' already has a staged candidate ("
                             << phase_name(d.phase)
                             << "); promote or rollback first");
    DSX_REQUIRE(version != d.live_version,
                "rollout: '" << version << "' is already live on '" << name
                             << "'");
    alias = name + "@" + version;
  }
  // Compile the candidate outside the lock - this is where the stored
  // tuning cache warm-start pays off (no re-measuring on the staging path).
  auto compiled = store_.compile(name, version, copts);
  server_.register_model(alias, std::move(compiled), bopts);
  {
    std::lock_guard<std::mutex> lock(mu_);
    Deployment& d = deployment_locked(name);
    // Re-check under the lock: a concurrent stage() may have won the slot
    // while this one was compiling. Without this, the loser's candidate
    // would be overwritten here and its registered fleet leak forever.
    if (d.phase == Phase::kLive) {
      d.candidate_version = version;
      d.candidate_alias = alias;
      d.phase = Phase::kShadow;
      d.fraction = opts_.shadow_fraction;
      d.track = std::make_shared<CandidateTrack>();
      d.submits_until_check = opts_.guardrail_check_every;
      d.rolled_back = false;
      d.rollback_reason.clear();
      obs::Journal::global().record(obs::EventKind::kStage, name,
                                    "candidate=" + version + " (shadow)");
      return;
    }
  }
  server_.unregister_model(alias);  // lost the race; nothing leaks
  throw Error("stage: '" + name +
              "' already has a staged candidate (concurrent stage)");
}

void RolloutController::advance_to_canary(const std::string& name,
                                          double fraction) {
  if (fraction < 0.0) fraction = opts_.canary_fraction;
  DSX_REQUIRE(fraction >= 0.0 && fraction <= 1.0,
              "advance_to_canary: fraction must be in [0,1], got " << fraction);
  std::lock_guard<std::mutex> lock(mu_);
  Deployment& d = deployment_locked(name);
  DSX_REQUIRE(d.phase == Phase::kShadow,
              "advance_to_canary: '" << name << "' is " << phase_name(d.phase)
                                     << ", expected shadow");
  d.phase = Phase::kCanary;
  d.fraction = fraction;
  d.submits_until_check = opts_.guardrail_check_every;
  obs::Journal::global().record(
      obs::EventKind::kCanary, name,
      "candidate=" + d.candidate_version + " fraction=" +
          std::to_string(fraction));
}

std::future<Tensor> RolloutController::submit(const std::string& name,
                                              const Tensor& image,
                                              shard::SubmitOptions sopts) {
  // Snapshot the routing decision under the lock, submit outside it - the
  // server's own hot-swap safety covers any promote/rollback that lands in
  // between (a vanished candidate alias falls back to the live name below).
  Phase phase;
  std::string alias;
  double fraction;
  TrackPtr track;
  bool check_guard = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Deployment& d = deployment_locked(name);
    phase = d.phase;
    alias = d.candidate_alias;
    fraction = d.fraction;
    track = d.track;
    if (phase == Phase::kCanary && --d.submits_until_check <= 0) {
      d.submits_until_check = opts_.guardrail_check_every;
      check_guard = true;
    }
  }

  const int threshold =
      phase == Phase::kLive ? 0 : bucket_threshold(fraction);
  const bool candidate_side =
      threshold > 0 && request_bucket(image) < threshold;

  if (phase == Phase::kCanary && candidate_side) {
    track->canary_attempts.fetch_add(1, std::memory_order_relaxed);
    std::future<Tensor> reply;
    bool routed = false;
    try {
      reply = server_.submit(alias, image, sopts);
      routed = true;
    } catch (const Error&) {
      // Sick candidate (queue full, just rolled back, ...): the caller is
      // never the one to pay - fall back to the live version.
      track->errors.fetch_add(1, std::memory_order_relaxed);
    }
    if (check_guard) evaluate_guardrail(name, /*synchronous=*/false);
    if (routed) {
      // Deferred wrapper: counts candidate-side failures without adding a
      // thread; runs on the caller's get().
      return std::async(std::launch::deferred,
                        [reply = std::move(reply), track]() mutable {
                          try {
                            return reply.get();
                          } catch (const serve::DeadlineExceeded&) {
                            // Shedding is scheduling policy, not a model
                            // regression.
                            throw;
                          } catch (...) {
                            track->errors.fetch_add(
                                1, std::memory_order_relaxed);
                            throw;
                          }
                        });
    }
    return server_.submit(name, image, sopts);
  }

  std::future<Tensor> primary = server_.submit(name, image, sopts);
  // The guardrail interval is counted over ALL canary-phase submissions, so
  // the scheduled evaluation must fire even when this particular request
  // hashed to the primary side.
  if (check_guard) evaluate_guardrail(name, /*synchronous=*/false);
  if (phase == Phase::kShadow && candidate_side) {
    // Mirror: the candidate sees the same image, the caller's reply still
    // comes from the live fleet. The comparator owns both futures; the
    // caller gets a deferred view of the shared primary result. A failing
    // candidate submit only dents the shadow stats.
    std::shared_future<Tensor> shared = primary.share();
    // Claim the in-flight slot BEFORE mirrored becomes observable: once any
    // thread can see this mirror in ShadowStats, drain_shadow_compares()
    // must wait for its compare (or its error) to land.
    {
      std::lock_guard<std::mutex> lock(shadow_mu_);
      ++shadow_in_flight_;
    }
    {
      std::lock_guard<std::mutex> lock(track->mu);
      ++track->shadow.mirrored;
    }
    try {
      ShadowPair pair;
      pair.primary = shared;
      pair.candidate = server_.submit(alias, image, sopts);
      pair.track = track;
      pair.tolerance = opts_.shadow_tolerance;
      {
        std::lock_guard<std::mutex> lock(shadow_mu_);
        shadow_queue_.push_back(std::move(pair));
      }
      shadow_cv_.notify_one();
    } catch (const Error&) {
      {
        std::lock_guard<std::mutex> lock(track->mu);
        ++track->shadow.errors;
      }
      {
        std::lock_guard<std::mutex> lock(shadow_mu_);
        --shadow_in_flight_;
      }
      shadow_idle_cv_.notify_all();
    }
    return std::async(std::launch::deferred,
                      [shared]() { return shared.get(); });
  }
  return primary;
}

void RolloutController::comparator_loop() {
  for (;;) {
    ShadowPair pair;
    {
      std::unique_lock<std::mutex> lock(shadow_mu_);
      shadow_cv_.wait(lock,
                      [&] { return shadow_stop_ || !shadow_queue_.empty(); });
      if (shadow_queue_.empty()) return;  // stopping and drained
      pair = std::move(shadow_queue_.front());
      shadow_queue_.pop_front();
    }
    // Blocking on the futures is safe: batchers answer every accepted
    // request (stop() drains), so these always complete.
    Tensor candidate_out;
    bool candidate_ok = false;
    try {
      candidate_out = pair.candidate.get();
      candidate_ok = true;
    } catch (const serve::DeadlineExceeded&) {
      // The caller's deadline was mirrored verbatim; a busier candidate
      // shedding it is scheduling policy, not a model failure (same
      // convention as the canary reply wrapper).
      std::lock_guard<std::mutex> lock(pair.track->mu);
      ++pair.track->shadow.shed;
    } catch (...) {
      std::lock_guard<std::mutex> lock(pair.track->mu);
      ++pair.track->shadow.errors;
    }
    if (candidate_ok) {
      try {
        const Tensor primary_out = pair.primary.get();
        const float diff = max_abs_diff(primary_out, candidate_out);
        std::lock_guard<std::mutex> lock(pair.track->mu);
        ++pair.track->shadow.compared;
        pair.track->shadow.max_abs_diff =
            std::max(pair.track->shadow.max_abs_diff,
                     static_cast<double>(diff));
        if (diff > pair.tolerance) ++pair.track->shadow.mismatches;
      } catch (...) {
        // Primary-side failure: nothing to compare against; the caller saw
        // the same exception through their own view of the shared future.
      }
    }
    {
      std::lock_guard<std::mutex> lock(shadow_mu_);
      --shadow_in_flight_;
    }
    shadow_idle_cv_.notify_all();
  }
}

void RolloutController::drain_shadow_compares() {
  std::unique_lock<std::mutex> lock(shadow_mu_);
  shadow_idle_cv_.wait(lock, [&] { return shadow_in_flight_ == 0; });
}

serve::SwapReport RolloutController::promote(const std::string& name) {
  std::string alias;
  std::string version;
  Phase prev_phase;
  double prev_fraction;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Deployment& d = deployment_locked(name);
    DSX_REQUIRE(d.phase != Phase::kLive,
                "promote: '" << name << "' has no staged candidate");
    alias = d.candidate_alias;
    version = d.candidate_version;
    prev_phase = d.phase;
    prev_fraction = d.fraction;
    // Claim the candidate BEFORE touching the registry: clearing the alias
    // under mu_ makes a concurrently tripping guardrail's re-check fail (a
    // no-op) instead of unregistering the fleet this swap is about to move,
    // and routes new canary submits back to the primary for the interim.
    d.phase = Phase::kLive;
    d.fraction = 0.0;
    d.candidate_alias.clear();
    d.candidate_version.clear();
  }
  // The swap drains the displaced live fleet (answering its whole queue
  // with the OLD version) while the candidate fleet - queue, stats and all -
  // carries on under the live name.
  serve::SwapReport report;
  try {
    report = server_.swap_model_with(name, alias);
  } catch (...) {
    // Swap failed (e.g. server stopping): restore the claim so the staged
    // candidate is still addressable for a retry or an explicit rollback -
    // unless a concurrent stage() already took the (briefly kLive) slot, in
    // which case restoring would orphan ITS fleet; drop ours instead.
    bool restored = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      Deployment& d = deployment_locked(name);
      if (d.phase == Phase::kLive && d.candidate_alias.empty()) {
        d.phase = prev_phase;
        d.fraction = prev_fraction;
        d.candidate_alias = alias;
        d.candidate_version = version;
        restored = true;
      }
    }
    if (!restored) {
      try {
        server_.unregister_model(alias);
      } catch (const Error&) {
      }
    }
    throw;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    Deployment& d = deployment_locked(name);
    d.live_version = version;
    ++d.promotions;
  }
  obs::Journal::global().record(obs::EventKind::kPromote, name,
                                "live=" + version);
  obs::Registry::global()
      .counter("dsx_deploy_promotions_total", {{"model", name}},
               "Candidates promoted to live.")
      .inc();
  return report;
}

void RolloutController::rollback_locked_candidate(const std::string& name,
                                                  const std::string& reason) {
  // Requires mu_ held; the actual unregister happens in rollback() /
  // evaluate_guardrail() outside the lock.
  Deployment& d = deployment_locked(name);
  const std::string version = d.candidate_version;
  d.candidate_version.clear();
  d.candidate_alias.clear();
  d.phase = Phase::kLive;
  d.fraction = 0.0;
  d.rolled_back = true;
  d.rollback_reason = reason;
  // The journal mutex is a leaf (never acquires mu_), so recording under
  // mu_ here keeps the rollback and its reason atomic with the claim.
  obs::Journal::global().record(obs::EventKind::kRollback, name,
                                "candidate=" + version + ": " + reason);
  obs::Registry::global()
      .counter("dsx_deploy_rollbacks_total", {{"model", name}},
               "Candidates rolled back (manual or guardrail).")
      .inc();
}

void RolloutController::rollback(const std::string& name,
                                 const std::string& reason) {
  std::string alias;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Deployment& d = deployment_locked(name);
    DSX_REQUIRE(d.phase != Phase::kLive,
                "rollback: '" << name << "' has no staged candidate");
    alias = d.candidate_alias;
    rollback_locked_candidate(name, reason);
  }
  // Unregister drains the candidate: every request it accepted (canary
  // routes, shadow mirrors) is still answered exactly once.
  server_.unregister_model(alias);
}

bool RolloutController::evaluate_guardrail(const std::string& name,
                                           bool synchronous) {
  std::string alias;
  TrackPtr track;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = deployments_.find(name);
    if (it == deployments_.end() || it->second.phase != Phase::kCanary) {
      return false;
    }
    alias = it->second.candidate_alias;
    track = it->second.track;
  }
  serve::ModelStats candidate;
  serve::ModelStats primary;
  try {
    candidate = server_.stats(alias);
    primary = server_.stats(name);
  } catch (const Error&) {
    return false;  // raced a promote/rollback; nothing to evaluate
  }
  // One evaluation engine, two consumers: the guardrail judges the same
  // WindowSample/window_delta machinery the SLO engine runs, over the
  // full-history window of each fleet (zero baseline - a fleet's series
  // start with the fleet, so its lifetime IS the canary window). Requests
  // and errors come from the controller's own routing ledger: canary-side
  // samples only - shadow mirrors (answered or shed) never reach this
  // count, so they can neither dilute the error rate nor arm the guardrail
  // early. Latencies come from the fleets' cumulative histogram buckets
  // (nanosecond samples), read through guardrail_p99_ms.
  obs::slo::SloSpec gspec;
  gspec.max_error_rate = opts_.guardrail_max_error_rate;
  gspec.latency_unit_per_ms = 1e6;
  obs::slo::WindowSample cand_sample;
  cand_sample.requests =
      track->canary_attempts.load(std::memory_order_relaxed);
  cand_sample.errors = track->errors.load(std::memory_order_relaxed);
  cand_sample.latency = candidate.batcher.latency_buckets;
  obs::slo::WindowSample prim_sample;
  prim_sample.requests = primary.batcher.requests;
  prim_sample.latency = primary.batcher.latency_buckets;
  const obs::slo::WindowDelta cand =
      obs::slo::window_delta(gspec, obs::slo::WindowSample{}, cand_sample);
  const obs::slo::WindowDelta prim =
      obs::slo::window_delta(gspec, obs::slo::WindowSample{}, prim_sample);
  if (cand.requests < opts_.guardrail_min_samples) return false;
  const double cand_p99 = guardrail_p99_ms(cand_sample.latency);
  const double prim_p99 = guardrail_p99_ms(prim_sample.latency);
  obs::Registry::global()
      .counter("dsx_deploy_guardrail_evals_total", {{"model", name}},
               "Guardrail evaluations with enough canary samples.")
      .inc();

  std::string reason;
  // availability_burn > 1 is exactly error_rate > max_error_rate; a zero
  // budget (max_error_rate = 0 disables the burn) keeps its original
  // "any error trips" meaning.
  const bool error_trip = gspec.max_error_rate > 0.0
                              ? cand.availability_burn > 1.0
                              : cand.error_rate > 0.0;
  if (error_trip) {
    std::ostringstream os;
    os << "guardrail: candidate error rate " << cand.error_rate << " > "
       << opts_.guardrail_max_error_rate << " (" << cand.errors << "/"
       << cand.requests << ")";
    reason = os.str();
  } else if (prim.requests >= opts_.guardrail_min_samples &&
             prim_p99 > 0.0 &&
             cand_p99 > opts_.guardrail_max_p99_ratio * prim_p99) {
    std::ostringstream os;
    os << "guardrail: candidate p99 " << cand_p99 << " ms > "
       << opts_.guardrail_max_p99_ratio << "x primary p99 " << prim_p99
       << " ms";
    reason = os.str();
  }
  if (reason.empty()) {
    std::ostringstream os;
    os << "pass (error_rate=" << cand.error_rate
       << ", samples=" << cand.requests << ")";
    obs::Journal::global().record(obs::EventKind::kGuardrail, name, os.str());
    return false;
  }
  obs::Journal::global().record(obs::EventKind::kGuardrail, name, reason);

  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = deployments_.find(name);
    // Re-check under the lock: a concurrent promote/rollback/guardrail may
    // have resolved the candidate already.
    if (it == deployments_.end() || it->second.phase != Phase::kCanary ||
        it->second.candidate_alias != alias) {
      return false;
    }
    rollback_locked_candidate(name, reason);
    if (!synchronous) {
      // Auto-trip from a submit() hot path: the claim above already stops
      // new routing, so hand the blocking fleet drain to a reaper thread -
      // no user-facing request pays for answering the candidate's backlog.
      reapers_.emplace_back([this, alias] {
        try {
          server_.unregister_model(alias);
        } catch (const Error&) {
          // Server shut down underneath us; its stop() drains everything.
        }
      });
      return true;
    }
  }
  server_.unregister_model(alias);
  return true;
}

bool RolloutController::check_guardrail(const std::string& name) {
  const bool tripped = evaluate_guardrail(name, /*synchronous=*/true);
  // Settle any reaper started by an earlier auto-trip so callers of this
  // synchronous entry point observe a stable registry afterwards.
  std::vector<std::thread> reapers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    reapers.swap(reapers_);
  }
  for (std::thread& t : reapers) t.join();
  return tripped;
}

RolloutStatus RolloutController::status(const std::string& name) const {
  RolloutStatus s;
  std::string alias;
  TrackPtr track;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const Deployment& d = deployment_locked(name);
    s.name = name;
    s.live_version = d.live_version;
    s.candidate_version = d.candidate_version;
    s.phase = d.phase;
    s.split_fraction = d.fraction;
    s.promotions = d.promotions;
    s.rolled_back = d.rolled_back;
    s.rollback_reason = d.rollback_reason;
    alias = d.candidate_alias;
    track = d.track;
  }
  try {
    const serve::ModelStats primary = server_.stats(name);
    s.primary_requests = primary.batcher.requests;
    s.primary_p99_ms = primary.batcher.latency.p99_ms;
  } catch (const Error&) {
  }
  if (!alias.empty()) {
    try {
      const serve::ModelStats candidate = server_.stats(alias);
      s.candidate_requests = candidate.batcher.requests;
      s.candidate_p99_ms = candidate.batcher.latency.p99_ms;
    } catch (const Error&) {
    }
  }
  if (track != nullptr) {
    s.candidate_errors = track->errors.load(std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(track->mu);
    s.shadow = track->shadow;
  }
  return s;
}

}  // namespace dsx::deploy
