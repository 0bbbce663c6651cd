// Staged rollouts of stored model versions behind a live serving name.
//
// A RolloutController moves one logical model through the deployment ladder
// the ROADMAP's "millions of users" tier needs when a retuned / requantized /
// re-overlapped SCC design point ships:
//
//   live  --stage-->  SHADOW  --advance-->  CANARY  --promote-->  live'
//                        \________rollback (manual or guardrail)______/
//
//   * shadow: a deterministic sample of traffic is MIRRORED to the staged
//     candidate; the caller's reply always comes from the live version
//     (mirroring never blocks or fails the primary reply), while a
//     background comparator records output agreement and candidate errors;
//   * canary: a configurable percentage of real requests is ROUTED to the
//     candidate, selected by a deterministic hash of the request payload -
//     the same image always lands on the same side, so canary behavior is
//     reproducible and per-request attributable;
//   * promote: the candidate's fleet is hot-swapped under the live name
//     (InferenceServer::swap_model_with) - the displaced fleet drains, and
//     every accepted request is still answered exactly once, each by the
//     version that accepted it;
//   * rollback: the candidate is dropped; an auto-rollback fires when the
//     canary's p99 latency or error rate regresses past the guardrail,
//     judged by the same windowed evaluation the SLO engine runs
//     (obs::slo::window_delta over the fleets' cumulative histogram
//     buckets - each fleet's lifetime is the canary window).
//
// The controller is a routing facade: requests enter through its submit(),
// which forwards to the InferenceServer. Requests submitted directly to the
// server under the live name simply bypass the rollout split (they always
// hit the live version).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "deploy/model_store.hpp"
#include "serve/server.hpp"

namespace dsx::deploy {

/// Deterministic request hash (FNV-1a 64 over the image bytes) and its
/// canary bucket in [0, kRouteBuckets). Exposed so tests and callers can
/// predict which side of a split any request lands on.
inline constexpr int kRouteBuckets = 10000;
uint64_t request_hash(const Tensor& image);
int request_bucket(const Tensor& image);

struct RolloutOptions {
  /// Fraction of traffic mirrored to the candidate while in shadow.
  double shadow_fraction = 0.10;
  /// Default fraction routed to the candidate in canary (advance_to_canary
  /// can override per call).
  double canary_fraction = 0.25;
  /// Max |primary - candidate| output difference before a shadow compare
  /// counts as a mismatch.
  float shadow_tolerance = 1e-4f;
  /// Guardrail: canary-side candidate samples (answers since the canary
  /// opened, + errors) required before it arms.
  int64_t guardrail_min_samples = 16;
  /// Auto-rollback when candidate p99 exceeds this multiple of primary p99.
  /// Up to 150 samples a fleet's p99 is read below its two worst samples,
  /// so one stall cannot set either side's p99.
  double guardrail_max_p99_ratio = 3.0;
  /// Auto-rollback when candidate error rate exceeds this fraction.
  double guardrail_max_error_rate = 0.10;
  /// Canary submissions between automatic guardrail evaluations.
  int64_t guardrail_check_every = 8;
};

enum class Phase { kLive, kShadow, kCanary };
const char* phase_name(Phase phase);

struct ShadowStats {
  int64_t mirrored = 0;    // requests also sent to the candidate
  int64_t compared = 0;    // pairs whose outputs were both available
  int64_t mismatches = 0;  // compares beyond shadow_tolerance
  int64_t errors = 0;      // candidate-side failures while mirroring
  /// Mirrors shed by the candidate's deadline scheduling (DeadlineExceeded).
  /// Scheduling policy, not a model regression - kept out of `errors`, same
  /// convention as the canary path.
  int64_t shed = 0;
  double max_abs_diff = 0.0;
};

struct RolloutStatus {
  std::string name;
  std::string live_version;
  std::string candidate_version;  // empty when phase == kLive
  Phase phase = Phase::kLive;
  double split_fraction = 0.0;  // mirrored (shadow) or routed (canary)
  int64_t primary_requests = 0;
  int64_t candidate_requests = 0;
  double primary_p99_ms = 0.0;
  double candidate_p99_ms = 0.0;
  int64_t candidate_errors = 0;
  ShadowStats shadow;
  int64_t promotions = 0;
  bool rolled_back = false;      // last rollout ended in rollback
  std::string rollback_reason;   // why (guardrail detail or "manual")
};

class RolloutController {
 public:
  /// `server` and `store` must outlive the controller.
  RolloutController(serve::InferenceServer& server, ModelStore& store,
                    RolloutOptions opts = {});
  ~RolloutController();

  RolloutController(const RolloutController&) = delete;
  RolloutController& operator=(const RolloutController&) = delete;

  /// Registers `version` from the store under `name` and starts managing
  /// the deployment. Compiles with store warm-start (see ModelStore).
  void deploy(const std::string& name, const std::string& version,
              serve::CompileOptions copts = {},
              serve::BatcherOptions bopts = {});

  /// Adopts a model already registered on the server (trained in-process,
  /// registered by hand) as the live `version_label` of deployment `name`.
  void adopt(const std::string& name, const std::string& version_label);

  /// Stages `version` from the store as the candidate: compiles it
  /// (warm-starting from its stored tuning cache), registers it under a
  /// hidden name, and enters SHADOW at opts.shadow_fraction. Requires the
  /// deployment to be in phase kLive.
  void stage(const std::string& name, const std::string& version,
             serve::CompileOptions copts = {},
             serve::BatcherOptions bopts = {});

  /// SHADOW -> CANARY at `fraction` (< 0 = opts.canary_fraction).
  void advance_to_canary(const std::string& name, double fraction = -1.0);

  /// Routes one request through the rollout split. Thread-safe. The reply
  /// always reflects exactly one model execution: live (plus an invisible
  /// mirror in shadow) or candidate (canary bucket). A candidate-side
  /// submit failure in canary falls back to the live version - callers
  /// never pay for a sick candidate.
  ///
  /// Future semantics caveat: requests touched by an active rollout (the
  /// shadow-mirrored and canary-candidate sides) return a deferred wrapper
  /// around the underlying reply - get() behaves identically (one answer or
  /// the original exception), but wait_for()/wait_until() report
  /// future_status::deferred instead of counting down. Callers that poll
  /// readiness should do so on futures obtained from the server directly.
  std::future<Tensor> submit(const std::string& name, const Tensor& image,
                             shard::SubmitOptions sopts = {});
  Tensor infer(const std::string& name, const Tensor& image,
               shard::SubmitOptions sopts = {}) {
    return submit(name, image, sopts).get();
  }

  /// Hot-swaps the candidate under the live name (exactly-once across the
  /// swap; see InferenceServer::swap_model_with) and returns to kLive.
  serve::SwapReport promote(const std::string& name);

  /// Drops the candidate and returns to kLive.
  void rollback(const std::string& name, const std::string& reason = "manual");

  /// Evaluates the canary guardrail now (it also runs automatically every
  /// opts.guardrail_check_every canary submissions; an auto-trip stops
  /// routing immediately but drains the candidate fleet on a background
  /// reaper so no request pays for it). Returns true if it tripped and
  /// rolled the candidate back. This synchronous form also settles any
  /// in-flight auto-rollback drains before returning.
  bool check_guardrail(const std::string& name);

  /// Blocks until every mirrored shadow pair so far has been compared (the
  /// comparator is asynchronous; tests and status readers use this to see a
  /// settled ShadowStats).
  void drain_shadow_compares();

  RolloutStatus status(const std::string& name) const;

 private:
  /// Candidate-side counters. shared_ptr so reply wrappers and queued
  /// shadow compares outlive a rollback that drops the Deployment state.
  struct CandidateTrack {
    /// Canary-routed submission attempts - the guardrail's sample count.
    /// The controller's own ledger, not the fleet's answered counter, so
    /// shadow mirrors (answered or shed) can never dilute or understate it.
    std::atomic<int64_t> canary_attempts{0};
    std::atomic<int64_t> errors{0};  // canary-side failures
    std::mutex mu;                   // guards the shadow fields below
    ShadowStats shadow;
  };
  using TrackPtr = std::shared_ptr<CandidateTrack>;

  struct Deployment {
    std::string live_version;
    std::string candidate_version;
    std::string candidate_alias;  // server registry name of the candidate
    Phase phase = Phase::kLive;
    double fraction = 0.0;
    TrackPtr track;
    int64_t submits_until_check = 0;
    int64_t promotions = 0;
    bool rolled_back = false;
    std::string rollback_reason;
  };

  struct ShadowPair {
    std::shared_future<Tensor> primary;
    std::future<Tensor> candidate;
    TrackPtr track;
    float tolerance = 0.0f;
  };

  Deployment& deployment_locked(const std::string& name);
  const Deployment& deployment_locked(const std::string& name) const;
  void rollback_locked_candidate(const std::string& name,
                                 const std::string& reason);
  /// `synchronous` controls the tripped path's fleet drain: the explicit
  /// check_guardrail() drains inline; the submit()-path auto-check hands
  /// the drain to a reaper thread so no caller's request pays for it.
  bool evaluate_guardrail(const std::string& name, bool synchronous);
  void comparator_loop();

  serve::InferenceServer& server_;
  ModelStore& store_;
  const RolloutOptions opts_;

  mutable std::mutex mu_;
  std::map<std::string, Deployment> deployments_;
  /// Auto-rollback drains in flight (submit-path guardrail trips); joined
  /// by check_guardrail() and the destructor. Guarded by mu_.
  std::vector<std::thread> reapers_;

  // Shadow comparator: one background worker drains mirrored pairs.
  std::mutex shadow_mu_;
  std::condition_variable shadow_cv_;
  std::condition_variable shadow_idle_cv_;
  std::deque<ShadowPair> shadow_queue_;
  int64_t shadow_in_flight_ = 0;  // queued + currently comparing
  bool shadow_stop_ = false;
  std::thread comparator_;
};

}  // namespace dsx::deploy
