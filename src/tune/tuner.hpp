// Empirical measurement of registry candidates.
//
// The Tuner runs every candidate the KernelRegistry offers for a problem on
// the REAL tensors (the paper's design-exploration ethos applied to the
// implementation axis): warmup runs first, then median-of-k wall-clock
// timing, which is robust to the scheduler noise a 1-2 core substrate
// produces. Selection reuses dsx::explore's Pareto machinery for
// tie-breaking: candidates within a small time epsilon of the fastest are
// reduced to the (time, scratch-memory) Pareto front and the front's
// cheapest-memory point wins, with the registry's default-first ordering
// breaking exact ties - so the default implementation is never abandoned
// for noise.
//
// Measurement uses a private Workspace and a private output tensor; the
// caller's arena only ever sees the winner's allocation pattern (important:
// serve::CompiledModel sizes its arena from the dry run that tunes).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tune/cache.hpp"
#include "tune/registry.hpp"

namespace dsx::tune {

struct TunerOptions {
  int warmup = 1;  // untimed runs of every candidate before measuring
  int iters = 5;   // timed rounds; the per-candidate median is kept
  /// Candidates within this fraction of the best median count as ties and
  /// go to the Pareto tie-break instead of winning on noise. The default is
  /// deliberately generous: a shared-CPU substrate jitters by a few percent
  /// even with interleaved rounds, and the wins worth baking in are larger.
  double time_epsilon = 0.05;
  /// Admit Fidelity::kUlpBounded candidates (the simd FMA kernels) into the
  /// measured menu. Default off: the tuner then only ever selects from
  /// bit-exact candidates, preserving every bit-identity invariant.
  /// Dispatch overrides this from Session::allow_fast_math().
  bool allow_fast_math = false;
};

/// One candidate's measurement (kept for reports and bench JSON).
struct CandidateTiming {
  std::string variant;
  int64_t scratch_floats = 0;
  Fidelity fidelity = Fidelity::kBitExact;
  double median_ns = 0.0;
};

struct TuneResult {
  TuningRecord record;                  // the winner
  std::vector<CandidateTiming> timings; // every candidate, registry order
};

class Tuner {
 public:
  explicit Tuner(TunerOptions opts = {});

  /// Measures every registered SCC forward candidate for `key` on the given
  /// tensors and returns the winner. Does not touch the cache.
  TuneResult tune_scc(const ProblemKey& key, const Tensor& input,
                      const Tensor& weight, const Tensor* bias,
                      const scc::ChannelWindowMap& map) const;

  TuneResult tune_conv2d(const ProblemKey& key, const Tensor& input,
                         const Tensor& weight, const Tensor* bias,
                         const Conv2dArgs& args) const;

  TuneResult tune_depthwise(const ProblemKey& key, const Tensor& input,
                            const Tensor& weight, const Tensor* bias,
                            const DepthwiseArgs& args) const;

 private:
  TunerOptions opts_;
};

}  // namespace dsx::tune
