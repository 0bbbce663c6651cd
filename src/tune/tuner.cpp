#include "tune/tuner.hpp"

#include <algorithm>
#include <chrono>

#include "common/check.hpp"
#include "core/scc_kernels.hpp"
#include "explore/design_space.hpp"

namespace dsx::tune {

namespace {

double time_once_ns(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count();
}

/// Hopeless-candidate cutoff: anything this much slower than the round-1
/// best is dropped after one observation (the GEMM routes lose by 30-70x;
/// timing them k times just burns the CPU quota the close races need).
constexpr double kPruneFactor = 5.0;

/// Median-of-k per candidate with the candidates interleaved round-robin:
/// one timed run of each per round, and each round starting one position
/// later. Interleaving spreads throttling windows and scheduler bursts over
/// every candidate instead of condemning whichever was being measured; the
/// rotating start spreads the cold-cache penalty of following a
/// large-footprint candidate (the GEMM routes evict everything) so no fixed
/// position eats it every round. Both matter a lot on the loaded shared-CPU
/// substrates this tuner actually runs on. Candidates beyond kPruneFactor
/// of the first round's best keep their single sample and stop being run.
std::vector<double> measure_interleaved(
    const std::vector<std::function<void()>>& fns, int warmup, int iters) {
  for (int w = 0; w < warmup; ++w) {
    for (const auto& fn : fns) fn();
  }
  std::vector<std::vector<double>> times(fns.size());
  std::vector<bool> active(fns.size(), true);
  for (int it = 0; it < std::max(1, iters); ++it) {
    for (size_t i = 0; i < fns.size(); ++i) {
      const size_t idx = (i + static_cast<size_t>(it)) % fns.size();
      if (!active[idx]) continue;
      times[idx].push_back(time_once_ns(fns[idx]));
    }
    if (it == 0) {
      double best = times[0][0];
      for (const auto& t : times) best = std::min(best, t[0]);
      for (size_t i = 0; i < fns.size(); ++i) {
        if (times[i][0] > best * kPruneFactor) active[i] = false;
      }
    }
  }
  std::vector<double> medians(fns.size());
  for (size_t i = 0; i < fns.size(); ++i) {
    std::sort(times[i].begin(), times[i].end());
    medians[i] = times[i][times[i].size() / 2];
  }
  return medians;
}

/// Winner index among measured candidates. Candidates within `epsilon` of
/// the best median are one tie set - inside it, time differences are noise,
/// so the decision moves to explore::pareto_front over (minimize scratch
/// memory, maximize registry priority): the front's cheapest-memory point
/// wins and earlier-registered candidates dominate later ones. The default
/// implementation is registered first with zero scratch, so a non-default
/// winner is always a strictly-more-than-epsilon measured improvement.
size_t select_winner(const std::vector<CandidateTiming>& timings,
                     double epsilon) {
  DSX_CHECK(!timings.empty(), "tune: no candidates to select from");
  double best = timings.front().median_ns;
  for (const CandidateTiming& t : timings) best = std::min(best, t.median_ns);

  std::vector<explore::Candidate> pool;
  for (size_t i = 0; i < timings.size(); ++i) {
    if (timings[i].median_ns > best * (1.0 + epsilon)) continue;
    explore::Candidate c;
    c.mmacs = static_cast<double>(timings[i].scratch_floats);
    c.score = -static_cast<double>(i);    // registry order = priority
    c.kparams = static_cast<double>(i);   // carries the index through
    pool.push_back(c);
  }
  const std::vector<explore::Candidate> front = explore::pareto_front(pool);
  DSX_CHECK(!front.empty(), "tune: empty Pareto front");
  // Ascending mmacs (= scratch); the first entry is the cheapest-memory,
  // highest-priority survivor.
  return static_cast<size_t>(front.front().kparams);
}

TuningRecord make_record(const ProblemKey& key,
                         const std::vector<CandidateTiming>& timings,
                         size_t winner, int iters) {
  TuningRecord rec;
  rec.key = key;
  rec.variant = timings[winner].variant;
  rec.fidelity = timings[winner].fidelity;
  rec.median_ns = timings[winner].median_ns;
  rec.default_ns = timings.front().median_ns;  // registry default comes first
  rec.iters = iters;
  return rec;
}

/// Family-independent measure -> time -> select -> record sequence;
/// `make_runner(candidate)` supplies the family-specific execution closure.
template <typename Candidate, typename MakeRunner>
TuneResult measure_and_select(const ProblemKey& key,
                              const std::vector<Candidate>& candidates,
                              const TunerOptions& opts,
                              MakeRunner&& make_runner) {
  std::vector<std::function<void()>> fns;
  fns.reserve(candidates.size());
  for (const Candidate& c : candidates) fns.push_back(make_runner(c));
  const std::vector<double> medians =
      measure_interleaved(fns, opts.warmup, opts.iters);

  TuneResult result;
  for (size_t i = 0; i < candidates.size(); ++i) {
    result.timings.push_back({candidates[i].variant,
                              candidates[i].scratch_floats,
                              candidates[i].fidelity, medians[i]});
  }
  const size_t winner = select_winner(result.timings, opts.time_epsilon);
  result.record = make_record(key, result.timings, winner, opts.iters);
  return result;
}

}  // namespace

Tuner::Tuner(TunerOptions opts) : opts_(opts) {
  DSX_REQUIRE(opts_.warmup >= 0 && opts_.iters >= 1,
              "tune: warmup must be >= 0 and iters >= 1");
}

TuneResult Tuner::tune_scc(const ProblemKey& key, const Tensor& input,
                           const Tensor& weight, const Tensor* bias,
                           const scc::ChannelWindowMap& map) const {
  const std::vector<SCCCandidate> candidates =
      KernelRegistry::global().scc_forward(key, opts_.allow_fast_math);
  DSX_REQUIRE(!candidates.empty(), "tune: no SCC candidates registered");

  // Private scratch so the caller's arena never sees measurement traffic.
  Tensor out(scc::scc_output_shape(input.shape(), map));
  Workspace scratch;
  SCCProblem problem{&input, &weight, bias, &map, &scratch, &out};
  return measure_and_select(
      key, candidates, opts_, [&scratch, problem](const SCCCandidate& c) {
        // &c outlives the closure (it points into `candidates`).
        return std::function<void()>([&scratch, cand = &c, problem] {
          scratch.reset();
          cand->run(problem);
        });
      });
}

TuneResult Tuner::tune_conv2d(const ProblemKey& key, const Tensor& input,
                              const Tensor& weight, const Tensor* bias,
                              const Conv2dArgs& args) const {
  const std::vector<ConvCandidate> candidates =
      KernelRegistry::global().conv2d_forward(key, opts_.allow_fast_math);
  DSX_REQUIRE(!candidates.empty(), "tune: no conv2d candidates registered");

  Tensor out(conv2d_output_shape(input.shape(), weight.shape(), args));
  Workspace scratch;
  ConvProblem problem{&input, &weight, bias, &args, &scratch, &out};
  return measure_and_select(
      key, candidates, opts_, [&scratch, problem](const ConvCandidate& c) {
        return std::function<void()>([&scratch, cand = &c, problem] {
          scratch.reset();
          cand->run(problem);
        });
      });
}

TuneResult Tuner::tune_depthwise(const ProblemKey& key, const Tensor& input,
                                 const Tensor& weight, const Tensor* bias,
                                 const DepthwiseArgs& args) const {
  const std::vector<DepthwiseCandidate> candidates =
      KernelRegistry::global().depthwise_forward(key, opts_.allow_fast_math);
  DSX_REQUIRE(!candidates.empty(), "tune: no depthwise candidates registered");

  Tensor out(depthwise_output_shape(input.shape(), weight.shape(), args));
  Workspace scratch;
  DepthwiseProblem problem{&input, &weight, bias, &args, &scratch, &out};
  return measure_and_select(
      key, candidates, opts_,
      [&scratch, problem](const DepthwiseCandidate& c) {
        return std::function<void()>([&scratch, cand = &c, problem] {
          scratch.reset();
          cand->run(problem);
        });
      });
}

}  // namespace dsx::tune
