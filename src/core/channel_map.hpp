// Sliding-channel convolution (SCC) configuration and channel-window map.
//
// SCC (paper §III) replaces the pointwise stage of a depthwise-separable
// block. Each of the Cout filters covers a window of gw = Cin/cg input
// channels; adjacent filters' windows overlap by co*gw channels; the channel
// axis is cyclic (the window of late filters wraps to channel 0). Windows
// therefore repeat with period `cyclic_dist` (paper Fig. 5 / Algorithm 1),
// which both the fused kernels and the composition implementations exploit
// (the paper's "channel-cyclic optimization").
//
// Normative semantics (documented in DESIGN.md §5): the overlap in channels
// is llround(co*gw). The paper's Algorithm 1 writes int(co*gw) (floor), but
// its own example (Fig. 5(b): Cin=6, cg=2, co=33% -> cyclic_dist=3) requires
// rounding; `algorithm1_reference` reproduces the literal pseudo-code for
// cross-validation at exactly-representable overlaps.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace dsx::scc {

/// Full parameterisation of one SCC layer (paper notation: SCC-cgX-coY%).
struct SCCConfig {
  int64_t in_channels = 0;   // Cin
  int64_t out_channels = 0;  // Cout = number of filters
  int64_t groups = 1;        // cg
  double overlap = 0.5;      // co in [0, 1]
  int64_t stride = 1;

  std::string to_string() const;
};

/// One filter's input-channel window: channels {(start + k) mod Cin}.
struct ChannelWindow {
  int64_t start = 0;
  int64_t width = 0;
};

/// Precomputed window map for one SCC layer.
class ChannelWindowMap {
 public:
  explicit ChannelWindowMap(const SCCConfig& cfg);

  const SCCConfig& config() const { return cfg_; }
  /// gw = Cin / cg.
  int64_t group_width() const { return gw_; }
  /// Channels shared by adjacent filters, llround(co * gw).
  int64_t overlap_channels() const { return ov_; }
  /// Window start advance between adjacent filters (gw - overlap_channels).
  int64_t step() const { return step_; }
  /// Number of distinct windows before the pattern repeats (Algorithm 1).
  int64_t cyclic_dist() const { return cyclic_dist_; }

  /// Window of filter `f` (any 0 <= f < Cout); O(1) via the cyclic table.
  ChannelWindow window(int64_t filter) const;
  /// The one-cycle start table, [cyclic_dist()]: filter f's window starts
  /// at cycle_starts()[f % cyclic_dist()]. Unchecked, for kernel loops that
  /// already bound f by Cout.
  const int64_t* cycle_starts() const { return cycle_starts_.data(); }
  /// Input channel read by weight tap k of filter f: (start_f + k) mod Cin.
  int64_t input_channel(int64_t filter, int64_t k) const;

  /// (filter, tap) pairs reading a given input channel, across all Cout
  /// filters - the gather list of the input-centric backward pass.
  struct Contributor {
    int64_t filter = 0;
    int64_t k = 0;
  };
  const std::vector<Contributor>& contributors(int64_t in_channel) const;

  /// Literal transcription of the paper's Algorithm 1 (floor-based overlap);
  /// returns the (start, end) pairs of one cycle, end possibly > Cin before
  /// the modulo. Exposed for tests that cross-validate the closed form.
  static std::vector<std::pair<int64_t, int64_t>> algorithm1_reference(
      int64_t in_channels, int64_t num_groups, double overlap,
      int64_t out_channels);

 private:
  SCCConfig cfg_;
  int64_t gw_ = 0;
  int64_t ov_ = 0;
  int64_t step_ = 0;
  int64_t cyclic_dist_ = 0;
  std::vector<int64_t> cycle_starts_;                  // [cyclic_dist]
  std::vector<std::vector<Contributor>> contributors_;  // [Cin]
};

}  // namespace dsx::scc
