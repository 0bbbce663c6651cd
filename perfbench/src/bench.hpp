// Shared pieces of the perfbench harness: clocks, quantiles, seeded inputs,
// the models under test, the result report and the in-memory span log.
//
// Everything here sits OUTSIDE the library: the benchmark times calls into
// the public API of each layer and reads the counters the program already
// exports; it never patches library code.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "deploy/arch_spec.hpp"
#include "serve/compiled_model.hpp"
#include "tensor/tensor.hpp"

namespace dsx::deploy {
class ModelStore;
}

namespace perfbench {

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(int64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

/// Nearest-rank quantile (q in [0, 1]) of an unsorted sample; 0 when empty.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Independent sub-seed `stream` of the workload seed (SplitMix64), so model
/// weights, images and request sequences never share a random stream.
uint64_t derive_seed(uint64_t seed, uint64_t stream);

inline constexpr uint64_t kSeedWeights = 1;
inline constexpr uint64_t kSeedImages = 2;
inline constexpr uint64_t kSeedSequence = 3;

// ---- models under test ------------------------------------------------------

/// MobileNet DW+SCC as served: x0.25 width, 16x16 input, 10 classes.
dsx::deploy::ArchSpec serving_spec(uint64_t weight_seed, int64_t cg = 4,
                                   double co = 0.5);
/// The same family at full width on 32x32 inputs (offline throughput).
dsx::deploy::ArchSpec large_spec(uint64_t weight_seed);

inline constexpr int64_t kMaxBatch = 8;

/// The residency design points: three (cg, co) variants of the serving
/// model, stored as m0..m2.
std::vector<dsx::deploy::ArchSpec> design_points(uint64_t weight_seed);

/// Saves the design points as version "v1" of m0..m2, without a tuning
/// cache (their fault-in compiles are library-default kOff); returns the
/// names.
std::vector<std::string> save_design_points(dsx::deploy::ModelStore& store,
                                            uint64_t weight_seed);

/// A residency budget (floats) that fits the two costliest stored models
/// but never all three.
int64_t two_model_budget(const dsx::deploy::ModelStore& store,
                         const std::vector<std::string>& names);

/// Library-default compile options (tune::Mode::kOff, no fast-math) at max
/// batch 8.
dsx::serve::CompileOptions default_compile();

/// Compiles `spec` with default_compile().
std::unique_ptr<dsx::serve::CompiledModel> compile_spec(
    const dsx::deploy::ArchSpec& spec);

/// `count` seeded [1, C, H, W] images for `spec`.
std::vector<dsx::Tensor> make_images(const dsx::deploy::ArchSpec& spec,
                                     int count, uint64_t seed);

/// Per-image run() logits of `plan` for every image: the bit-exact
/// reference replies and batch rows are compared against.
std::vector<std::vector<float>> reference_logits(
    dsx::serve::CompiledModel& plan, const std::vector<dsx::Tensor>& images);

/// True when `n` floats at `got` equal `want` bit for bit.
bool same_bits(const float* got, const std::vector<float>& want, int64_t n);

// ---- results ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run prints: a readable line per metric and per measured phase,
/// then the one-line JSON result for tools.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  /// A free-form line printed before the metrics (phase sample counts...).
  void note(const std::string& line);
  void count(int64_t attempted, int64_t failed, int64_t mismatches);

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

  /// Prints the notes, one "name value unit" line per metric, then the JSON.
  void print() const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int64_t mismatches_ = 0;
};

// ---- tracing ----------------------------------------------------------------

/// Spans the benchmark records around its calls into each layer. Kept in
/// memory (mutex-guarded: recording sites run at request rate, not kernel
/// rate) and written once, as Chrome trace-event JSON, when the run ends.
class SpanLog {
 public:
  /// Records [start_ns, end_ns) under `parent` (0 = root) on `track`;
  /// returns the span's id.
  uint64_t add(const char* name, int64_t start_ns, int64_t end_ns,
               uint64_t parent = 0, int track = 0);
  size_t size() const;
  /// Writes every span; false when the file cannot be written.
  bool write_chrome_json(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    uint64_t id;
    uint64_t parent;
    int track;
  };
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Options every workload receives from the command line.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // span file of a traced run ("" = none)
  std::string scratch;    // directory for model stores
};

}  // namespace perfbench
