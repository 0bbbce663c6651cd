// Persistent store of tuning decisions.
//
// A TuningRecord pins the winning kernel variant for one ProblemKey plus
// the measured medians that justified it. The cache is an in-memory map with
// versioned on-disk persistence (binary, little-endian, magic "DSXU" - the
// same conventions as tensor/serialize), so a process warm-starts from a
// prior run's measurements instead of re-benchmarking every layer.
// Loading a file whose version does not match kVersion throws: a stale
// format must never silently decide kernels.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "tune/problem_key.hpp"

namespace dsx::tune {

struct TuningRecord {
  ProblemKey key;
  std::string variant;  // winning registry variant
  /// Numerical contract of the winner relative to the family default. A
  /// kUlpBounded record is only applied while fast-math is opted in;
  /// otherwise dispatch falls back to the default kernel (never a silent
  /// numerics change).
  Fidelity fidelity = Fidelity::kBitExact;
  double median_ns = 0.0;   // winner's median wall time
  double default_ns = 0.0;  // default candidate's median (speedup reporting)
  int64_t iters = 0;        // timing iterations behind the medians
};

/// Thread-safe record store. find() returns a copy so callers never hold
/// pointers across concurrent put()/clear().
class TuningCache {
 public:
  /// On-disk format version; bumped whenever the record layout changes.
  /// v2 added TuningRecord::fidelity - a v1 file has no way to say whether
  /// its winner was bit-exact, so loading one throws instead of guessing.
  /// v3 dropped the per-record grain slot (launch scheduling is no longer
  /// tuned); a v2 record would shift every later field by eight bytes.
  static constexpr int64_t kVersion = 3;

  std::optional<TuningRecord> find(const ProblemKey& key) const;
  void put(const TuningRecord& record);  // last writer wins
  int64_t size() const;
  void clear();

  /// Serializes every record; throws dsx::Error on stream failure.
  void save(std::ostream& os) const;
  /// Merges records from the stream into this cache (loaded records
  /// overwrite same-key entries); throws dsx::Error on bad magic, version
  /// mismatch, or truncation.
  void load(std::istream& is);

  void save_file(const std::string& path) const;
  void load_file(const std::string& path);

 private:
  mutable std::mutex mu_;
  std::map<ProblemKey, TuningRecord> records_;
};

}  // namespace dsx::tune
