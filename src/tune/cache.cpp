#include "tune/cache.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <vector>

#include "common/binary_io.hpp"
#include "common/check.hpp"

namespace dsx::tune {

namespace {

constexpr char kMagic[4] = {'D', 'S', 'X', 'U'};

// Checked little-endian stream primitives shared with the deploy formats
// (a torn/truncated read throws dsx::Error from the helper itself).
using io::read_f64;
using io::read_i64;
using io::read_str;
using io::write_f64;
using io::write_i64;
using io::write_str;

void write_key(std::ostream& os, const ProblemKey& k) {
  write_i64(os, static_cast<int64_t>(k.op));
  write_i64(os, k.n);
  write_i64(os, k.c);
  write_i64(os, k.h);
  write_i64(os, k.w);
  write_i64(os, k.cout);
  write_i64(os, k.kernel);
  write_i64(os, k.stride);
  write_i64(os, k.pad);
  write_i64(os, k.groups);
  write_i64(os, k.gw);
  write_i64(os, k.step);
  write_i64(os, k.threads);
  write_i64(os, static_cast<int64_t>(k.dtype));
  write_i64(os, k.fast_math ? 1 : 0);
}

ProblemKey read_key(std::istream& is) {
  ProblemKey k;
  k.op = static_cast<OpFamily>(read_i64(is));
  k.n = read_i64(is);
  k.c = read_i64(is);
  k.h = read_i64(is);
  k.w = read_i64(is);
  k.cout = read_i64(is);
  k.kernel = read_i64(is);
  k.stride = read_i64(is);
  k.pad = read_i64(is);
  k.groups = read_i64(is);
  k.gw = read_i64(is);
  k.step = read_i64(is);
  k.threads = read_i64(is);
  k.dtype = static_cast<DType>(read_i64(is));
  const int64_t fast_math = read_i64(is);
  DSX_REQUIRE(fast_math == 0 || fast_math == 1,
              "TuningCache: invalid fast_math flag " << fast_math);
  k.fast_math = fast_math == 1;
  return k;
}

}  // namespace

std::optional<TuningRecord> TuningCache::find(const ProblemKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = records_.find(key);
  if (it == records_.end()) return std::nullopt;
  return it->second;
}

void TuningCache::put(const TuningRecord& record) {
  std::lock_guard<std::mutex> lock(mu_);
  records_[record.key] = record;
}

int64_t TuningCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(records_.size());
}

void TuningCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  records_.clear();
}

void TuningCache::save(std::ostream& os) const {
  std::vector<TuningRecord> snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot.reserve(records_.size());
    for (const auto& [key, rec] : records_) snapshot.push_back(rec);
  }
  os.write(kMagic, sizeof(kMagic));
  write_i64(os, kVersion);
  write_i64(os, static_cast<int64_t>(snapshot.size()));
  for (const TuningRecord& rec : snapshot) {
    write_key(os, rec.key);
    write_str(os, rec.variant);
    write_i64(os, static_cast<int64_t>(rec.fidelity));
    write_f64(os, rec.median_ns);
    write_f64(os, rec.default_ns);
    write_i64(os, rec.iters);
  }
  DSX_CHECK(os.good(), "TuningCache: stream write failed");
}

void TuningCache::load(std::istream& is) {
  char magic[4] = {};
  is.read(magic, sizeof(magic));
  DSX_REQUIRE(is.good() && std::memcmp(magic, kMagic, 4) == 0,
              "TuningCache: bad magic");
  const int64_t version = read_i64(is);
  DSX_REQUIRE(version == kVersion,
              "TuningCache: file version " << version << ", this build reads "
                                           << kVersion
                                           << " - delete the cache and retune");
  const int64_t count = read_i64(is);
  // A record is ~140 bytes on disk; a million of them is already far past
  // any real kernel menu, so anything larger is corruption, and bounding
  // here keeps the reserve() below from attempting a giant allocation.
  DSX_REQUIRE(count >= 0 && count <= (int64_t{1} << 20),
              "TuningCache: implausible record count " << count);
  std::vector<TuningRecord> loaded;
  loaded.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    TuningRecord rec;
    rec.key = read_key(is);
    rec.variant = read_str(is);
    const int64_t fidelity = read_i64(is);
    DSX_REQUIRE(fidelity == static_cast<int64_t>(Fidelity::kBitExact) ||
                    fidelity == static_cast<int64_t>(Fidelity::kUlpBounded),
                "TuningCache: invalid fidelity " << fidelity);
    rec.fidelity = static_cast<Fidelity>(fidelity);
    rec.median_ns = read_f64(is);
    rec.default_ns = read_f64(is);
    rec.iters = read_i64(is);
    loaded.push_back(std::move(rec));
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (TuningRecord& rec : loaded) records_[rec.key] = std::move(rec);
}

void TuningCache::save_file(const std::string& path) const {
  // Write-temp-then-rename so a crash mid-save can never leave a torn file
  // for the next process's warm-start load to choke on.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary);
    DSX_REQUIRE(os.is_open(), "TuningCache: cannot open " << tmp);
    save(os);
  }
  DSX_REQUIRE(std::rename(tmp.c_str(), path.c_str()) == 0,
              "TuningCache: cannot rename " << tmp << " to " << path);
}

void TuningCache::load_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  DSX_REQUIRE(is.is_open(), "TuningCache: cannot open " << path);
  load(is);
}

}  // namespace dsx::tune
