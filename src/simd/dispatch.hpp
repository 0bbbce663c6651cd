// Runtime ISA dispatch for the vectorized CPU backend (dsx::simd).
//
// The binary carries three compilations of every simd kernel (scalar, SSE2,
// AVX2+FMA; see kernels.hpp) and picks one at runtime:
//
//   detect_isa()  - the widest level BOTH the executing CPU (cpuid) and this
//                   build (per-file arch flags) support;
//   active_isa()  - the level dispatch actually uses. Initialised once from
//                   the DSX_SIMD environment override (scalar|sse2|avx2,
//                   clamped to detect_isa() with a stderr warning), else
//                   detect_isa(). set_active_isa()/ScopedIsa re-pin it for
//                   tests and tools.
//
// tune::KernelRegistry enumerates one candidate per level <= active_isa()
// (variants "simd_sse2", "simd_avx2"; SCC and depthwise start at AVX2, their
// SSE2 tiles being the default kernels), so tuning records name the exact ISA
// they were measured on and a record from a wider host degrades to the
// default kernel instead of executing unsupported instructions.
#pragma once

#include <string>

#include "simd/kernels.hpp"

namespace dsx::simd {

enum class Isa : int {
  kScalar = 0,
  kSse2 = 1,
  kAvx2 = 2,
};

const char* isa_name(Isa isa);
/// Parses "scalar" / "sse2" / "avx2"; throws dsx::Error otherwise.
Isa parse_isa(const std::string& name);

/// Widest level supported by both the running CPU and this build.
Isa detect_isa();

/// Level dispatch uses; first call applies the DSX_SIMD override.
Isa active_isa();
/// Re-pins active_isa(), clamped to detect_isa(). Returns the applied level.
Isa set_active_isa(Isa isa);

/// RAII active-ISA override (tests sweep every level the host offers).
class ScopedIsa {
 public:
  explicit ScopedIsa(Isa isa);
  ~ScopedIsa();
  ScopedIsa(const ScopedIsa&) = delete;
  ScopedIsa& operator=(const ScopedIsa&) = delete;

 private:
  Isa saved_;
};

/// True when `isa` can execute on this host with this build.
bool isa_available(Isa isa);

/// Kernel table for a level, clamped to detect_isa() - the returned table
/// always executes safely on this host.
const KernelTable& kernels(Isa isa);

}  // namespace dsx::simd
