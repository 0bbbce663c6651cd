// Registration of the dsx::simd kernels into tune::KernelRegistry.
//
// Called once by the KernelRegistry constructor, after the built-in
// candidates: the simd factories append one candidate per ISA level in
// (active_isa() clamped to the host, levels above scalar) to the conv2d
// forward family, and per level above SSE2 to SCC and depthwise forward
// (their SSE2 tiles are the built-in "fused" and "direct" defaults, so
// listing them again would time one kernel twice). Variants are named by
// level ("simd_sse2", "simd_avx2") so tuning-cache records pin the exact ISA
// they were measured on - a record replayed on a narrower host simply fails
// the registry lookup and degrades to the default kernel.
//
// Fidelity per tune contract: everything on the FMA path, and every
// packed-GEMM route, is kUlpBounded and therefore only enumerable under
// fast-math.
#pragma once

namespace dsx::tune {
class KernelRegistry;
}

namespace dsx::simd {

void register_simd_kernels(tune::KernelRegistry& registry);

}  // namespace dsx::simd
