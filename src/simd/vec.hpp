// Fixed-width Vec<float> abstraction for the per-ISA kernel translation
// units (dsx::simd).
//
// This header is NOT meant for general inclusion: a kernel TU defines
//   DSX_SIMD_LEVEL   0 = scalar, 1 = SSE2, 2 = AVX2+FMA
//   DSX_SIMD_NS      scalar | sse2 | avx2
// and then includes it, getting a `Vec` type plus load/store/arithmetic
// helpers inside `namespace dsx::simd::DSX_SIMD_NS`. Because each TU uses a
// distinct namespace, three copies of the same generic kernel body
// (kernels_impl.inc) coexist in one binary without ODR violations, and only
// the TU compiled with `-mavx2 -mfma` ever emits AVX2 instructions - the
// binary stays runnable on any x86-64 (or non-x86) host, with dispatch.cpp
// picking the widest table the CPU supports at runtime.
//
// Numerical contract (load-bearing for tune::Fidelity):
//   * level 0/1 `fmadd(a, b, c)` is add(mul(a, b), c) - two IEEE roundings
//     per lane, the exact op sequence of the scalar kernels. Lanes are
//     independent, so a kernel that preserves the scalar per-element
//     accumulation order is BIT-identical at these levels.
//   * level 2 `fmadd` is a true fused multiply-add (one rounding). Kernels
//     built on it are only ULP-bounded relative to the scalar reference
//     (tune::Fidelity::kUlpBounded; see simd::kMaxUlp).
//
// If the requested intrinsics are unavailable at compile time (non-x86
// target, or the build system could not apply the per-file arch flags), the
// level silently degrades to the best available; DSX_SIMD_COMPILED_LEVEL
// records what was actually achieved so the dispatch table never advertises
// an ISA the TU cannot execute.
#pragma once

#include <cstdint>

#ifndef DSX_SIMD_LEVEL
#error "define DSX_SIMD_LEVEL (0|1|2) before including simd/vec.hpp"
#endif
#ifndef DSX_SIMD_NS
#error "define DSX_SIMD_NS (scalar|sse2|avx2) before including simd/vec.hpp"
#endif

// Degrade gracefully when the toolchain/target cannot honor the request.
#if DSX_SIMD_LEVEL >= 2 && defined(__AVX2__) && defined(__FMA__)
#define DSX_SIMD_COMPILED_LEVEL 2
#include <immintrin.h>
#elif DSX_SIMD_LEVEL >= 1 && (defined(__SSE2__) || defined(_M_X64))
#define DSX_SIMD_COMPILED_LEVEL 1
#include <emmintrin.h>
#else
#define DSX_SIMD_COMPILED_LEVEL 0
#endif

namespace dsx::simd::DSX_SIMD_NS {

#if DSX_SIMD_COMPILED_LEVEL == 2

inline constexpr int kWidth = 8;

struct Vec {
  __m256 v;
};

inline Vec vzero() { return {_mm256_setzero_ps()}; }
inline Vec vbroadcast(float x) { return {_mm256_set1_ps(x)}; }
inline Vec vload(const float* p) { return {_mm256_loadu_ps(p)}; }
inline void vstore(float* p, Vec a) { _mm256_storeu_ps(p, a.v); }
inline Vec vadd(Vec a, Vec b) { return {_mm256_add_ps(a.v, b.v)}; }
inline Vec vmul(Vec a, Vec b) { return {_mm256_mul_ps(a.v, b.v)}; }
inline Vec vmax(Vec a, Vec b) { return {_mm256_max_ps(a.v, b.v)}; }
/// One-rounding fused multiply-add: a*b + c.
inline Vec vfmadd(Vec a, Vec b, Vec c) {
  return {_mm256_fmadd_ps(a.v, b.v, c.v)};
}

/// Static lane-mask table for the tail paths (one aligned load instead of
/// rebuilding the mask lane-by-lane on every call - the SCC/depthwise inner
/// loops hit a partial op once per tap on tail tiles).
inline __m256i tail_mask(int64_t n) {
  alignas(32) static const int32_t kMasks[8][8] = {
      {0, 0, 0, 0, 0, 0, 0, 0},
      {-1, 0, 0, 0, 0, 0, 0, 0},
      {-1, -1, 0, 0, 0, 0, 0, 0},
      {-1, -1, -1, 0, 0, 0, 0, 0},
      {-1, -1, -1, -1, 0, 0, 0, 0},
      {-1, -1, -1, -1, -1, 0, 0, 0},
      {-1, -1, -1, -1, -1, -1, 0, 0},
      {-1, -1, -1, -1, -1, -1, -1, 0},
  };
  return _mm256_load_si256(reinterpret_cast<const __m256i*>(kMasks[n]));
}

/// Loads the first n lanes (0 < n <= kWidth); missing lanes read as zero.
inline Vec vload_partial(const float* p, int64_t n) {
  if (n >= kWidth) return vload(p);
  return {_mm256_maskload_ps(p, tail_mask(n))};
}

/// Stores the first n lanes (0 < n <= kWidth); the rest of memory untouched.
inline void vstore_partial(float* p, Vec a, int64_t n) {
  if (n >= kWidth) {
    vstore(p, a);
    return;
  }
  _mm256_maskstore_ps(p, tail_mask(n), a.v);
}

/// Transposes the kWidth x kWidth lane matrix held in r[0..kWidth): lane p of
/// r[l] becomes lane l of r[p]. Pure data movement, no arithmetic.
inline void vtranspose(Vec* r) {
  const __m256 t0 = _mm256_unpacklo_ps(r[0].v, r[1].v);
  const __m256 t1 = _mm256_unpackhi_ps(r[0].v, r[1].v);
  const __m256 t2 = _mm256_unpacklo_ps(r[2].v, r[3].v);
  const __m256 t3 = _mm256_unpackhi_ps(r[2].v, r[3].v);
  const __m256 t4 = _mm256_unpacklo_ps(r[4].v, r[5].v);
  const __m256 t5 = _mm256_unpackhi_ps(r[4].v, r[5].v);
  const __m256 t6 = _mm256_unpacklo_ps(r[6].v, r[7].v);
  const __m256 t7 = _mm256_unpackhi_ps(r[6].v, r[7].v);
  const __m256 s0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
  r[0].v = _mm256_permute2f128_ps(s0, s4, 0x20);
  r[1].v = _mm256_permute2f128_ps(s1, s5, 0x20);
  r[2].v = _mm256_permute2f128_ps(s2, s6, 0x20);
  r[3].v = _mm256_permute2f128_ps(s3, s7, 0x20);
  r[4].v = _mm256_permute2f128_ps(s0, s4, 0x31);
  r[5].v = _mm256_permute2f128_ps(s1, s5, 0x31);
  r[6].v = _mm256_permute2f128_ps(s2, s6, 0x31);
  r[7].v = _mm256_permute2f128_ps(s3, s7, 0x31);
}

#elif DSX_SIMD_COMPILED_LEVEL == 1

inline constexpr int kWidth = 4;

struct Vec {
  __m128 v;
};

inline Vec vzero() { return {_mm_setzero_ps()}; }
inline Vec vbroadcast(float x) { return {_mm_set1_ps(x)}; }
inline Vec vload(const float* p) { return {_mm_loadu_ps(p)}; }
inline void vstore(float* p, Vec a) { _mm_storeu_ps(p, a.v); }
inline Vec vadd(Vec a, Vec b) { return {_mm_add_ps(a.v, b.v)}; }
inline Vec vmul(Vec a, Vec b) { return {_mm_mul_ps(a.v, b.v)}; }
inline Vec vmax(Vec a, Vec b) { return {_mm_max_ps(a.v, b.v)}; }
/// Two roundings (mul then add) - the scalar op sequence, per lane.
inline Vec vfmadd(Vec a, Vec b, Vec c) {
  return {_mm_add_ps(_mm_mul_ps(a.v, b.v), c.v)};
}

inline Vec vload_partial(const float* p, int64_t n) {
  if (n >= kWidth) return vload(p);
  alignas(16) float tmp[kWidth] = {};
  for (int64_t i = 0; i < n; ++i) tmp[i] = p[i];
  return {_mm_load_ps(tmp)};
}

inline void vstore_partial(float* p, Vec a, int64_t n) {
  if (n >= kWidth) {
    vstore(p, a);
    return;
  }
  alignas(16) float tmp[kWidth];
  _mm_store_ps(tmp, a.v);
  for (int64_t i = 0; i < n; ++i) p[i] = tmp[i];
}

/// Transposes the 4 x 4 lane matrix held in r[0..4) (see the AVX2 level).
inline void vtranspose(Vec* r) {
  _MM_TRANSPOSE4_PS(r[0].v, r[1].v, r[2].v, r[3].v);
}

#else  // scalar fallback

inline constexpr int kWidth = 1;

struct Vec {
  float v;
};

inline Vec vzero() { return {0.0f}; }
inline Vec vbroadcast(float x) { return {x}; }
inline Vec vload(const float* p) { return {*p}; }
inline void vstore(float* p, Vec a) { *p = a.v; }
inline Vec vadd(Vec a, Vec b) { return {a.v + b.v}; }
inline Vec vmul(Vec a, Vec b) { return {a.v * b.v}; }
inline Vec vmax(Vec a, Vec b) { return {a.v > b.v ? a.v : b.v}; }
inline Vec vfmadd(Vec a, Vec b, Vec c) { return {a.v * b.v + c.v}; }

inline Vec vload_partial(const float* p, int64_t n) {
  return n >= 1 ? vload(p) : vzero();
}
inline void vstore_partial(float* p, Vec a, int64_t n) {
  if (n >= 1) vstore(p, a);
}

/// A one-lane matrix is its own transpose.
inline void vtranspose(Vec*) {}

#endif

}  // namespace dsx::simd::DSX_SIMD_NS
