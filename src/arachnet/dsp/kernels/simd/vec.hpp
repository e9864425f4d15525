#pragma once

#include <cstddef>
#include <cstring>

namespace arachnet::dsp::simd {

/// Portable GCC/Clang vector-extension lane types. The 16-byte ones map to
/// one SSE2 or NEON register; the native 32-byte f32x8/f64x4 are the AVX2
/// tier's (one ymm register in a target("avx2,fma") function), and the
/// portable tier replaces them with Halves below.
using f32x4 = float __attribute__((vector_size(16)));
using f32x8 = float __attribute__((vector_size(32)));
using f64x2 = double __attribute__((vector_size(16)));
using f64x4 = double __attribute__((vector_size(32)));

/// Integer mask types for __builtin_shuffle (element size must match the
/// shuffled vector's element size).
using i32x4 = int __attribute__((vector_size(16)));
using i32x8 = int __attribute__((vector_size(32)));
using i64x2 = long long __attribute__((vector_size(16)));

/// A 32-byte vector held as two 16-byte registers: the portable tier's
/// f32x8/f64x4. A baseline build (SSE2, NEON) has no 32-byte register,
/// so GCC keeps a native f32x8 in memory and routes every operation on
/// it through the stack; a Halves pair stays in registers. Lane i is
/// lane i of the native vector and every operator applies the native
/// 16-byte one per half, so the arithmetic is identical lane for lane.
template <class H>
struct Halves {
  H lo;
  H hi;

  friend Halves operator+(Halves a, Halves b) noexcept {
    return {a.lo + b.lo, a.hi + b.hi};
  }
  friend Halves operator-(Halves a, Halves b) noexcept {
    return {a.lo - b.lo, a.hi - b.hi};
  }
  friend Halves operator*(Halves a, Halves b) noexcept {
    return {a.lo * b.lo, a.hi * b.hi};
  }
  Halves& operator+=(Halves b) noexcept {
    lo += b.lo;
    hi += b.hi;
    return *this;
  }
  auto operator[](std::size_t i) const noexcept {
    constexpr std::size_t kLanes = sizeof(H) / sizeof(lo[0]);
    return i < kLanes ? lo[i] : hi[i - kLanes];
  }
};

template <class V>
inline constexpr bool kIsHalves = false;
template <class H>
inline constexpr bool kIsHalves<Halves<H>> = true;

/// Unaligned load/store. Dereferencing a vector pointer assumes natural
/// alignment, which the interleaved complex buffers don't guarantee;
/// memcpy compiles to the unaligned vector move.
template <class V, class T>
inline V loadu(const T* p) noexcept {
  if constexpr (kIsHalves<V>) {
    using H = decltype(V::lo);
    return {loadu<H>(p), loadu<H>(p + sizeof(H) / sizeof(T))};
  } else {
    V v;
    std::memcpy(&v, p, sizeof(V));
    return v;
  }
}

template <class T, class V>
inline void storeu(T* p, V v) noexcept {
  if constexpr (kIsHalves<V>) {
    storeu(p, v.lo);
    storeu(p + sizeof(v.lo) / sizeof(T), v.hi);
  } else {
    std::memcpy(p, &v, sizeof(V));
  }
}

template <class V>
inline V broadcast8(float x) noexcept {
  return V{x, x, x, x, x, x, x, x};
}

/// Four doubles from `p`, narrowed to float32.
inline f32x4 load_narrow(const double* p) noexcept {
  return __builtin_convertvector(loadu<f64x4>(p), f32x4);
}

/// The shuffle rule. An 8-lane __builtin_shuffle on a baseline build is
/// lowered element by element through the stack, so on Halves every
/// shuffle below is a 4-lane __builtin_shuffle per half: one
/// shufps/unpcklps on SSE2 and NEON. A native 32-byte vector (only the
/// AVX2 tier uses one) keeps the single 8-lane shuffle, which AVX2 does
/// in one or two instructions where splitting into halves would add a
/// vextractf128/vinsertf128 pair. Native halves are taken with
/// __builtin_shufflevector, not memcpy: a memcpy-assembled vector is
/// written to the stack in halves and read back whole, a store-forwarding
/// stall on every join.
template <class H, class V>
inline H lo_half(V v) noexcept {
  if constexpr (kIsHalves<V>) {
    return v.lo;
  } else if constexpr (sizeof(v[0]) == 4) {
    return __builtin_shufflevector(v, v, 0, 1, 2, 3);
  } else {
    return __builtin_shufflevector(v, v, 0, 1);
  }
}

template <class H, class V>
inline H hi_half(V v) noexcept {
  if constexpr (kIsHalves<V>) {
    return v.hi;
  } else if constexpr (sizeof(v[0]) == 4) {
    return __builtin_shufflevector(v, v, 4, 5, 6, 7);
  } else {
    return __builtin_shufflevector(v, v, 2, 3);
  }
}

template <class V, class H>
inline V join(H lo, H hi) noexcept {
  if constexpr (kIsHalves<V>) {
    return {lo, hi};
  } else if constexpr (sizeof(lo[0]) == 4) {
    return __builtin_shufflevector(lo, hi, 0, 1, 2, 3, 4, 5, 6, 7);
  } else {
    return __builtin_shufflevector(lo, hi, 0, 1, 2, 3);
  }
}

/// The same in-half shuffle applied to both halves of x.
template <class V>
inline V shuffle_halves(V x, i32x4 m) noexcept {
  if constexpr (kIsHalves<V>) {
    return {__builtin_shuffle(x.lo, m), __builtin_shuffle(x.hi, m)};
  } else {
    const i32x8 m8 = {m[0], m[1], m[2], m[3], m[0] + 4, m[1] + 4, m[2] + 4,
                      m[3] + 4};
    return __builtin_shuffle(x, m8);
  }
}

template <class V>
inline V shuffle_halves(V x, i64x2 m) noexcept {
  static_assert(kIsHalves<V>, "native f64x4 shuffles are not needed");
  return {__builtin_shuffle(x.lo, m), __builtin_shuffle(x.hi, m)};
}

/// Eight floats (four interleaved complex samples) from `p`, complex
/// order reversed: {p[6], p[7], p[4], p[5], p[2], p[3], p[0], p[1]}.
template <class V>
inline V load_reversed_pairs(const float* p) noexcept {
  if constexpr (kIsHalves<V>) {
    constexpr i32x4 kSwap = {2, 3, 0, 1};
    return {__builtin_shuffle(loadu<f32x4>(p + 4), kSwap),
            __builtin_shuffle(loadu<f32x4>(p), kSwap)};
  } else {
    constexpr i32x8 kRev = {6, 7, 4, 5, 2, 3, 0, 1};
    return __builtin_shuffle(loadu<V>(p), kRev);
  }
}

/// Stores re/im lanes interleaved: {re0, im0, re1, im1, ..., re7, im7}.
template <class V>
inline void store_interleaved(float* out, V re, V im) noexcept {
  if constexpr (kIsHalves<V>) {
    constexpr i32x4 kLo = {0, 4, 1, 5};
    constexpr i32x4 kHi = {2, 6, 3, 7};
    storeu(out, __builtin_shuffle(re.lo, im.lo, kLo));
    storeu(out + 4, __builtin_shuffle(re.lo, im.lo, kHi));
    storeu(out + 8, __builtin_shuffle(re.hi, im.hi, kLo));
    storeu(out + 12, __builtin_shuffle(re.hi, im.hi, kHi));
  } else {
    constexpr i32x8 kLo = {0, 8, 1, 9, 2, 10, 3, 11};
    constexpr i32x8 kHi = {4, 12, 5, 13, 6, 14, 7, 15};
    storeu(out, __builtin_shuffle(re, im, kLo));
    storeu(out + 8, __builtin_shuffle(re, im, kHi));
  }
}

}  // namespace arachnet::dsp::simd
