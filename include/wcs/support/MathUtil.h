//===- wcs/support/MathUtil.h - Checked integer arithmetic ------*- C++ -*-===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small exact integer helpers used throughout the polyhedral substrate.
/// All routines operate on int64_t with __int128 intermediates so that
/// overflow can be detected instead of silently wrapping. The uint64
/// event-counter helpers at the end (mulCount, addCount) throw instead:
/// a simulator that scales counters -- a warp fast-forward, a skipped
/// run of repeated iterations -- must never report a wrapped count.
///
//===----------------------------------------------------------------------===//

#ifndef WCS_SUPPORT_MATHUTIL_H
#define WCS_SUPPORT_MATHUTIL_H

#include <cassert>
#include <cstdint>
#include <optional>
#include <stdexcept>

namespace wcs {

/// Floor division (rounds toward negative infinity), defined for Den != 0.
inline int64_t floorDiv(int64_t Num, int64_t Den) {
  assert(Den != 0 && "floorDiv by zero");
  int64_t Q = Num / Den;
  int64_t R = Num % Den;
  if (R != 0 && ((R < 0) != (Den < 0)))
    --Q;
  return Q;
}

/// Ceiling division (rounds toward positive infinity), defined for Den != 0.
inline int64_t ceilDiv(int64_t Num, int64_t Den) {
  assert(Den != 0 && "ceilDiv by zero");
  int64_t Q = Num / Den;
  int64_t R = Num % Den;
  if (R != 0 && ((R < 0) == (Den < 0)))
    ++Q;
  return Q;
}

/// Mathematical modulus: result is always in [0, |Den|).
inline int64_t floorMod(int64_t Num, int64_t Den) {
  return Num - floorDiv(Num, Den) * Den;
}

/// Greatest common divisor of |A| and |B|; gcd(0, 0) == 0.
inline int64_t gcd64(int64_t A, int64_t B) {
  if (A < 0)
    A = -A;
  if (B < 0)
    B = -B;
  while (B != 0) {
    int64_t T = A % B;
    A = B;
    B = T;
  }
  return A;
}

/// Returns A * B, or std::nullopt if the product does not fit in int64_t.
inline std::optional<int64_t> checkedMul(int64_t A, int64_t B) {
  __int128 P = static_cast<__int128>(A) * B;
  if (P > INT64_MAX || P < INT64_MIN)
    return std::nullopt;
  return static_cast<int64_t>(P);
}

/// Returns A + B, or std::nullopt on overflow.
inline std::optional<int64_t> checkedAdd(int64_t A, int64_t B) {
  __int128 S = static_cast<__int128>(A) + B;
  if (S > INT64_MAX || S < INT64_MIN)
    return std::nullopt;
  return static_cast<int64_t>(S);
}

/// True if V is a power of two (V > 0).
inline bool isPowerOf2(uint64_t V) { return V != 0 && (V & (V - 1)) == 0; }

/// log2 of a power of two.
inline unsigned log2Exact(uint64_t V) {
  assert(isPowerOf2(V) && "log2Exact of non-power-of-two");
  unsigned L = 0;
  while ((V >>= 1) != 0)
    ++L;
  return L;
}

/// Thrown by the counter helpers below; BatchRunner turns it into a
/// failed job whose error reads "counter overflow".
[[noreturn, gnu::cold, gnu::noinline]] inline void throwCounterOverflow() {
  throw std::overflow_error("counter overflow");
}

/// A * B for uint64 event counts; throws on overflow.
inline uint64_t mulCount(uint64_t A, uint64_t B) {
  uint64_t P;
  if (__builtin_mul_overflow(A, B, &P))
    throwCounterOverflow();
  return P;
}

/// Acc += V for uint64 event counts; throws on overflow.
inline void addCount(uint64_t &Acc, uint64_t V) {
  if (__builtin_add_overflow(Acc, V, &Acc))
    throwCounterOverflow();
}

} // namespace wcs

#endif // WCS_SUPPORT_MATHUTIL_H
