//===- wcs/support/Hashing.h - 64-bit hashing utilities ---------*- C++ -*-===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic 64-bit hashing used for symbolic cache-state keys and
/// for content-addressing canonicalized sweep requests in the wcs-serve
/// result store. The mixer is a cheap splitmix64-style function.
///
/// The warping simulator hashes the full symbolic cache state once per
/// loop-iteration probe (WarpEngine::stateKey). It does not stream the
/// state through HashStream: it sums independent hashCombine values,
/// one per (set, way) slot, each seeded by the slot's position, so the
/// per-slot mixes do not wait on each other. HashStream's order-
/// sensitive chain serves the byte/string entry points, word at a time,
/// so store keys are deterministic across platforms and runs (no
/// pointer or seed dependence).
///
//===----------------------------------------------------------------------===//

#ifndef WCS_SUPPORT_HASHING_H
#define WCS_SUPPORT_HASHING_H

#include <cstdint>
#include <cstring>
#include <string>

namespace wcs {

/// splitmix64 finalizer; a solid, fast 64-bit mixer.
inline uint64_t hashMix(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

/// Combines an existing hash with a new value, order-sensitively.
inline uint64_t hashCombine(uint64_t Seed, uint64_t Value) {
  return hashMix(Seed ^ (Value + 0x9e3779b97f4a7c15ULL + (Seed << 6) +
                         (Seed >> 2)));
}

/// Incremental order-sensitive hasher for streaming state fingerprints.
class HashStream {
public:
  void add(uint64_t V) { State = hashCombine(State, V); }
  void add(int64_t V) { add(static_cast<uint64_t>(V)); }
  void add(int32_t V) { add(static_cast<uint64_t>(static_cast<uint64_t>(V))); }
  void add(uint32_t V) { add(static_cast<uint64_t>(V)); }

  uint64_t digest() const { return State; }

private:
  uint64_t State = 0x2545f4914f6cdd1dULL;
};

/// Hashes a byte buffer: full little-endian words through the
/// order-sensitive combiner, then the (zero-padded) tail and the length
/// so "ab","c" and "a","bc" differ. Deterministic across platforms.
inline uint64_t hashBytes(const void *Data, size_t Len) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  HashStream H;
  size_t I = 0;
  for (; I + 8 <= Len; I += 8) {
    uint64_t W = 0;
    for (unsigned B = 0; B < 8; ++B)
      W |= static_cast<uint64_t>(P[I + B]) << (8 * B);
    H.add(W);
  }
  if (I < Len) {
    uint64_t W = 0;
    for (unsigned B = 0; I + B < Len; ++B)
      W |= static_cast<uint64_t>(P[I + B]) << (8 * B);
    H.add(W);
  }
  H.add(static_cast<uint64_t>(Len));
  return H.digest();
}

inline uint64_t hashString(const std::string &S) {
  return hashBytes(S.data(), S.size());
}

/// Renders a 64-bit hash as the fixed-width 16-digit lowercase hex the
/// result store uses as its content-address key.
inline std::string hashHex(uint64_t H) {
  static const char Digits[] = "0123456789abcdef";
  std::string S(16, '0');
  for (int I = 15; I >= 0; --I, H >>= 4)
    S[static_cast<size_t>(I)] = Digits[H & 0xf];
  return S;
}

} // namespace wcs

#endif // WCS_SUPPORT_HASHING_H
