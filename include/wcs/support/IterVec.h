//===- wcs/support/IterVec.h - Small loop-iteration vectors -----*- C++ -*-===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fixed-capacity vector of loop iterator values. Loop nests in the
/// polyhedral model are shallow (PolyBench's deepest nest has four loops),
/// so a small inline array avoids any allocation in the simulators' loop
/// walks and in the symbolic tags' epoch table, which keeps one IterVec
/// per loop activation.
///
//===----------------------------------------------------------------------===//

#ifndef WCS_SUPPORT_ITERVEC_H
#define WCS_SUPPORT_ITERVEC_H

#include "wcs/support/Hashing.h"

#include <array>
#include <cassert>
#include <compare>
#include <cstdint>

namespace wcs {

/// Maximum supported loop-nest depth.
inline constexpr unsigned MaxLoopDepth = 8;

/// A loop iteration point: a short vector of iterator values.
class IterVec {
public:
  IterVec() = default;

  explicit IterVec(unsigned Size) : N(static_cast<uint8_t>(Size)) {
    assert(Size <= MaxLoopDepth && "loop nest too deep");
    V.fill(0);
  }

  IterVec(std::initializer_list<int64_t> Init) {
    assert(Init.size() <= MaxLoopDepth && "loop nest too deep");
    for (int64_t X : Init)
      V[N++] = X;
  }

  unsigned size() const { return N; }
  bool empty() const { return N == 0; }

  int64_t operator[](unsigned I) const {
    assert(I < N && "IterVec index out of range");
    return V[I];
  }
  int64_t &operator[](unsigned I) {
    assert(I < N && "IterVec index out of range");
    return V[I];
  }

  int64_t back() const {
    assert(N > 0 && "back() on empty IterVec");
    return V[N - 1];
  }
  int64_t &back() {
    assert(N > 0 && "back() on empty IterVec");
    return V[N - 1];
  }

  void push(int64_t X) {
    assert(N < MaxLoopDepth && "loop nest too deep");
    V[N++] = X;
  }
  void pop() {
    assert(N > 0 && "pop() on empty IterVec");
    --N;
  }

  /// Returns the first \p K components as a new vector.
  IterVec prefix(unsigned K) const {
    assert(K <= N && "prefix longer than vector");
    IterVec P;
    for (unsigned I = 0; I < K; ++I)
      P.push(V[I]);
    return P;
  }

  /// True if the first \p K components equal those of \p Other.
  bool prefixEquals(const IterVec &Other, unsigned K) const {
    assert(K <= N && K <= Other.N && "prefix longer than vector");
    for (unsigned I = 0; I < K; ++I)
      if (V[I] != Other.V[I])
        return false;
    return true;
  }

  friend bool operator==(const IterVec &A, const IterVec &B) {
    if (A.N != B.N)
      return false;
    for (unsigned I = 0; I < A.N; ++I)
      if (A.V[I] != B.V[I])
        return false;
    return true;
  }

  /// Lexicographic order (only meaningful for equal sizes).
  friend std::strong_ordering operator<=>(const IterVec &A, const IterVec &B) {
    assert(A.N == B.N && "lexicographic compare of different dimensions");
    for (unsigned I = 0; I < A.N; ++I)
      if (A.V[I] != B.V[I])
        return A.V[I] <=> B.V[I];
    return std::strong_ordering::equal;
  }

  uint64_t hash() const {
    HashStream H;
    H.add(static_cast<uint64_t>(N));
    for (unsigned I = 0; I < N; ++I)
      H.add(V[I]);
    return H.digest();
  }

private:
  std::array<int64_t, MaxLoopDepth> V = {};
  uint8_t N = 0;
};

} // namespace wcs

#endif // WCS_SUPPORT_ITERVEC_H
