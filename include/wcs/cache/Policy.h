//===- wcs/cache/Policy.h - Replacement policy primitives -------*- C++ -*-===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-set replacement-policy primitives shared by the concrete and the
/// symbolic cache (paper Sec. 2.1).
///
/// LRU and FIFO encode their state purely in the physical order of the
/// ways (most-recent / last-in first), matching the paper's formalization
/// where cache-line position equals recency rank; PLRU keeps per-set tree
/// bits and Quad-age LRU keeps one age byte (0..3) per way, both with
/// lines at fixed ways.
/// All primitives depend only on way indices and metadata — never on block
/// identities — which is exactly the data-independence property
/// (Property 1) that warping exploits.
///
//===----------------------------------------------------------------------===//

#ifndef WCS_CACHE_POLICY_H
#define WCS_CACHE_POLICY_H

#include <bit>
#include <cstdint>
#include <cstring>

namespace wcs {

/// Tree-based Pseudo-LRU over power-of-two associativity (enforced by
/// CacheConfig::validate). Tree bits are stored heap-style in a uint32
/// (node 1 = root); bit == 1 means "the victim path continues right".
/// Both operations run once per cache access, so they are branchless:
/// the tree walk consumes the bits of the way index (touch) or of the
/// tree word (victim) arithmetically instead of taking data-dependent
/// branches, which the access stream would mispredict constantly.
struct PlruOps {
  /// Updates \p Bits after an access to \p Way (points the path away).
  static void touch(uint32_t &Bits, unsigned Assoc, unsigned Way) {
    // Level K consumes bit K of Way, root first: bit 0 of the walk is
    // Way's top bit. Going left (bit 0) sets the node bit, going right
    // clears it; Node doubles down the heap either way.
    unsigned Node = 1;
    for (unsigned K = static_cast<unsigned>(__builtin_ctz(Assoc)); K-- > 0;) {
      unsigned Right = (Way >> K) & 1u;
      Bits = (Bits & ~(1u << Node)) | ((Right ^ 1u) << Node);
      Node = 2 * Node + Right;
    }
  }
  /// Returns the way selected for eviction by following the tree bits.
  static unsigned victim(uint32_t Bits, unsigned Assoc) {
    // Leaves of the perfect heap are nodes [Assoc, 2*Assoc), left to
    // right, so the leaf's way index is Node - Assoc.
    unsigned Node = 1;
    while (Node < Assoc)
      Node = 2 * Node + ((Bits >> Node) & 1u);
    return Node - Assoc;
  }
};

/// Quad-age LRU modeled as 2-bit RRIP (paper reference [40], Jaleel et
/// al.): hit promotes to age 0, insertion uses age 2, the victim is the
/// lowest-index way of age 3, aging all ways when none qualifies. The
/// "aging" step is applied by the caller via victimAging on the per-way
/// age array.
struct QlruOps {
  static constexpr uint8_t HitAge = 0;
  static constexpr uint8_t InsertAge = 2;
  static constexpr uint8_t EvictAge = 3;

  /// Selects a victim among \p Assoc ways, aging in place as needed.
  static unsigned victimAging(uint8_t *Ages, unsigned Assoc);

  /// victimAging at 8 ways, as one word-wide (SWAR) step over the eight
  /// age bytes: ages never exceed EvictAge, so aging until some way
  /// reaches it adds EvictAge minus the oldest age to every way at once,
  /// and the victim is then the lowest way at EvictAge. Same victim,
  /// same aged bytes as victimAging.
  static unsigned victimAging8(uint8_t *Ages) {
    constexpr uint64_t Ones = 0x0101010101010101ull;
    uint64_t W;
    std::memcpy(&W, Ages, sizeof(W));
    uint64_t At3 = W & (W >> 1) & Ones; // Ways already at EvictAge.
    unsigned Oldest =
        (W & (Ones << 1)) != 0 ? 2u + (At3 != 0) : unsigned(W != 0);
    W += (EvictAge - Oldest) * Ones; // No byte carries past EvictAge.
    std::memcpy(Ages, &W, sizeof(W));
    uint64_t AtEvict = W & (W >> 1) & Ones; // Never zero.
    // Memory order is byte order: lowest bytes first on little-endian
    // hosts, highest first on big-endian ones.
    return static_cast<unsigned>(std::endian::native == std::endian::little
                                     ? std::countr_zero(AtEvict)
                                     : std::countl_zero(AtEvict)) /
           8;
  }
};

} // namespace wcs

#endif // WCS_CACHE_POLICY_H
