//===- wcs/cache/CacheConfig.h - Cache geometry and policies ----*- C++ -*-===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cache geometry, replacement-policy and write-policy configuration
/// (paper Sec. 2 and Sec. 6.1). A cache is described by total size,
/// associativity and block size; the number of sets is derived and must be
/// a power of two (modulo placement, the paper's stated restriction).
///
//===----------------------------------------------------------------------===//

#ifndef WCS_CACHE_CACHECONFIG_H
#define WCS_CACHE_CACHECONFIG_H

#include <cstdint>
#include <string>
#include <vector>

namespace wcs {

/// Replacement policies supported by the simulator (paper Sec. 2.1).
/// All of them satisfy the data-independence property (Property 1).
enum class PolicyKind {
  Lru,        ///< Least-recently-used.
  Fifo,       ///< First-in first-out.
  Plru,       ///< Tree-based Pseudo-LRU (associativity must be 2^k).
  QuadAgeLru, ///< Quad-age LRU, modeled as 2-bit RRIP (paper ref. [40]).
};

/// Write-miss policy. Write-back vs write-through affects traffic, not
/// hit/miss classification, and is not modeled.
enum class WriteAllocate {
  Yes, ///< Write misses allocate the block (paper's default).
  No,  ///< Write misses bypass the cache.
};

const char *policyName(PolicyKind K);

/// Inverse of policyName, case-insensitive ("plru", "PLRU", ...). Also
/// accepts the wcs-sim spelling "qlru" for Quad-age LRU. Returns false
/// on an unknown name, leaving \p Out untouched.
bool parsePolicyName(const std::string &Name, PolicyKind &Out);

/// Geometry and policy of one cache level.
struct CacheConfig {
  uint64_t SizeBytes = 32 * 1024;
  unsigned Assoc = 8;
  unsigned BlockBytes = 64;
  PolicyKind Policy = PolicyKind::Lru;
  WriteAllocate WriteAlloc = WriteAllocate::Yes;

  unsigned numSets() const {
    return static_cast<unsigned>(SizeBytes / (Assoc * BlockBytes));
  }
  unsigned numLines() const { return numSets() * Assoc; }

  /// True for a fully-associative geometry (a single set).
  bool isFullyAssociative() const { return numSets() == 1; }

  /// True when the stack-distance model answers this cache: under LRU
  /// with write-allocate every access moves its block to the top of its
  /// set's recency stack, so a hit's depth is its per-set stack distance
  /// and one histogram gives the misses of every associativity. (A
  /// non-allocating write miss leaves the stack untouched in hardware
  /// but not in the histogram.)
  bool answeredByStackDistance() const {
    return Policy == PolicyKind::Lru && WriteAlloc == WriteAllocate::Yes;
  }

  /// Validates size/associativity/block-size consistency; returns an error
  /// message or the empty string.
  std::string validate() const;

  std::string str() const;

  /// Exact configuration equality (the sweep driver groups grid points
  /// that share an L1 by it).
  friend bool operator==(const CacheConfig &, const CacheConfig &) = default;

  /// The paper's test system L1: 32 KiB, 8-way, PLRU, 64 B lines.
  static CacheConfig testSystemL1();
  /// The paper's test system L2: 1 MiB, 16-way, Quad-age LRU, 64 B lines.
  static CacheConfig testSystemL2();
  /// Laptop-scaled variants preserving associativity and policy while
  /// restoring the paper's working-set/cache ratio at the scaled
  /// PolyBench problem sizes (see "Reproducing the paper's figures" in
  /// README.md): 4 KiB L1 (8 sets) and 32 KiB L2 (32 sets).
  static CacheConfig scaledL1();
  static CacheConfig scaledL2();
};

/// Inclusion policies of two-level hierarchies (paper Sec. 2.3 /
/// appendix A.2). The paper's implementation supports NINE; inclusive
/// and exclusive hierarchies also satisfy data independence, and this
/// implementation supports warping for all three.
enum class InclusionPolicy {
  NonInclusiveNonExclusive, ///< Levels evolve independently (Eq. (24)).
  Inclusive,  ///< L1 contents are a subset of L2 (back-invalidation).
  Exclusive,  ///< L1 and L2 contents are disjoint (victim caching).
};

const char *inclusionName(InclusionPolicy P);

/// Inverse of inclusionName, case-insensitive. Returns false on an
/// unknown name, leaving \p Out untouched.
bool parseInclusionName(const std::string &Name, InclusionPolicy &Out);

/// A one- or two-level cache hierarchy. Level 0 is the L1.
struct HierarchyConfig {
  std::vector<CacheConfig> Levels;
  InclusionPolicy Inclusion = InclusionPolicy::NonInclusiveNonExclusive;

  static HierarchyConfig singleLevel(CacheConfig L1);
  static HierarchyConfig twoLevel(
      CacheConfig L1, CacheConfig L2,
      InclusionPolicy Inclusion =
          InclusionPolicy::NonInclusiveNonExclusive);

  unsigned numLevels() const { return static_cast<unsigned>(Levels.size()); }
  unsigned blockBytes() const { return Levels.front().BlockBytes; }

  std::string validate() const;
  std::string str() const;
};

} // namespace wcs

#endif // WCS_CACHE_CACHECONFIG_H
