//===- wcs/cache/CacheHierarchy.h - One/two-level hierarchies ---*- C++ -*-===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one/two-level cache hierarchy of the paper's Eq. (24), over any
/// line payload: the L2 is accessed exactly when the L1 misses, with the
/// same block. All three inclusion policies are supported (NINE;
/// inclusive with back-invalidation; exclusive with victim caching).
///
/// ConcreteHierarchy (ConcreteCache.h) and SymbolicHierarchy
/// (sim/SymbolicCache.h) are the two instantiations, so the concrete and
/// the symbolic walk share one per-access path and one batch loop. A
/// tagged payload (CacheLineTraits::HasTag) additionally refreshes the
/// tag of every line an access touches (the paper's SymUpSet), counts
/// L1 hit depths for depth profiles, and migrates the victim's tag in
/// exclusive hierarchies; untagged payloads compile none of that.
///
/// An optional writeback-propagation mode (concrete only) additionally
/// sends dirty L1 victims to the L2, for the richer reference model used
/// as "measured" ground truth in the accuracy experiments (Figs.
/// 11/13/14); the formal model used for warping does not propagate
/// victims, exactly as in the paper.
///
//===----------------------------------------------------------------------===//

#ifndef WCS_CACHE_CACHEHIERARCHY_H
#define WCS_CACHE_CACHEHIERARCHY_H

#include "wcs/cache/SetAssocCache.h"

#include <cassert>
#include <functional>
#include <vector>

namespace wcs {

/// Result of one hierarchy access. Sixteen bytes, so it returns in
/// registers on the per-access paths.
struct HierarchyOutcome {
  bool L1Hit = false;
  bool L2Accessed = false; ///< Only in two-level configurations.
  bool L2Hit = false;
  unsigned L2Writebacks = 0;      ///< Victim writes issued to the L2.
  unsigned L2WritebackMisses = 0; ///< Of those, how many missed in L2.
  unsigned BackInvalidations = 0; ///< Inclusive mode: L1 lines removed
                                  ///< because their L2 copy was evicted.
};
static_assert(sizeof(HierarchyOutcome) == 16, "returned in registers");

/// One element of a batched address stream: a block plus its access
/// direction, in program order. The polyhedral iterator fills arrays of
/// these (one innermost-loop chunk at a time) instead of making one
/// hierarchy call per access.
/// One word per access keeps a 1024-entry chunk at 8 KiB, small enough
/// to stay L1-resident between the generating and the consuming loop.
struct BatchedAccess {
  uint64_t Bits; ///< Block << 1 | IsWrite.

  static BatchedAccess make(BlockId Block, bool IsWrite) {
    return BatchedAccess{static_cast<uint64_t>(Block) << 1 |
                         static_cast<uint64_t>(IsWrite)};
  }
  BlockId block() const { return static_cast<BlockId>(Bits >> 1); }
  bool isWrite() const { return (Bits & 1) != 0; }
};

/// Counter deltas of one accessBatch call.
struct BatchCounters {
  uint64_t L1Accesses = 0;
  uint64_t L1Misses = 0;
  uint64_t L2Accesses = 0;
  uint64_t L2Misses = 0;
};

/// Observer of the L1 miss stream: called once per L1 miss, in program
/// order, with the block and the write flag. This is exactly the stream
/// a NINE L2 sees (trace/FilteredStream records through it), and because
/// hits never reach it, it rides the batched hot loop without forcing
/// per-access outcomes. The sink may throw; the exception propagates out
/// of accessBatch mid-chunk.
using L1MissSink = std::function<void(BlockId, bool IsWrite)>;

/// A one- or two-level hierarchy over line payload \p LineT.
/// Copyable: warp snapshots are whole-object copies.
template <typename LineT>
class CacheHierarchy {
  using Traits = CacheLineTraits<LineT>;

public:
  using Cache = SetAssocCache<LineT>;
  using TagT = typename Cache::TagT;
  using TagCursor = typename Traits::TagCursor;

  explicit CacheHierarchy(const HierarchyConfig &Config,
                          bool PropagateWritebacks = false);

  unsigned numLevels() const { return static_cast<unsigned>(Levels.size()); }

  Cache &level(unsigned I) { return Levels[I]; }
  const Cache &level(unsigned I) const { return Levels[I]; }

  /// Performs one memory access (paper Eq. (24) extended to writes). A
  /// tagged payload stores \p Tag in every line the access touches, and
  /// with a nonnull \p DepthHist counts an L1 hit at its pre-update way,
  /// like accessBatch.
  HierarchyOutcome access(BlockId B, bool IsWrite, const TagT &Tag = TagT(),
                          uint64_t *DepthHist = nullptr);

  /// Performs \p N accesses in order, accumulating counter deltas into
  /// \p C. Semantically identical to N access() calls, but the L1
  /// replacement policy -- and, for the common way counts, the L1
  /// associativity -- is dispatched once for the whole chunk and the
  /// L1-hit fast path never leaves the loop; only L1 misses take the
  /// (runtime-dispatched) lower-level leg and, when \p Sink is nonnull,
  /// the miss-sink call. \p Tags yields the tag of each op in turn
  /// (tagged payloads only). \p DepthHist, when nonnull (tagged payloads
  /// only), counts every L1 hit at its pre-update way.
  void accessBatch(const BatchedAccess *Ops, size_t N, BatchCounters &C,
                   TagCursor Tags = TagCursor(),
                   const L1MissSink *Sink = nullptr,
                   uint64_t *DepthHist = nullptr);

private:
  /// The below-L1 leg of access(): everything that happens after an L1
  /// miss in a two-level hierarchy (shared by access and accessBatch).
  /// \p O1 is the L1 outcome of the miss; fills the L2 fields of \p R.
  void lowerLevels(BlockId B, bool IsWrite, bool Alloc1,
                   const AccessOutcome &O1, const TagT &Tag,
                   HierarchyOutcome &R);

  /// Each (policy, associativity) instantiation stays its own function:
  /// GCC otherwise inlines all twelve hot loops into the dispatcher,
  /// which measured slower.
  template <PolicyKind P, unsigned CtAssoc>
  [[gnu::noinline]] void accessBatchImpl(const BatchedAccess *Ops, size_t N,
                                         BatchCounters &C, TagCursor Tags,
                                         const L1MissSink *Sink,
                                         uint64_t *DepthHist);
  /// Second dispatch stage: picks the compile-time associativity
  /// instantiation matching the L1 (0 = the runtime-assoc fallback).
  template <PolicyKind P>
  void accessBatchAs(const BatchedAccess *Ops, size_t N, BatchCounters &C,
                     TagCursor Tags, const L1MissSink *Sink,
                     uint64_t *DepthHist);

  InclusionPolicy Inclusion;
  bool Writebacks;
  std::vector<Cache> Levels;
};

//===----------------------------------------------------------------------===//
// Implementation. ConcreteCache.cpp and SymbolicCache.cpp instantiate it
// explicitly for the two payloads; their headers declare the
// instantiations extern.
//===----------------------------------------------------------------------===//

template <typename LineT>
CacheHierarchy<LineT>::CacheHierarchy(const HierarchyConfig &Config,
                                      bool PropagateWritebacks)
    : Inclusion(Config.Inclusion), Writebacks(PropagateWritebacks) {
  assert(Config.validate().empty() && "invalid hierarchy configuration");
  assert(!(Traits::HasTag && PropagateWritebacks) &&
         "the symbolic model propagates no writebacks");
  for (const CacheConfig &C : Config.Levels)
    Levels.emplace_back(C);
}

template <typename LineT>
HierarchyOutcome
CacheHierarchy<LineT>::access(BlockId B, bool IsWrite, const TagT &Tag,
                              [[maybe_unused]] uint64_t *DepthHist) {
  HierarchyOutcome R;
  Cache &L1 = Levels.front();
  bool Alloc1 = !(IsWrite && L1.config().WriteAlloc == WriteAllocate::No);
  AccessOutcome O1 = L1.access(B, Alloc1);
  R.L1Hit = O1.Hit;
  if (O1.Hit || O1.Inserted) {
    L1.orDirtyAt(O1.Set, O1.Way, IsWrite);
    if constexpr (Traits::HasTag) {
      L1.tagAt(O1.Set, O1.Way) = Tag;
      if (DepthHist && O1.Hit)
        ++DepthHist[O1.HitDepth];
    }
  }

  if (O1.Hit || Levels.size() < 2)
    return R;
  lowerLevels(B, IsWrite, Alloc1, O1, Tag, R);
  return R;
}

template <typename LineT>
void CacheHierarchy<LineT>::lowerLevels(BlockId B, bool IsWrite, bool Alloc1,
                                        const AccessOutcome &O1,
                                        [[maybe_unused]] const TagT &Tag,
                                        HierarchyOutcome &R) {
  Cache &L1 = Levels.front();
  Cache &L2 = Levels[1];
  bool Alloc2 = !(IsWrite && L2.config().WriteAlloc == WriteAllocate::No);
  R.L2Accessed = true;

  switch (Inclusion) {
  case InclusionPolicy::NonInclusiveNonExclusive:
  case InclusionPolicy::Inclusive: {
    // The L2 sees the same block (paper Eq. (24)); inclusively, an L2
    // victim additionally back-invalidates its L1 copy.
    AccessOutcome O2 = L2.access(B, Alloc2);
    R.L2Hit = O2.Hit;
    if (O2.Hit || O2.Inserted) {
      L2.orDirtyAt(O2.Set, O2.Way, IsWrite);
      if constexpr (Traits::HasTag)
        L2.tagAt(O2.Set, O2.Way) = Tag;
    }
    if (Inclusion == InclusionPolicy::Inclusive && O2.Inserted &&
        O2.EvictedValid && L1.invalidate(O2.EvictedBlock))
      ++R.BackInvalidations;
    // Optional richer model: a dirty L1 victim is written back to the L2.
    if (Writebacks && O1.Inserted && O1.EvictedDirty) {
      AccessOutcome WB = L2.access(O1.EvictedBlock, /*Allocate=*/true);
      if (WB.Hit || WB.Inserted)
        L2.setDirtyAt(WB.Set, WB.Way, true);
      if (Inclusion == InclusionPolicy::Inclusive && WB.Inserted &&
          WB.EvictedValid && L1.invalidate(WB.EvictedBlock))
        ++R.BackInvalidations;
      ++R.L2Writebacks;
      if (!WB.Hit)
        ++R.L2WritebackMisses;
    }
    break;
  }
  case InclusionPolicy::Exclusive: {
    if (!Alloc1) {
      // Bypassed write miss: look up the L2 without promoting.
      R.L2Hit = L2.probe(B);
      break;
    }
    // Promotion: the block leaves the L2 (if present) and lives in the
    // L1 only -- whatever tag its L2 copy carried is gone, the access
    // re-tagged the L1 slot already. The L1 victim becomes an L2
    // resident *keeping its own tag*, so the warping bijection checks
    // continue to see its installing access instance.
    std::optional<LineT> InL2 = L2.invalidate(B);
    R.L2Hit = InL2.has_value();
    if (InL2)
      L1.orDirtyAt(O1.Set, O1.Way, InL2->Dirty);
    if (O1.Inserted && O1.EvictedValid) {
      AccessOutcome OV = L2.access(O1.EvictedBlock, /*Allocate=*/true);
      if (OV.Inserted)
        L2.setDirtyAt(OV.Set, OV.Way, O1.EvictedDirty);
      else if (OV.Hit)
        L2.orDirtyAt(OV.Set, OV.Way, O1.EvictedDirty);
      if constexpr (Traits::HasTag)
        if (OV.Hit || OV.Inserted)
          L2.tagAt(OV.Set, OV.Way) = L1.lastEvictedTag();
    }
    break;
  }
  }
}

template <typename LineT>
template <PolicyKind P, unsigned CtAssoc>
void CacheHierarchy<LineT>::accessBatchImpl(
    const BatchedAccess *Ops, size_t N, BatchCounters &C,
    [[maybe_unused]] TagCursor Tags, const L1MissSink *Sink,
    [[maybe_unused]] uint64_t *DepthHist) {
  Cache &L1 = Levels.front();
  const bool NoWriteAlloc = L1.config().WriteAlloc == WriteAllocate::No;
  const bool TwoLevel = Levels.size() >= 2;
  C.L1Accesses += N;
  // Consecutive accesses to one block are guaranteed hits whose policy
  // update is idempotent (LRU: already most recent; FIFO: no-op; PLRU:
  // touch of the same way; QLRU: re-zeroing a zero hit age) -- only the
  // dirty OR of a write, and a tagged payload's tag refresh, still
  // matter. Sub-block strides and stride-0 operands make such runs
  // common, so they bypass the cache entirely. For QLRU the previous
  // access must itself have been a hit: a hit on a just-inserted line
  // ages it InsertAge -> HitAge, a real update.
  BlockId LastB = kInvalidBlock;
  unsigned LastSet = 0, LastWay = 0;
  for (size_t K = 0; K < N; ++K) {
    BlockId B = Ops[K].block();
    bool IsWrite = Ops[K].isWrite();
    [[maybe_unused]] TagT Tag = Tags.next();
    if (B == LastB) {
      if (IsWrite)
        L1.orDirtyAt(LastSet, LastWay, true);
      if constexpr (Traits::HasTag) {
        L1.tagAt(LastSet, LastWay) = Tag;
        if (DepthHist)
          ++DepthHist[LastWay];
      }
      continue;
    }
    bool Alloc1 = !(IsWrite && NoWriteAlloc);
    AccessOutcome O1 = L1.template accessAsNoMra<P, CtAssoc>(B, Alloc1);
    bool Resident = P == PolicyKind::QuadAgeLru ? O1.Hit
                                                : O1.Hit || O1.Inserted;
    LastB = Resident ? B : kInvalidBlock;
    LastSet = O1.Set;
    LastWay = O1.Way;
    if (O1.Hit) {
      if (IsWrite)
        L1.orDirtyAt(O1.Set, O1.Way, true);
      if constexpr (Traits::HasTag) {
        L1.tagAt(O1.Set, O1.Way) = Tag;
        if (DepthHist)
          ++DepthHist[O1.HitDepth];
      }
      continue;
    }
    ++C.L1Misses;
    if (Sink)
      (*Sink)(B, IsWrite);
    if (O1.Inserted) {
      if (IsWrite)
        L1.orDirtyAt(O1.Set, O1.Way, true);
      if constexpr (Traits::HasTag)
        L1.tagAt(O1.Set, O1.Way) = Tag;
    }
    if (!TwoLevel)
      continue;
    HierarchyOutcome R;
    lowerLevels(B, IsWrite, Alloc1, O1, Tag, R);
    ++C.L2Accesses;
    if (!R.L2Hit)
      ++C.L2Misses;
  }
  if (N != 0)
    L1.noteAccessedSet(L1.setOf(Ops[N - 1].block()));
}

template <typename LineT>
template <PolicyKind P>
void CacheHierarchy<LineT>::accessBatchAs(const BatchedAccess *Ops, size_t N,
                                          BatchCounters &C, TagCursor Tags,
                                          const L1MissSink *Sink,
                                          uint64_t *DepthHist) {
  switch (Levels.front().assoc()) {
  case 4:
    accessBatchImpl<P, 4>(Ops, N, C, Tags, Sink, DepthHist);
    break;
  case 8:
    accessBatchImpl<P, 8>(Ops, N, C, Tags, Sink, DepthHist);
    break;
  case 16:
    accessBatchImpl<P, 16>(Ops, N, C, Tags, Sink, DepthHist);
    break;
  default:
    accessBatchImpl<P, 0>(Ops, N, C, Tags, Sink, DepthHist);
    break;
  }
}

template <typename LineT>
void CacheHierarchy<LineT>::accessBatch(const BatchedAccess *Ops, size_t N,
                                        BatchCounters &C, TagCursor Tags,
                                        const L1MissSink *Sink,
                                        uint64_t *DepthHist) {
  switch (Levels.front().config().Policy) {
  case PolicyKind::Lru:
    accessBatchAs<PolicyKind::Lru>(Ops, N, C, Tags, Sink, DepthHist);
    break;
  case PolicyKind::Fifo:
    accessBatchAs<PolicyKind::Fifo>(Ops, N, C, Tags, Sink, DepthHist);
    break;
  case PolicyKind::Plru:
    accessBatchAs<PolicyKind::Plru>(Ops, N, C, Tags, Sink, DepthHist);
    break;
  case PolicyKind::QuadAgeLru:
    accessBatchAs<PolicyKind::QuadAgeLru>(Ops, N, C, Tags, Sink,
                                          DepthHist);
    break;
  }
}

} // namespace wcs

#endif // WCS_CACHE_CACHEHIERARCHY_H
