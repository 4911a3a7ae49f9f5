//===- wcs/cache/CacheHierarchy.h - One/two-level hierarchies ---*- C++ -*-===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one/two-level cache hierarchy of the paper's Eq. (24), over a
/// line tag type: the L2 is accessed exactly when the L1 misses, with
/// the same block. All three inclusion policies are supported (NINE;
/// inclusive with back-invalidation; exclusive with victim caching).
///
/// ConcreteHierarchy (NoTag, ConcreteCache.h) and SymbolicHierarchy
/// (SymTag, sim/SymbolicCache.h) are the two instantiations, so the
/// concrete and the symbolic walk share one per-access path and one
/// batch loop. A tagged hierarchy (SetAssocCache::HasTag) additionally
/// refreshes the tag of every line an access touches (the paper's
/// SymUpSet), migrates the victim's tag in exclusive hierarchies, and
/// stamps every set it changes (see SetAssocCache::tick); the NoTag
/// instantiation compiles none of that.
///
/// Either instantiation counts L1 hit depths (pre-update ways) when
/// asked to: under LRU a hit's is its per-set stack distance, which the
/// warping depth profile (symbolic) and the stack-distance bank rows
/// (concrete) count. The batch loop picks a depth-counting instantiation
/// once per call, so a run without a histogram steps no depth code.
///
/// The batch loop also skips: a repeat marker in a chunk stands for
/// further applications of the iteration before it, and once one of them
/// hits everywhere in the L1 the cache state is a fixed point, so the
/// rest are counted as hits instead of simulated (see accessBatch for
/// the lemma that makes this exact).
///
/// As in the paper, the model decides hits and misses by allocation
/// alone and counts no write-back traffic: a write differs from a read
/// only at a no-write-allocate level, whose write misses bypass it.
///
//===----------------------------------------------------------------------===//

#ifndef WCS_CACHE_CACHEHIERARCHY_H
#define WCS_CACHE_CACHEHIERARCHY_H

#include "wcs/cache/SetAssocCache.h"

#include <cassert>
#include <functional>
#include <vector>

namespace wcs {

/// Result of one hierarchy access. Eight bytes, so it returns in a
/// register on the per-access paths.
struct HierarchyOutcome {
  bool L1Hit = false;
  bool L2Accessed = false; ///< Only in two-level configurations.
  bool L2Hit = false;
  unsigned BackInvalidations = 0; ///< Inclusive mode: L1 lines removed
                                  ///< because their L2 copy was evicted.
};
static_assert(sizeof(HierarchyOutcome) == 8, "returned in a register");

/// One element of a batched address stream: a block plus its access
/// direction, in program order. The polyhedral iterator fills arrays of
/// these (one innermost-loop chunk at a time) instead of making one
/// hierarchy call per access, and a filtered stream stores its records
/// in this encoding (trace/FilteredStream), so a replay hands them to
/// accessBatch as they are.
/// One word per access keeps a 1024-entry chunk at 8 KiB, small enough
/// to stay L1-resident between the generating and the consuming loop.
///
/// A repeat marker is the one exception: two words, a header with the
/// top bit set and the op count of the iteration right before it, then
/// a count (below 2^63) of further applications of that iteration (see
/// CacheHierarchy::accessBatch).
struct BatchedAccess {
  uint64_t Bits; ///< Block << 1 | IsWrite, or a repeat-marker word.

  static constexpr uint64_t RepeatBit = 1ull << 63;

  /// The top bit stays clear, so a block keeps its low 62 bits and
  /// block() sign-extends them: every block in [-2^61, 2^61) round-trips,
  /// which covers every block of 2 bytes or more at the addresses a
  /// program may reach (within +-2^62, see ScopProgram::finalize).
  static BatchedAccess make(BlockId Block, bool IsWrite) {
    return BatchedAccess{(static_cast<uint64_t>(Block) << 1 |
                          static_cast<uint64_t>(IsWrite)) &
                         ~RepeatBit};
  }
  /// The header of a repeat marker over the preceding \p IterOps ops.
  static BatchedAccess repeatHeader(size_t IterOps) {
    return BatchedAccess{RepeatBit | IterOps};
  }
  bool isRepeat() const { return (Bits & RepeatBit) != 0; }
  size_t iterOps() const { return static_cast<size_t>(Bits & ~RepeatBit); }
  BlockId block() const { return static_cast<BlockId>(Bits << 1) >> 2; }
  bool isWrite() const { return (Bits & 1) != 0; }

  friend bool operator==(BatchedAccess, BatchedAccess) = default;
};

/// Counter deltas of one accessBatch call. Every increment that a
/// repeat marker can scale is checked and throws
/// std::overflow_error("counter overflow") instead of wrapping.
struct BatchCounters {
  uint64_t L1Accesses = 0; ///< Skipped accesses included.
  uint64_t L1Misses = 0;
  uint64_t L2Accesses = 0;
  uint64_t L2Misses = 0;
  uint64_t SkippedAccesses = 0; ///< Counted as hits, not simulated.
};

/// Observer of the L1 miss stream: called once per L1 miss, in program
/// order, with the block and the write flag. This is exactly the stream
/// a NINE L2 sees (trace/FilteredStream records through it), and because
/// hits never reach it, it rides the batched hot loop without forcing
/// per-access outcomes. The sink may throw; the exception propagates out
/// of accessBatch mid-chunk.
using L1MissSink = std::function<void(BlockId, bool IsWrite)>;

/// A one- or two-level hierarchy whose lines carry a tag of type \p TagT.
/// Copyable: warp snapshots are whole-object copies.
template <typename TagT>
class CacheHierarchy {
public:
  using Cache = SetAssocCache<TagT>;
  using TagCursor = typename TagT::Cursor;

  explicit CacheHierarchy(const HierarchyConfig &Config);

  unsigned numLevels() const { return static_cast<unsigned>(Levels.size()); }

  Cache &level(unsigned I) { return Levels[I]; }
  const Cache &level(unsigned I) const { return Levels[I]; }

  /// Tagged hierarchies: ticks every level's modification clock
  /// (SetAssocCache::tick). The levels tick together from one start, so
  /// the returned value serves each of them.
  uint64_t tick()
    requires Cache::HasTag
  {
    uint64_t T = Levels.front().tick();
    for (size_t L = 1; L < Levels.size(); ++L) {
      [[maybe_unused]] uint64_t TL = Levels[L].tick();
      assert(TL == T && "levels tick together");
    }
    return T;
  }

  /// Tagged hierarchies: SetAssocCache::copyChangedSets at every level.
  /// Returns the number of sets copied.
  size_t copyChangedSets(const CacheHierarchy &Live, uint64_t Since)
    requires Cache::HasTag
  {
    size_t Copied = 0;
    for (size_t L = 0; L < Levels.size(); ++L)
      Copied += Levels[L].copyChangedSets(Live.Levels[L], Since);
    return Copied;
  }

  /// Performs one memory access (paper Eq. (24) extended to writes). A
  /// tagged hierarchy stores \p Tag in every line the access touches.
  /// With a nonnull \p DepthHist, an L1 hit counts at its pre-update way,
  /// like accessBatch.
  HierarchyOutcome access(BlockId B, bool IsWrite, TagT Tag = TagT(),
                          uint64_t *DepthHist = nullptr);

  /// Performs \p N accesses in order, accumulating counter deltas into
  /// \p C. Semantically identical to N access() calls, but the L1
  /// replacement policy -- and, for the common way counts, the L1
  /// associativity -- is dispatched once for the whole chunk and the
  /// L1-hit fast path never leaves the loop; only L1 misses take the
  /// (runtime-dispatched) lower-level leg and, when \p Sink is nonnull,
  /// the miss-sink call. \p Tags yields the tag of each op in turn
  /// (tagged hierarchies only). \p DepthHist, when nonnull, counts every L1
  /// hit at its pre-update way (under LRU, its per-set stack distance).
  ///
  /// A repeat marker (BatchedAccess::repeatHeader plus a count word)
  /// stands for that many more applications of the iteration right
  /// before it. They are applied until one application has no L1 miss;
  /// the rest are counted as L1 hits (C.SkippedAccesses) without
  /// touching the cache, which is exact by this lemma:
  ///
  ///   If every access of an op sequence S hits in the L1 from state s,
  ///   then S hits everywhere again from S(s), and S(S(s)) = S(s) in
  ///   blocks, recency order and PLRU/QLRU metadata.
  ///
  /// An all-hit S inserts and evicts nothing, so S(s) holds the blocks
  /// of s and S hits again. LRU then orders S's blocks by their last
  /// access in S ahead of the untouched ones, in their old order, from
  /// any start; PLRU sets each tree bit on a hit way's path to what the
  /// last touch through it wrote; QLRU sets each hit way's age to
  /// HitAge; a FIFO hit changes nothing. Only L1 misses reach the L2,
  /// the miss sink and back-invalidations, so none of those sees a
  /// skipped repetition. What does change is the symbolic tags: each
  /// line S touches takes the tag of the last access to its block in the
  /// run's last iteration. With \p DepthHist, one more application from
  /// the fixed point is simulated and its depths count once per
  /// remaining repetition.
  void accessBatch(const BatchedAccess *Ops, size_t N, BatchCounters &C,
                   TagCursor Tags = TagCursor(),
                   const L1MissSink *Sink = nullptr,
                   uint64_t *DepthHist = nullptr);

private:
  /// The below-L1 leg of access(): everything that happens after an L1
  /// miss in a two-level hierarchy (shared by access and accessBatch).
  /// \p O1 is the L1 outcome of the miss; fills the L2 fields of \p R.
  void lowerLevels(BlockId B, bool IsWrite, bool Alloc1,
                   const AccessOutcome &O1, TagT Tag, HierarchyOutcome &R);

  /// Chunk-invariant facts of the batch loop plus the previous access's
  /// block -- when it is known resident -- and its slot.
  struct BatchState {
    Cache &L1;
    bool NoWriteAlloc;
    bool TwoLevel;
    BlockId LastB = kInvalidBlock;
    unsigned LastSet = 0, LastWay = 0;
  };

  /// One op of the batch loop. With \p Depths, a hit's depth counts
  /// \p DepthWeight times in \p DepthHist.
  template <PolicyKind P, unsigned CtAssoc, bool Depths>
  [[gnu::always_inline]] inline void
  batchStep(BatchedAccess Op, TagT Tag, BatchState &S, BatchCounters &C,
            const L1MissSink *Sink, uint64_t *DepthHist,
            uint64_t DepthWeight);

  /// Applies the \p IterOps ops at \p Iter \p Count more times, skipping
  /// the repetitions after the first all-hit one (see accessBatch).
  /// Returns the tag cursor past the run.
  template <PolicyKind P, unsigned CtAssoc, bool Depths>
  [[gnu::noinline]] TagCursor
  repeatRun(const BatchedAccess *Iter, size_t IterOps, uint64_t Count,
            BatchState S, BatchCounters &C, TagCursor Tags,
            const L1MissSink *Sink, uint64_t *DepthHist);

  /// Each (policy, associativity, depth counting) instantiation stays
  /// its own function: GCC otherwise inlines all the hot loops into the
  /// dispatcher, which measured slower.
  template <PolicyKind P, unsigned CtAssoc, bool Depths>
  [[gnu::noinline]] void accessBatchImpl(const BatchedAccess *Ops, size_t N,
                                         BatchCounters &C, TagCursor Tags,
                                         const L1MissSink *Sink,
                                         uint64_t *DepthHist);
  /// First dispatch stage, once per call: the L1 replacement policy.
  template <bool Depths>
  void accessBatchFor(const BatchedAccess *Ops, size_t N, BatchCounters &C,
                      TagCursor Tags, const L1MissSink *Sink,
                      uint64_t *DepthHist);
  /// Second dispatch stage: picks the compile-time associativity
  /// instantiation matching the L1 (0 = the runtime-assoc fallback).
  template <PolicyKind P, bool Depths>
  void accessBatchAs(const BatchedAccess *Ops, size_t N, BatchCounters &C,
                     TagCursor Tags, const L1MissSink *Sink,
                     uint64_t *DepthHist);

  InclusionPolicy Inclusion;
  std::vector<Cache> Levels;
};

//===----------------------------------------------------------------------===//
// Implementation. ConcreteCache.cpp and SymbolicCache.cpp instantiate it
// explicitly for the two tag types; their headers declare the
// instantiations extern.
//===----------------------------------------------------------------------===//

template <typename TagT>
CacheHierarchy<TagT>::CacheHierarchy(const HierarchyConfig &Config)
    : Inclusion(Config.Inclusion) {
  assert(Config.validate().empty() && "invalid hierarchy configuration");
  for (const CacheConfig &C : Config.Levels)
    Levels.emplace_back(C);
}

template <typename TagT>
HierarchyOutcome
CacheHierarchy<TagT>::access(BlockId B, bool IsWrite, TagT Tag,
                             [[maybe_unused]] uint64_t *DepthHist) {
  HierarchyOutcome R;
  Cache &L1 = Levels.front();
  bool Alloc1 = !(IsWrite && L1.config().WriteAlloc == WriteAllocate::No);
  AccessOutcome O1 = L1.access(B, Alloc1, Tag);
  R.L1Hit = O1.Hit;
  if (DepthHist && O1.Hit)
    ++DepthHist[O1.HitDepth];

  if (O1.Hit || Levels.size() < 2)
    return R;
  lowerLevels(B, IsWrite, Alloc1, O1, Tag, R);
  return R;
}

template <typename TagT>
void CacheHierarchy<TagT>::lowerLevels(BlockId B, bool IsWrite, bool Alloc1,
                                       const AccessOutcome &O1, TagT Tag,
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
    AccessOutcome O2 = L2.access(B, Alloc2, Tag);
    R.L2Hit = O2.Hit;
    if (Inclusion == InclusionPolicy::Inclusive && O2.Inserted &&
        O2.EvictedValid && L1.invalidate(O2.EvictedBlock))
      ++R.BackInvalidations;
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
    R.L2Hit = L2.invalidate(B);
    if (O1.Inserted && O1.EvictedValid)
      L2.access(O1.EvictedBlock, /*Allocate=*/true, L1.lastEvictedTag());
    break;
  }
  }
}

template <typename TagT>
template <PolicyKind P, unsigned CtAssoc, bool Depths>
void CacheHierarchy<TagT>::batchStep(BatchedAccess Op,
                                     [[maybe_unused]] TagT Tag,
                                     BatchState &S, BatchCounters &C,
                                     const L1MissSink *Sink,
                                     [[maybe_unused]] uint64_t *DepthHist,
                                     [[maybe_unused]] uint64_t DepthWeight) {
  // Consecutive accesses to one block are guaranteed hits whose policy
  // update is idempotent (LRU: already most recent; FIFO: no-op; PLRU:
  // touch of the same way; QLRU: re-zeroing a zero hit age) -- only a
  // tagged hierarchy's tag refresh still matters. Sub-block strides and
  // stride-0 operands make such runs common, so they bypass the cache
  // entirely. For QLRU the previous access must itself have been a hit:
  // a hit on a just-inserted line ages it InsertAge -> HitAge, a real
  // update.
  Cache &L1 = S.L1;
  BlockId B = Op.block();
  bool IsWrite = Op.isWrite();
  if (B == S.LastB) {
    if constexpr (Cache::HasTag)
      L1.setTagAt(S.LastSet, S.LastWay, Tag);
    if constexpr (Depths)
      addCount(DepthHist[S.LastWay], DepthWeight);
    return;
  }
  bool Alloc1 = !(IsWrite && S.NoWriteAlloc);
  AccessOutcome O1 = L1.template accessAsNoMra<P, CtAssoc>(B, Alloc1, Tag);
  bool Resident =
      P == PolicyKind::QuadAgeLru ? O1.Hit : O1.Hit || O1.Inserted;
  S.LastB = Resident ? B : kInvalidBlock;
  S.LastSet = O1.Set;
  S.LastWay = O1.Way;
  if (O1.Hit) {
    if constexpr (Depths)
      addCount(DepthHist[O1.HitDepth], DepthWeight);
    return;
  }
  ++C.L1Misses;
  if (Sink)
    (*Sink)(B, IsWrite);
  if (!S.TwoLevel)
    return;
  HierarchyOutcome R;
  lowerLevels(B, IsWrite, Alloc1, O1, Tag, R);
  ++C.L2Accesses;
  if (!R.L2Hit)
    ++C.L2Misses;
}

template <typename TagT>
template <PolicyKind P, unsigned CtAssoc, bool Depths>
typename CacheHierarchy<TagT>::TagCursor
CacheHierarchy<TagT>::repeatRun(const BatchedAccess *Iter, size_t IterOps,
                                uint64_t Count, BatchState S,
                                BatchCounters &C, TagCursor Tags,
                                const L1MissSink *Sink,
                                uint64_t *DepthHist) {
  // Until one application hits everywhere, each one is simulated; the
  // state after that one is a fixed point (the lemma at accessBatch).
  bool Fixed = false;
  while (Count != 0 && !Fixed) {
    uint64_t Misses = C.L1Misses;
    for (size_t I = 0; I < IterOps; ++I)
      batchStep<P, CtAssoc, Depths>(Iter[I], Tags.next(), S, C, Sink,
                                    DepthHist, 1);
    addCount(C.L1Accesses, IterOps);
    --Count;
    Fixed = C.L1Misses == Misses;
  }
  if (Count == 0)
    return Tags;
  if constexpr (Depths) {
    // Every application from the fixed point has the same depths: this
    // one stands for itself and the Count - 1 skipped after it.
    for (size_t I = 0; I < IterOps; ++I)
      batchStep<P, CtAssoc, Depths>(Iter[I], Tags.next(), S, C, Sink,
                                    DepthHist, Count);
    addCount(C.L1Accesses, IterOps);
    if (--Count == 0)
      return Tags;
  }
  uint64_t Skipped = mulCount(Count, IterOps);
  addCount(C.L1Accesses, Skipped);
  C.SkippedAccesses += Skipped;
  if constexpr (Cache::HasTag) {
    // Each touched line takes the tag of the last access to its block in
    // the run's last iteration; program order makes later ops win.
    Tags.skip(Count - 1);
    for (size_t I = 0; I < IterOps; ++I) {
      BlockId B = Iter[I].block();
      S.L1.setTagAt(S.L1.setOf(B), S.L1.wayOf(B), Tags.next());
    }
  }
  return Tags;
}

template <typename TagT>
template <PolicyKind P, unsigned CtAssoc, bool Depths>
void CacheHierarchy<TagT>::accessBatchImpl(const BatchedAccess *Ops,
                                           size_t N, BatchCounters &C,
                                           TagCursor Tags,
                                           const L1MissSink *Sink,
                                           uint64_t *DepthHist) {
  Cache &L1 = Levels.front();
  BatchState S{L1, L1.config().WriteAlloc == WriteAllocate::No,
               Levels.size() >= 2};
  addCount(C.L1Accesses, N);
  const BatchedAccess *const End = Ops + N;
  for (const BatchedAccess *Op = Ops; Op != End; ++Op) {
    if (Op->isRepeat()) [[unlikely]] {
      // The header and the count word are no accesses themselves.
      size_t IterOps = Op->iterOps();
      assert(IterOps != 0 && IterOps <= size_t(Op - Ops) && Op + 1 < End &&
             "a repeat marker follows its iteration in the same chunk");
      C.L1Accesses -= 2;
      Tags = repeatRun<P, CtAssoc, Depths>(Op - IterOps, IterOps, Op[1].Bits,
                                           S, C, Tags, Sink, DepthHist);
      S.LastB = kInvalidBlock;
      ++Op;
      continue;
    }
    batchStep<P, CtAssoc, Depths>(*Op, Tags.next(), S, C, Sink, DepthHist,
                                  1);
  }
  // The chunk's last access is its last op, or the last op of the
  // iteration a trailing repeat marker repeats.
  if (N != 0) {
    size_t Last = N >= 3 && Ops[N - 2].isRepeat() ? N - 3 : N - 1;
    L1.noteAccessedSet(L1.setOf(Ops[Last].block()));
  }
}

template <typename TagT>
template <PolicyKind P, bool Depths>
void CacheHierarchy<TagT>::accessBatchAs(const BatchedAccess *Ops, size_t N,
                                         BatchCounters &C, TagCursor Tags,
                                         const L1MissSink *Sink,
                                         uint64_t *DepthHist) {
  switch (Levels.front().assoc()) {
  case 4:
    accessBatchImpl<P, 4, Depths>(Ops, N, C, Tags, Sink, DepthHist);
    break;
  case 8:
    accessBatchImpl<P, 8, Depths>(Ops, N, C, Tags, Sink, DepthHist);
    break;
  case 16:
    accessBatchImpl<P, 16, Depths>(Ops, N, C, Tags, Sink, DepthHist);
    break;
  default:
    accessBatchImpl<P, 0, Depths>(Ops, N, C, Tags, Sink, DepthHist);
    break;
  }
}

template <typename TagT>
template <bool Depths>
void CacheHierarchy<TagT>::accessBatchFor(const BatchedAccess *Ops,
                                          size_t N, BatchCounters &C,
                                          TagCursor Tags,
                                          const L1MissSink *Sink,
                                          uint64_t *DepthHist) {
  switch (Levels.front().config().Policy) {
  case PolicyKind::Lru:
    accessBatchAs<PolicyKind::Lru, Depths>(Ops, N, C, Tags, Sink, DepthHist);
    break;
  case PolicyKind::Fifo:
    accessBatchAs<PolicyKind::Fifo, Depths>(Ops, N, C, Tags, Sink,
                                            DepthHist);
    break;
  case PolicyKind::Plru:
    accessBatchAs<PolicyKind::Plru, Depths>(Ops, N, C, Tags, Sink,
                                            DepthHist);
    break;
  case PolicyKind::QuadAgeLru:
    accessBatchAs<PolicyKind::QuadAgeLru, Depths>(Ops, N, C, Tags, Sink,
                                                  DepthHist);
    break;
  }
}

template <typename TagT>
void CacheHierarchy<TagT>::accessBatch(const BatchedAccess *Ops, size_t N,
                                       BatchCounters &C, TagCursor Tags,
                                       const L1MissSink *Sink,
                                       uint64_t *DepthHist) {
  if (DepthHist)
    accessBatchFor<true>(Ops, N, C, Tags, Sink, DepthHist);
  else
    accessBatchFor<false>(Ops, N, C, Tags, Sink, nullptr);
}

} // namespace wcs

#endif // WCS_CACHE_CACHEHIERARCHY_H
