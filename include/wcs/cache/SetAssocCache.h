//===- wcs/cache/SetAssocCache.h - Generic set-associative cache -*- C++ -*-===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A set-associative cache over a line tag type, shared by the concrete
/// simulator (NoTag: a line is its block) and the symbolic warping
/// simulator (SymTag: block + the access instance that last touched
/// it). A line holds only what decides a hit or a miss: no model here
/// counts write-back traffic, so there is no dirty state, and a write
/// reaches the cache only as the Allocate flag of a no-write-allocate
/// miss.
///
/// The hot-loop layout is struct-of-arrays: one cache-line-aligned BlockId
/// array (what the per-access scan reads) and the policy metadata words
/// -- instead of a vector of interleaved line structs. A tag lives in a
/// separate tag array, and NoTag stores none, so the concrete cache's
/// scan touches nothing but 8-byte block ids. The replacement policy is
/// dispatched once per access() call -- or once per batch via
/// accessAsNoMra<P>() -- into a per-policy accessImpl instantiation;
/// there is no per-access dispatch inside the hit/fill handling.
///
/// Two features exist specifically for warping (paper Sec. 5):
///  - logical-to-physical set indirection, so that applying the set
///    rotation pi_rot^n of Theorem 4 is an O(1) base-offset update;
///  - the most-recently-accessed set is tracked, anchoring the
///    rotation-invariant state hash of Algorithm 2;
///  - a tagged cache keeps a modification stamp per physical set, so
///    a warp probe rehashes, and a snapshot copies, only the sets that
///    changed since that probe's or snapshot's last look (see tick()).
///
//===----------------------------------------------------------------------===//

#ifndef WCS_CACHE_SETASSOCCACHE_H
#define WCS_CACHE_SETASSOCCACHE_H

#include "wcs/cache/CacheConfig.h"
#include "wcs/cache/Policy.h"
#include "wcs/support/AlignedAlloc.h"
#include "wcs/support/MathUtil.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

namespace wcs {

/// Memory-block identifier (byte address / block size, rounded down:
/// negative below address zero). kInvalidBlock marks empty cache lines;
/// no address a program may reach (within +-2^62, see
/// ScopProgram::finalize) has it as its block.
using BlockId = int64_t;
inline constexpr BlockId kInvalidBlock = INT64_MIN;

/// The tag of a concrete cache line: none. A cache over NoTag stores no
/// tag array and no modification stamps.
struct NoTag {
  /// The tags of a batch (see CacheHierarchy::accessBatch): none.
  struct Cursor {
    NoTag next() { return NoTag(); }
    void skip(uint64_t) {}
  };
};

/// Outcome of a single cache access.
struct AccessOutcome {
  bool Hit = false;
  bool Inserted = false;   ///< A new line was allocated.
  unsigned Set = 0;        ///< Logical set index.
  unsigned Way = 0;        ///< Way of the (hit or inserted) line.
  /// On a hit: the way the line occupied BEFORE the policy update. Under
  /// LRU the lines of a set sit in recency order, so this is the per-set
  /// stack distance of the access (the quantity Mattson histograms
  /// count); the depth-profiling passes of trace/PeriodicPass read it.
  unsigned HitDepth = 0;
  bool EvictedValid = false;
  BlockId EvictedBlock = kInvalidBlock;
};

/// Set-associative cache whose lines carry a tag of type \p TagT.
///
/// \tparam TagT is NoTag, or a trivially copyable struct naming what a
/// line holds beyond its block (tag rows shift with memmove) plus a
/// Cursor that yields the tags of a batch's accesses in order and skips
/// whole iterations of a repeated run (see CacheHierarchy::accessBatch).
template <typename TagT>
class SetAssocCache {
public:
  static constexpr bool HasTag = !std::is_same_v<TagT, NoTag>;

  static_assert(std::is_trivially_copyable_v<TagT>,
                "tag rows shift with memmove");

  explicit SetAssocCache(const CacheConfig &Config)
      : Cfg(Config), Sets(Config.numSets()), Assoc(Config.Assoc),
        SetMask(Sets - 1),
        Blocks(static_cast<size_t>(Sets) * Assoc, kInvalidBlock),
        PlruBits(Sets, 0),
        Ages(Config.Policy == PolicyKind::QuadAgeLru
                 ? static_cast<size_t>(Sets) * Assoc
                 : 0,
             QlruOps::EvictAge) {
    assert(Config.validate().empty() && "invalid cache configuration");
    if constexpr (HasTag) {
      Tags.resize(static_cast<size_t>(Sets) * Assoc);
      Stamps.resize(Sets, 0);
    }
  }

  const CacheConfig &config() const { return Cfg; }
  unsigned numSets() const { return Sets; }
  unsigned assoc() const { return Assoc; }

  /// Logical set of a block under modulo placement.
  unsigned setOf(BlockId B) const {
    return static_cast<unsigned>(static_cast<uint64_t>(B) & SetMask);
  }

  /// Most-recently-accessed logical set (hash anchor for warping).
  unsigned mraSet() const { return MraSet; }

  /// The tag of the line evicted by the most recent inserting access
  /// (valid when AccessOutcome::EvictedValid). Exclusive hierarchies use
  /// this to migrate a victim with its symbolic tag into the next level.
  const TagT &lastEvictedTag() const { return EvictedTag; }

  /// Accesses block \p B. On a miss with \p Allocate, the block is
  /// inserted and the victim (if any) reported in the outcome. A tagged
  /// cache stores \p Tag in the line the access hits or fills, as part
  /// of the row update. Dispatches the replacement policy exactly once,
  /// at entry.
  AccessOutcome access(BlockId B, bool Allocate, TagT Tag = TagT()) {
    switch (Cfg.Policy) {
    case PolicyKind::Lru:
      return accessImpl<PolicyKind::Lru>(B, Allocate, Tag);
    case PolicyKind::Fifo:
      return accessImpl<PolicyKind::Fifo>(B, Allocate, Tag);
    case PolicyKind::Plru:
      return accessImpl<PolicyKind::Plru>(B, Allocate, Tag);
    case PolicyKind::QuadAgeLru:
      return accessImpl<PolicyKind::QuadAgeLru>(B, Allocate, Tag);
    }
    return AccessOutcome();
  }

  /// access() with the policy -- and optionally the associativity --
  /// dispatched at the CALL SITE: batch loops switch once per chunk and
  /// then run the fully specialized access path with zero per-access
  /// dispatch. A nonzero \p CtAssoc bakes the way count into the
  /// instantiation (it must equal assoc()), which fully unrolls the hit
  /// scan into straight-line branchless code -- the win is largest for
  /// the fixed-way policies (PLRU/QLRU), whose resident lines sit at
  /// uniformly distributed scan depths -- and, at 8 ways, gives the
  /// QLRU victim its word-wide kernel (see accessImpl). The MRA set is
  /// not tracked per access: batch loops re-establish it once per chunk
  /// with noteAccessedSet(last block's set). Identical cache state
  /// otherwise.
  template <PolicyKind P, unsigned CtAssoc = 0>
  AccessOutcome accessAsNoMra(BlockId B, bool Allocate, TagT Tag = TagT()) {
    assert(Cfg.Policy == P && "accessAsNoMra policy mismatch");
    assert((CtAssoc == 0 || CtAssoc == Assoc) &&
           "accessAsNoMra assoc mismatch");
    return accessImpl<P, CtAssoc, /*TrackMra=*/false>(B, Allocate, Tag);
  }

  /// Restores the most-recently-accessed-set invariant after a batch of
  /// accessAsNoMra() calls.
  void noteAccessedSet(unsigned LogicalSet) { MraSet = LogicalSet; }

  /// True if \p B is currently cached (no state change).
  bool probe(BlockId B) const { return wayOf(B) != Assoc; }

  /// The way holding \p B in its set, or assoc() when \p B is not
  /// cached (no state change).
  unsigned wayOf(BlockId B) const {
    const BlockId *Row = row(phys(setOf(B)));
    unsigned I = 0;
    while (I < Assoc && Row[I] != B)
      ++I;
    return I;
  }

  /// Invalidates \p B if present (back-invalidation in inclusive
  /// hierarchies, or the L2->L1 promotion of exclusive hierarchies).
  /// Returns whether a line was removed. Under LRU/FIFO the remaining
  /// lines keep their relative order (the freed slot sinks to the back);
  /// PLRU/QLRU metadata for the slot is reset.
  bool invalidate(BlockId B) {
    unsigned S = setOf(B);
    unsigned Ph = phys(S);
    BlockId *Row = row(Ph);
    for (unsigned I = 0; I < Assoc; ++I) {
      if (Row[I] != B)
        continue;
      stamp(Ph);
      switch (Cfg.Policy) {
      case PolicyKind::Lru:
      case PolicyKind::Fifo:
        // Close the recency gap; empty lines live at the back.
        std::memmove(Row + I, Row + I + 1,
                     (Assoc - 1 - I) * sizeof(BlockId));
        Row[Assoc - 1] = kInvalidBlock;
        if constexpr (HasTag) {
          TagT *TR = tagRow(Ph);
          std::memmove(TR + I, TR + I + 1, (Assoc - 1 - I) * sizeof(TagT));
          TR[Assoc - 1] = TagT();
        }
        break;
      case PolicyKind::QuadAgeLru:
        Ages[static_cast<size_t>(Ph) * Assoc + I] = QlruOps::EvictAge;
        [[fallthrough]];
      case PolicyKind::Plru:
        Row[I] = kInvalidBlock;
        if constexpr (HasTag)
          tagRow(Ph)[I] = TagT();
        break;
      }
      return true;
    }
    return false;
  }

  //===------------------------------------------------------------------===//
  // Per-line accessors (logical set index). The stored state is
  // struct-of-arrays, so readers and writers touch the exact component
  // they mean.
  //===------------------------------------------------------------------===//

  BlockId blockAt(unsigned Set, unsigned Way) const {
    return Blocks[static_cast<size_t>(phys(Set)) * Assoc + Way];
  }
  void setBlockAt(unsigned Set, unsigned Way, BlockId B) {
    unsigned Ph = phys(Set);
    Blocks[static_cast<size_t>(Ph) * Assoc + Way] = B;
    stamp(Ph);
  }

  /// The tag at (Set, Way); tagged caches only. Writers go through
  /// setTagAt, which stamps the set.
  const TagT &tagAt(unsigned Set, unsigned Way) const {
    static_assert(HasTag, "the cache stores no tags");
    return Tags[static_cast<size_t>(phys(Set)) * Assoc + Way];
  }
  void setTagAt(unsigned Set, unsigned Way, const TagT &T) {
    static_assert(HasTag, "the cache stores no tags");
    unsigned Ph = phys(Set);
    Tags[static_cast<size_t>(Ph) * Assoc + Way] = T;
    stamp(Ph);
  }

  /// Per-set policy metadata as a single word, for hashing and state
  /// comparison. Captures PLRU tree bits or QLRU ages; LRU/FIFO state is
  /// already encoded in the line order.
  uint64_t policyWord(unsigned Set) const {
    switch (Cfg.Policy) {
    case PolicyKind::Lru:
    case PolicyKind::Fifo:
      return 0;
    case PolicyKind::Plru:
      return PlruBits[phys(Set)];
    case PolicyKind::QuadAgeLru: {
      uint64_t W = 0;
      const uint8_t *A = &Ages[static_cast<size_t>(phys(Set)) * Assoc];
      for (unsigned I = 0; I < Assoc; ++I)
        W = (W << 2) | A[I];
      return W;
    }
    }
    return 0;
  }

  /// Replacement-state equality: line contents in logical (set, way)
  /// order plus the replacement metadata that decides future victims --
  /// everything that decides the hits and misses of any later access
  /// sequence. The internal rotation base and the MRA anchor are
  /// representation details, so neither is compared. Used by the
  /// periodic replay fast path of trace/FilteredStream to prove that one
  /// more period repetition maps the cache onto itself (and may then be
  /// applied analytically), and by the stack-distance bank rows to
  /// verify a period capture.
  bool sameReplacementState(const SetAssocCache &O) const {
    if (Sets != O.Sets || Assoc != O.Assoc || Cfg.Policy != O.Cfg.Policy)
      return false;
    for (unsigned S = 0; S < Sets; ++S) {
      unsigned Ph = phys(S), OPh = O.phys(S);
      const BlockId *RA = row(Ph), *RB = O.row(OPh);
      if (std::memcmp(RA, RB, Assoc * sizeof(BlockId)) != 0)
        return false;
      if (Cfg.Policy == PolicyKind::QuadAgeLru &&
          std::memcmp(&Ages[static_cast<size_t>(Ph) * Assoc],
                      &O.Ages[static_cast<size_t>(OPh) * Assoc],
                      Assoc) != 0)
        return false;
      if (Cfg.Policy == PolicyKind::Plru &&
          PlruBits[Ph] != O.PlruBits[OPh])
        return false;
    }
    return true;
  }

  //===------------------------------------------------------------------===//
  // Modification stamps (tagged caches only: the NoTag instantiation
  // stores and compiles none of this). Every path that changes a set's
  // lines or policy metadata -- a hit or fill (stamped on every access),
  // invalidate, setBlockAt and setTagAt -- writes the clock into the
  // set's stamp. An observer calls tick() when it reads the cache and
  // keeps the value: the sets changed since are those whose
  // changedSince() holds. The rotation base and the MRA set are scalars
  // outside the stamps.
  //===------------------------------------------------------------------===//

  /// Returns the clock and advances it, so every later change stamps
  /// its set above the returned value.
  uint64_t tick() { return Clock++; }

  /// True when physical set \p Ph changed after the tick() that
  /// returned \p Since.
  bool changedSince(unsigned Ph, uint64_t Since) const {
    return Stamps[Ph] > Since;
  }

  /// The physical set behind logical set \p LogicalSet.
  unsigned physicalSet(unsigned LogicalSet) const {
    return phys(LogicalSet);
  }

  /// Makes this cache equal to \p Live again, when it last equalled
  /// \p Live at the tick() that returned \p Since (a full copy, or an
  /// earlier call): copies the sets \p Live changed since then, plus
  /// the rotation base, the MRA set and the last victim's tag. Returns
  /// the number of sets copied.
  size_t copyChangedSets(const SetAssocCache &Live, uint64_t Since) {
    static_assert(HasTag, "only tagged caches keep stamps");
    assert(Sets == Live.Sets && Assoc == Live.Assoc &&
           Cfg.Policy == Live.Cfg.Policy && "copying a foreign geometry");
    // Copy maximal runs of changed sets, one bulk copy per array each:
    // when most sets changed, that is as cheap as a whole copy.
    size_t Copied = 0;
    for (unsigned Lo = 0; Lo < Sets;) {
      if (Live.Stamps[Lo] <= Since) {
        ++Lo;
        continue;
      }
      unsigned Hi = Lo + 1;
      while (Hi < Sets && Live.Stamps[Hi] > Since)
        ++Hi;
      const size_t N = Hi - Lo;
      const size_t Off = static_cast<size_t>(Lo) * Assoc;
      std::copy_n(&Live.Blocks[Off], N * Assoc, &Blocks[Off]);
      std::copy_n(&Live.Tags[Off], N * Assoc, &Tags[Off]);
      std::copy_n(&Live.PlruBits[Lo], N, &PlruBits[Lo]);
      if (!Ages.empty())
        std::copy_n(&Live.Ages[Off], N * Assoc, &Ages[Off]);
      Copied += N;
      Lo = Hi;
    }
    Base = Live.Base;
    MraSet = Live.MraSet;
    EvictedTag = Live.EvictedTag;
    return Copied;
  }

  /// Makes this cache hold \p O's lines and replacement state -- block
  /// rows, PLRU bits, QLRU ages, the rotation base and the MRA set --
  /// whatever the tag type of either: how a warping run hands its state
  /// to the concrete floor (see WarpingSimulator.h). No tag is copied.
  template <typename OtherTagT>
  void copyLinesFrom(const SetAssocCache<OtherTagT> &O) {
    assert(Sets == O.Sets && Assoc == O.Assoc && Cfg.Policy == O.Cfg.Policy &&
           "copying a foreign geometry");
    Blocks = O.Blocks;
    PlruBits = O.PlruBits;
    Ages = O.Ages;
    Base = O.Base;
    MraSet = O.MraSet;
  }

  /// Applies the set rotation `s -> s + Amount (mod Sets)` to the whole
  /// cache state in O(1) (paper Theorem 4: warping rotates cache sets).
  /// Lines are NOT rewritten; the symbolic layer re-derives concrete
  /// blocks from tags after a warp.
  void rotateSets(int64_t Amount) {
    Base = static_cast<unsigned>(
        static_cast<uint64_t>(Base + floorMod(-Amount, Sets)) & SetMask);
    MraSet = static_cast<unsigned>(
        static_cast<uint64_t>(MraSet + floorMod(Amount, Sets)) & SetMask);
  }

private:
  template <typename> friend class SetAssocCache;

  unsigned phys(unsigned LogicalSet) const {
    return static_cast<unsigned>(
        static_cast<uint64_t>(LogicalSet + Base) & SetMask);
  }

  BlockId *row(unsigned Ph) {
    return &Blocks[static_cast<size_t>(Ph) * Assoc];
  }
  const BlockId *row(unsigned Ph) const {
    return &Blocks[static_cast<size_t>(Ph) * Assoc];
  }
  /// row() with the way count supplied by the caller, so accessImpl
  /// instantiations with a compile-time associativity index with a
  /// constant multiplier (a shift for the power-of-two counts). The
  /// block array is never empty: saying so keeps GCC's -Warray-bounds,
  /// in sanitizer builds, from taking a null row for a zero-size object
  /// at the row shifts of accessImpl.
  BlockId *rowAt(unsigned Ph, unsigned A) {
    BlockId *Rows = Blocks.data();
    if (Rows == nullptr)
      __builtin_unreachable();
    return Rows + static_cast<size_t>(Ph) * A;
  }
  TagT *tagRow(unsigned Ph) {
    return &Tags[static_cast<size_t>(Ph) * Assoc];
  }

  /// Marks physical set \p Ph changed (see tick()).
  void stamp([[maybe_unused]] unsigned Ph) {
    if constexpr (HasTag)
      Stamps[Ph] = Clock;
  }

  /// One fully specialized access path per policy; `if constexpr` keeps
  /// each instantiation free of foreign-policy code and of any dispatch.
  /// With a nonzero compile-time associativity the hit scan compares all
  /// ways branchlessly into a match mask (one ctz recovers the way); the
  /// runtime-assoc variant keeps the early-exit loop, which is what the
  /// recency-ordered policies want when the way count is unknown. At a
  /// compile-time associativity of 8, the width of every QLRU L1 the
  /// benchmarks run on the batch path, the QLRU victim is one word-wide
  /// step over the age bytes (QlruOps::victimAging8); other widths keep
  /// the aging loop. A tagged cache's tag rides the row update: stored
  /// once, in the slot the access hits or fills.
  template <PolicyKind P, unsigned CtAssoc = 0, bool TrackMra = true>
  AccessOutcome accessImpl(BlockId B, bool Allocate,
                           [[maybe_unused]] TagT Tag) {
    assert(B != kInvalidBlock && "accessing an invalid block");
    const unsigned A = CtAssoc != 0 ? CtAssoc : Assoc;
    unsigned S = setOf(B);
    if constexpr (TrackMra)
      MraSet = S;
    unsigned Ph = phys(S);
    stamp(Ph); // Hits refresh the tag, fills replace a line.
    BlockId *Row = rowAt(Ph, A);
    AccessOutcome R;
    R.Set = S;
    unsigned I;
    if constexpr (CtAssoc != 0 && P != PolicyKind::Lru) {
      // Only LRU keeps its rows recency-ordered; under the fixed-way
      // policies (PLRU/QLRU) and FIFO's insertion order, resident lines
      // sit at uniformly distributed scan depths, so an early-exit scan
      // mispredicts its exit on nearly every access. Comparing the
      // whole row into a mask is branch-free and fully unrolled.
      static_assert(CtAssoc <= 32, "mask scan is a narrow-way fast path");
      uint32_t M = 0;
      for (unsigned W = 0; W < CtAssoc; ++W)
        M |= static_cast<uint32_t>(Row[W] == B) << W;
      I = M != 0 ? static_cast<unsigned>(__builtin_ctz(M)) : CtAssoc;
    } else {
      // Recency-ordered rows (LRU/FIFO) hit near the front; the early
      // exit is usually taken on the first or second compare.
      for (I = 0; I < A; ++I)
        if (Row[I] == B)
          break;
    }
    if (I != A) {
      R.Hit = true;
      R.HitDepth = I;
      if constexpr (P == PolicyKind::Lru) {
        // A hit at way 0 changes no order. The hit way is inside the row
        // (the bound keeps GCC from warning about the shift, see rowAt).
        if (I != 0) {
          if (I >= A)
            __builtin_unreachable();
          std::memmove(Row + 1, Row, I * sizeof(BlockId));
          Row[0] = B;
          if constexpr (HasTag) {
            TagT *TR = tagRow(Ph);
            std::memmove(TR + 1, TR, I * sizeof(TagT));
          }
        }
        if constexpr (HasTag)
          tagRow(Ph)[0] = Tag;
        R.Way = 0;
        return R;
      } else if constexpr (P == PolicyKind::Plru) {
        PlruOps::touch(PlruBits[Ph], A, I);
      } else if constexpr (P == PolicyKind::QuadAgeLru) {
        Ages[static_cast<size_t>(Ph) * A + I] = QlruOps::HitAge;
      } // FIFO: a hit changes no order or metadata.
      if constexpr (HasTag)
        tagRow(Ph)[I] = Tag;
      R.Way = I;
      return R;
    }
    if (!Allocate)
      return R;
    R.Inserted = true;
    if constexpr (P == PolicyKind::Lru || P == PolicyKind::Fifo) {
      recordVictim(Ph, A - 1, R);
      std::memmove(Row + 1, Row, (A - 1) * sizeof(BlockId));
      Row[0] = B;
      if constexpr (HasTag) {
        TagT *TR = tagRow(Ph);
        std::memmove(TR + 1, TR, (A - 1) * sizeof(TagT));
        TR[0] = Tag;
      }
      R.Way = 0;
    } else if constexpr (P == PolicyKind::Plru) {
      unsigned Way = firstInvalid(Row, A);
      if (Way == A)
        Way = PlruOps::victim(PlruBits[Ph], A);
      recordVictim(Ph, Way, R);
      PlruOps::touch(PlruBits[Ph], A, Way);
      fillSlot(Ph, Way, B, Tag);
      R.Way = Way;
    } else { // Quad-age LRU.
      uint8_t *Age = &Ages[static_cast<size_t>(Ph) * A];
      unsigned Way = firstInvalid(Row, A);
      if (Way == A) {
        if constexpr (CtAssoc == 8)
          Way = QlruOps::victimAging8(Age);
        else
          Way = QlruOps::victimAging(Age, A);
      }
      recordVictim(Ph, Way, R);
      Age[Way] = QlruOps::InsertAge;
      fillSlot(Ph, Way, B, Tag);
      R.Way = Way;
    }
    return R;
  }

  unsigned firstInvalid(const BlockId *Row, unsigned A) const {
    for (unsigned I = 0; I < A; ++I)
      if (Row[I] == kInvalidBlock)
        return I;
    return A;
  }

  /// In-place fill (PLRU/QLRU): new line, tagged \p Tag.
  void fillSlot(unsigned Ph, unsigned Way, BlockId B,
                [[maybe_unused]] const TagT &Tag) {
    Blocks[static_cast<size_t>(Ph) * Assoc + Way] = B;
    if constexpr (HasTag)
      tagRow(Ph)[Way] = Tag;
  }

  /// Captures the victim at (Ph, Way) into \p R and EvictedTag BEFORE
  /// the slot is overwritten.
  void recordVictim(unsigned Ph, unsigned Way, AccessOutcome &R) {
    BlockId VB = Blocks[static_cast<size_t>(Ph) * Assoc + Way];
    R.EvictedValid = VB != kInvalidBlock;
    R.EvictedBlock = VB;
    if constexpr (HasTag)
      if (R.EvictedValid)
        EvictedTag = Tags[static_cast<size_t>(Ph) * Assoc + Way];
  }

  CacheConfig Cfg;
  unsigned Sets;
  unsigned Assoc;
  uint64_t SetMask;
  unsigned Base = 0;   ///< Logical-to-physical set rotation offset.
  unsigned MraSet = 0; ///< Most-recently-accessed logical set.
  TagT EvictedTag;     ///< Tag of the most recent victim.
  /// Struct-of-arrays state, hot to cold: block ids (the scan), policy
  /// metadata, then any cold tags.
  std::vector<BlockId, AlignedAllocator<BlockId, 64>> Blocks;
  std::vector<uint32_t> PlruBits;
  std::vector<uint8_t> Ages;
  std::vector<TagT> Tags; ///< Sized only when HasTag.
  /// Per physical set, the clock at its last change; sized only when
  /// HasTag.
  std::vector<uint64_t> Stamps;
  uint64_t Clock = 1;
};

} // namespace wcs

#endif // WCS_CACHE_SETASSOCCACHE_H
