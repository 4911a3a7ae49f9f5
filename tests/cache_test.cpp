//===- tests/cache_test.cpp - Cache model unit tests ---------------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
// Hand-traced behavior of every replacement policy, the set mapping, the
// logical set rotation used by warping, and the two-level hierarchy
// semantics of paper Eq. (24). Then the compile-time-associativity
// kernels against their runtime references: the word-wide 8-way QLRU
// victim against QlruOps::victimAging, and every fixed-way access path
// (plain and batched, concrete and symbolic caches) against the
// runtime access(), state compared after every step. Last, the
// invariant that lets a line carry no dirty state: under write-allocate
// a write steps exactly like a read.
//
//===----------------------------------------------------------------------===//

#include "wcs/cache/ConcreteCache.h"
#include "wcs/sim/SymbolicCache.h"

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>

using namespace wcs;

namespace {

CacheConfig smallConfig(PolicyKind K, unsigned Assoc, unsigned Sets) {
  CacheConfig C;
  C.BlockBytes = 64;
  C.Assoc = Assoc;
  C.SizeBytes = static_cast<uint64_t>(Assoc) * Sets * 64;
  C.Policy = K;
  return C;
}

/// Accesses block B and reports hit/miss.
bool hit(ConcreteCache &C, BlockId B) { return C.access(B, true).Hit; }

TEST(CacheConfig, Validation) {
  EXPECT_EQ(smallConfig(PolicyKind::Lru, 2, 4).validate(), "");
  CacheConfig Bad = smallConfig(PolicyKind::Lru, 2, 4);
  Bad.BlockBytes = 48;
  EXPECT_NE(Bad.validate(), "");
  CacheConfig BadSets = smallConfig(PolicyKind::Lru, 2, 3);
  EXPECT_NE(BadSets.validate(), "") << "3 sets is not a power of two";
  CacheConfig BadPlru = smallConfig(PolicyKind::Plru, 3, 4);
  BadPlru.SizeBytes = 3 * 4 * 64;
  EXPECT_NE(BadPlru.validate(), "") << "PLRU needs power-of-two assoc";
  EXPECT_EQ(CacheConfig::testSystemL1().validate(), "");
  EXPECT_EQ(CacheConfig::testSystemL2().validate(), "");
  EXPECT_EQ(
      HierarchyConfig::twoLevel(CacheConfig::scaledL1(),
                                CacheConfig::scaledL2())
          .validate(),
      "");
}

TEST(ConcreteCache, SetMappingIsModulo) {
  ConcreteCache C(smallConfig(PolicyKind::Lru, 1, 4));
  EXPECT_EQ(C.setOf(0), 0u);
  EXPECT_EQ(C.setOf(5), 1u);
  EXPECT_EQ(C.setOf(7), 3u);
  // Blocks in different sets never evict each other in a 1-way cache.
  EXPECT_FALSE(hit(C, 0));
  EXPECT_FALSE(hit(C, 1));
  EXPECT_FALSE(hit(C, 2));
  EXPECT_TRUE(hit(C, 0));
  EXPECT_FALSE(hit(C, 4)); // Same set as 0: evicts it.
  EXPECT_FALSE(hit(C, 0));
}

TEST(ConcreteCache, LruEvictsLeastRecentlyUsed) {
  ConcreteCache C(smallConfig(PolicyKind::Lru, 2, 1));
  EXPECT_FALSE(hit(C, 10));
  EXPECT_FALSE(hit(C, 20));
  EXPECT_TRUE(hit(C, 10));  // Order now [10, 20].
  EXPECT_FALSE(hit(C, 30)); // Evicts 20.
  EXPECT_TRUE(hit(C, 10));
  EXPECT_FALSE(hit(C, 20));
}

TEST(ConcreteCache, FifoIgnoresHits) {
  ConcreteCache C(smallConfig(PolicyKind::Fifo, 2, 1));
  EXPECT_FALSE(hit(C, 10));
  EXPECT_FALSE(hit(C, 20));
  EXPECT_TRUE(hit(C, 10));  // Does not refresh 10 under FIFO.
  EXPECT_FALSE(hit(C, 30)); // Evicts 10 (first in), unlike LRU.
  EXPECT_FALSE(C.probe(10));
  EXPECT_TRUE(C.probe(20));
}

TEST(ConcreteCache, PlruClassicVictimSequence) {
  ConcreteCache C(smallConfig(PolicyKind::Plru, 4, 1));
  EXPECT_FALSE(hit(C, 0)); // way 0
  EXPECT_FALSE(hit(C, 1)); // way 1
  EXPECT_FALSE(hit(C, 2)); // way 2
  EXPECT_FALSE(hit(C, 3)); // way 3
  // Tree bits now point at way 0 as the victim.
  EXPECT_TRUE(hit(C, 0)); // Touch way 0: victim moves to the right pair.
  EXPECT_FALSE(hit(C, 4)); // Should evict way 2 (block 2).
  EXPECT_FALSE(C.probe(2));
  EXPECT_TRUE(C.probe(0));
  EXPECT_TRUE(C.probe(1));
  EXPECT_TRUE(C.probe(3));
  EXPECT_TRUE(C.probe(4));
}

TEST(ConcreteCache, QuadAgeLruAgingAndPromotion) {
  ConcreteCache C(smallConfig(PolicyKind::QuadAgeLru, 2, 1));
  EXPECT_FALSE(hit(C, 10)); // age 2
  EXPECT_FALSE(hit(C, 20)); // age 2
  EXPECT_TRUE(hit(C, 10));  // age(10) = 0
  EXPECT_FALSE(hit(C, 30)); // aging: {1,3}: evict 20
  EXPECT_TRUE(C.probe(10));
  EXPECT_FALSE(C.probe(20));
  EXPECT_TRUE(C.probe(30));
}

TEST(ConcreteCache, QuadAgeLruIsScanResistantWhereLruIsNot) {
  // Hot block + streaming scan: Quad-age LRU keeps the age-0 hot block and
  // evicts a scan block instead; LRU evicts the hot block (it is the least
  // recently used when the scan overflows the set). This is the paper's
  // explanation for QLRU's distinct behavior (Sec. 6.2).
  ConcreteCache Q(smallConfig(PolicyKind::QuadAgeLru, 4, 1));
  ConcreteCache L(smallConfig(PolicyKind::Lru, 4, 1));
  for (ConcreteCache *C : {&Q, &L}) {
    hit(*C, 100);
    hit(*C, 100); // Hot: QLRU age 0 / LRU most-recent.
    hit(*C, 201); // Scan fills the remaining ways...
    hit(*C, 202);
    hit(*C, 203);
    hit(*C, 204); // ...and overflows the set.
  }
  EXPECT_FALSE(hit(L, 100)) << "LRU evicted the hot block";
  ConcreteCache Q2(smallConfig(PolicyKind::QuadAgeLru, 4, 1));
  hit(Q2, 100);
  hit(Q2, 100);
  hit(Q2, 201);
  hit(Q2, 202);
  hit(Q2, 203);
  hit(Q2, 204); // Aging makes the scan blocks age 3; hot stays age 1.
  EXPECT_TRUE(hit(Q2, 100)) << "QLRU kept the hot block through the scan";
}

TEST(ConcreteCache, EvictionReporting) {
  ConcreteCache C(smallConfig(PolicyKind::Lru, 1, 1));
  AccessOutcome A = C.access(42, true);
  EXPECT_FALSE(A.Hit);
  EXPECT_TRUE(A.Inserted);
  EXPECT_FALSE(A.EvictedValid);
  AccessOutcome B = C.access(43, true);
  EXPECT_TRUE(B.EvictedValid);
  EXPECT_EQ(B.EvictedBlock, 42);
}

TEST(ConcreteCache, NonAllocatingAccessLeavesStateUnchanged) {
  ConcreteCache C(smallConfig(PolicyKind::Lru, 2, 1));
  EXPECT_FALSE(C.access(10, false).Hit);
  EXPECT_FALSE(C.access(10, true).Hit) << "bypassed write did not allocate";
  EXPECT_TRUE(C.access(10, false).Hit);
}

TEST(ConcreteCache, RotateSetsMovesContentLogically) {
  ConcreteCache C(smallConfig(PolicyKind::Lru, 1, 4));
  for (BlockId B = 0; B < 4; ++B)
    C.access(B, true);
  EXPECT_EQ(C.mraSet(), 3u);
  for (unsigned S = 0; S < 4; ++S)
    EXPECT_EQ(C.blockAt(S, 0), static_cast<BlockId>(S));
  C.rotateSets(1);
  EXPECT_EQ(C.mraSet(), 0u);
  for (unsigned S = 0; S < 4; ++S)
    EXPECT_EQ(C.blockAt((S + 1) % 4, 0), static_cast<BlockId>(S))
        << "content of set " << S << " moved to set " << (S + 1) % 4;
  C.rotateSets(-1); // Rotation is invertible.
  for (unsigned S = 0; S < 4; ++S)
    EXPECT_EQ(C.blockAt(S, 0), static_cast<BlockId>(S));
}

TEST(ConcreteCache, PolicyWordCapturesMetadata) {
  ConcreteCache P(smallConfig(PolicyKind::Plru, 4, 1));
  uint64_t W0 = P.policyWord(0);
  P.access(1, true);
  EXPECT_NE(P.policyWord(0), W0) << "PLRU bits must change on fill";
  ConcreteCache L(smallConfig(PolicyKind::Lru, 4, 1));
  L.access(1, true);
  EXPECT_EQ(L.policyWord(0), 0u) << "LRU state lives in the line order";
}

TEST(ConcreteHierarchy, L2SeesExactlyTheL1Misses) {
  HierarchyConfig H = HierarchyConfig::twoLevel(
      smallConfig(PolicyKind::Lru, 1, 1), smallConfig(PolicyKind::Lru, 2, 1));
  ConcreteHierarchy HC(H);
  HierarchyOutcome A = HC.access(100, false);
  EXPECT_FALSE(A.L1Hit);
  EXPECT_TRUE(A.L2Accessed);
  EXPECT_FALSE(A.L2Hit);
  HierarchyOutcome B = HC.access(200, false); // Evicts 100 from L1 only.
  EXPECT_FALSE(B.L1Hit);
  HierarchyOutcome A2 = HC.access(100, false);
  EXPECT_FALSE(A2.L1Hit);
  EXPECT_TRUE(A2.L2Hit) << "non-inclusive L2 retains the L1 victim's block";
  HierarchyOutcome A3 = HC.access(100, false);
  EXPECT_TRUE(A3.L1Hit);
  EXPECT_FALSE(A3.L2Accessed) << "L1 hits never reach the L2 (Eq. 24)";
}

TEST(ConcreteHierarchy, NoWriteAllocateBypassesOnWriteMiss) {
  CacheConfig L1 = smallConfig(PolicyKind::Lru, 2, 1);
  L1.WriteAlloc = WriteAllocate::No;
  ConcreteHierarchy HC(HierarchyConfig::singleLevel(L1));
  EXPECT_FALSE(HC.access(10, true).L1Hit);
  EXPECT_FALSE(HC.access(10, false).L1Hit) << "write miss did not allocate";
  EXPECT_TRUE(HC.access(10, false).L1Hit);
  EXPECT_TRUE(HC.access(10, true).L1Hit) << "write hits still hit";
}


//===----------------------------------------------------------------------===//
// Compile-time-associativity kernels vs their runtime references
//===----------------------------------------------------------------------===//

/// Every 8-way age vector over {0..3}, 4^8 of them: the word-wide
/// victim and the reference, run on copies, pick the same way and leave
/// the same aged bytes.
/// A batched op keeps its block, negative ones included (accesses below
/// address zero): the batched walk and the per-access step must agree
/// on every block id.
TEST(BatchedAccess, BlockRoundTripsNegativeBlocks) {
  const BlockId Reach = BlockId(1) << 61;
  for (BlockId B : {BlockId(0), BlockId(1), BlockId(-1), BlockId(-2),
                    BlockId(-186), BlockId(-4096), Reach - 1, -Reach,
                    -Reach + 1})
    for (bool W : {false, true}) {
      BatchedAccess Op = BatchedAccess::make(B, W);
      EXPECT_EQ(Op.block(), B) << B;
      EXPECT_EQ(Op.isWrite(), W) << B;
      EXPECT_FALSE(Op.isRepeat()) << B;
    }
}

TEST(QlruVictim, WordWideEqualsAgingLoopOnEveryAgeVector) {
  for (uint32_t Code = 0; Code < (1u << 16); ++Code) {
    uint8_t Ref[8], Word[8];
    for (unsigned W = 0; W < 8; ++W)
      Ref[W] = static_cast<uint8_t>((Code >> (2 * W)) & 3);
    std::memcpy(Word, Ref, 8);
    unsigned RefWay = QlruOps::victimAging(Ref, 8);
    ASSERT_EQ(QlruOps::victimAging8(Word), RefWay) << "ages code " << Code;
    ASSERT_EQ(std::memcmp(Word, Ref, 8), 0) << "ages code " << Code;
  }
}

/// A random tag, or NoTag.
template <typename TagT>
TagT randomTag(std::mt19937 &Rng) {
  if constexpr (SetAssocCache<TagT>::HasTag)
    return SymTag{static_cast<int32_t>(Rng() % 5),
                  static_cast<uint32_t>(Rng() % 3),
                  static_cast<int64_t>(Rng() % 1000)};
  else
    return NoTag();
}

/// Where \p A and \p B first differ in an observable line or set
/// (policy word, block, tag), or "" when they are equal.
template <typename TagT>
std::string stateDifference(const SetAssocCache<TagT> &A,
                            const SetAssocCache<TagT> &B) {
  for (unsigned S = 0; S < A.numSets(); ++S) {
    const std::string Set = "set " + std::to_string(S);
    if (A.policyWord(S) != B.policyWord(S))
      return Set + " policy word";
    for (unsigned W = 0; W < A.assoc(); ++W) {
      const std::string Way = Set + " way " + std::to_string(W);
      if (A.blockAt(S, W) != B.blockAt(S, W))
        return Way + " block";
      if constexpr (SetAssocCache<TagT>::HasTag) {
        const SymTag &TA = A.tagAt(S, W), &TB = B.tagAt(S, W);
        if (TA.NodeId != TB.NodeId || TA.Epoch != TB.Epoch || TA.X != TB.X)
          return Way + " tag";
      }
    }
  }
  return "";
}

/// accessAsNoMra<P, Ways> plus noteAccessedSet -- what the batch loop
/// runs -- against the runtime access() on twin caches, with tags
/// (symbolic caches), non-allocating misses and invalidations mixed in.
template <typename TagT, PolicyKind P, unsigned Ways>
void expectFixedAccessMatchesRuntime() {
  const unsigned Sets = 4;
  CacheConfig Cfg = smallConfig(P, Ways, Sets);
  SetAssocCache<TagT> Fixed(Cfg), Runtime(Cfg);
  std::mt19937 Rng(Ways * 10 + static_cast<unsigned>(P));
  const BlockId Span = 3 * Sets * Ways; // Hits at every depth, and misses.
  for (unsigned Step = 0; Step < 4000; ++Step) {
    std::string Where = std::string(policyName(P)) + " x" +
                        std::to_string(Ways) + " step " +
                        std::to_string(Step);
    BlockId B = static_cast<BlockId>(Rng() % Span);
    if (Rng() % 16 == 0) {
      bool RF = Fixed.invalidate(B);
      bool RR = Runtime.invalidate(B);
      ASSERT_EQ(RF, RR) << Where;
    } else {
      bool Allocate = Rng() % 8 != 0; // A no-write-allocate write miss.
      TagT Tag = randomTag<TagT>(Rng);
      AccessOutcome OF =
          Fixed.template accessAsNoMra<P, Ways>(B, Allocate, Tag);
      Fixed.noteAccessedSet(OF.Set);
      AccessOutcome OR = Runtime.access(B, Allocate, Tag);
      ASSERT_EQ(OF.Hit, OR.Hit) << Where;
      ASSERT_EQ(OF.Inserted, OR.Inserted) << Where;
      ASSERT_EQ(OF.Set, OR.Set) << Where;
      ASSERT_EQ(OF.Way, OR.Way) << Where;
      ASSERT_EQ(OF.HitDepth, OR.HitDepth) << Where;
      ASSERT_EQ(OF.EvictedValid, OR.EvictedValid) << Where;
      ASSERT_EQ(OF.EvictedBlock, OR.EvictedBlock) << Where;
      if constexpr (SetAssocCache<TagT>::HasTag) {
        if (OF.EvictedValid) {
          ASSERT_EQ(Fixed.lastEvictedTag().X, Runtime.lastEvictedTag().X)
              << Where;
        }
      }
    }
    ASSERT_EQ(Fixed.mraSet(), Runtime.mraSet()) << Where;
    ASSERT_EQ(stateDifference(Fixed, Runtime), "") << Where;
  }
}

/// CacheHierarchy::accessBatch (whose L1 runs the fixed-way kernels at
/// 4, 8 and 16 ways) against one runtime access() per op on a twin
/// hierarchy: chunks of random length, write-allocate and not, with
/// invalidations between chunks; every other chunk counts hit depths, on
/// both tag types, and the depth histograms must match too.
template <typename TagT, PolicyKind P, unsigned Ways>
void expectBatchMatchesRuntime(WriteAllocate WA) {
  const unsigned Sets = 4;
  CacheConfig Cfg = smallConfig(P, Ways, Sets);
  Cfg.WriteAlloc = WA;
  HierarchyConfig H = HierarchyConfig::singleLevel(Cfg);
  CacheHierarchy<TagT> Batched(H), Stepped(H);
  std::vector<uint64_t> HistB(Ways, 0), HistS(Ways, 0);
  std::mt19937 Rng(Ways * 100 + static_cast<unsigned>(P));
  const BlockId Span = 3 * Sets * Ways;
  const int32_t Nodes[] = {0, 1, 2};
  int64_t X = 0;
  BatchCounters Counts;
  uint64_t RefMisses = 0;
  for (unsigned Chunk = 0; Chunk < 400; ++Chunk) {
    std::string Where = std::string(policyName(P)) + " x" +
                        std::to_string(Ways) +
                        (WA == WriteAllocate::No ? " nwa" : "") +
                        " chunk " + std::to_string(Chunk);
    const unsigned Lanes = 1 + Rng() % 3;
    const unsigned N = Lanes * (1 + Rng() % 6);
    std::vector<BatchedAccess> Ops;
    BlockId B = static_cast<BlockId>(Rng() % Span);
    for (unsigned K = 0; K < N; ++K) {
      // Repeats exercise the batch loop's same-block fast path.
      if (Rng() % 3 != 0)
        B = static_cast<BlockId>(Rng() % Span);
      Ops.push_back(BatchedAccess::make(B, Rng() % 3 == 0));
    }
    typename TagT::Cursor Tags;
    if constexpr (SetAssocCache<TagT>::HasTag) {
      Tags.Nodes = Nodes;
      Tags.NumLanes = Lanes;
      Tags.Epoch = Chunk % 3;
      Tags.X = X;
    }
    typename TagT::Cursor RefTags = Tags;
    uint64_t *DepthB = Chunk % 2 == 0 ? HistB.data() : nullptr;
    uint64_t *DepthS = Chunk % 2 == 0 ? HistS.data() : nullptr;
    Batched.accessBatch(Ops.data(), Ops.size(), Counts, Tags, nullptr,
                        DepthB);
    for (const BatchedAccess &Op : Ops)
      if (!Stepped.access(Op.block(), Op.isWrite(), RefTags.next(), DepthS)
               .L1Hit)
        ++RefMisses;
    X += N / Lanes;
    ASSERT_EQ(Counts.L1Misses, RefMisses) << Where;
    ASSERT_EQ(Batched.level(0).mraSet(), Stepped.level(0).mraSet()) << Where;
    ASSERT_EQ(HistB, HistS) << Where;
    ASSERT_EQ(stateDifference(Batched.level(0), Stepped.level(0)), "")
        << Where;
    if (Rng() % 4 == 0) {
      BlockId Victim = static_cast<BlockId>(Rng() % Span);
      Batched.level(0).invalidate(Victim);
      Stepped.level(0).invalidate(Victim);
    }
  }
}

template <typename TagT, PolicyKind P> void expectAllWidthsMatchRuntime() {
  expectFixedAccessMatchesRuntime<TagT, P, 4>();
  expectFixedAccessMatchesRuntime<TagT, P, 8>();
  expectFixedAccessMatchesRuntime<TagT, P, 16>();
  for (WriteAllocate WA : {WriteAllocate::Yes, WriteAllocate::No}) {
    expectBatchMatchesRuntime<TagT, P, 4>(WA);
    expectBatchMatchesRuntime<TagT, P, 8>(WA);
    expectBatchMatchesRuntime<TagT, P, 16>(WA);
  }
}

template <typename TagT> void expectAllPoliciesMatchRuntime() {
  expectAllWidthsMatchRuntime<TagT, PolicyKind::Lru>();
  expectAllWidthsMatchRuntime<TagT, PolicyKind::Fifo>();
  expectAllWidthsMatchRuntime<TagT, PolicyKind::Plru>();
  expectAllWidthsMatchRuntime<TagT, PolicyKind::QuadAgeLru>();
}

TEST(FixedAssoc, ConcreteAccessPathsMatchRuntimeAccess) {
  expectAllPoliciesMatchRuntime<NoTag>();
}

TEST(FixedAssoc, SymbolicAccessPathsMatchRuntimeAccess) {
  expectAllPoliciesMatchRuntime<SymTag>();
}

//===----------------------------------------------------------------------===//
// Writes under write-allocate
//===----------------------------------------------------------------------===//

/// Steps twin hierarchies over \p H on the same random blocks, one with
/// random write bits and one with reads only, both through access() or
/// both through accessBatch. The ops are whole iterations of up to three
/// lanes, with runs of one block and, now and then, a repeat marker
/// (spelled out for access()). Returns where the twins first differ --
/// in a per-access outcome, in a batch's counters or L1 miss blocks, or
/// at the end in a level's lines -- or "" when they never do.
template <typename TagT>
std::string writeReadDifference(const HierarchyConfig &H, bool Batched,
                                unsigned Seed) {
  CacheHierarchy<TagT> Writes(H), Reads(H);
  std::mt19937 Rng(Seed);
  const BlockId Span = 48; // L2 hits and misses, L1 hits at every depth.
  const int32_t Nodes[] = {0, 1, 2};
  int64_t X = 0;
  for (unsigned Chunk = 0; Chunk < 300; ++Chunk) {
    const std::string Where = "chunk " + std::to_string(Chunk);
    const unsigned Lanes = 1 + Rng() % 3, Iters = 1 + Rng() % 4;
    std::vector<BatchedAccess> W, R;
    BlockId B = static_cast<BlockId>(Rng() % Span);
    for (unsigned K = 0; K < Lanes * Iters; ++K) {
      if (Rng() % 3 != 0)
        B = static_cast<BlockId>(Rng() % Span);
      W.push_back(BatchedAccess::make(B, Rng() % 2 == 0));
      R.push_back(BatchedAccess::make(B, false));
    }
    const uint64_t Repeats = Rng() % 3 == 0 ? 1 + Rng() % 4 : 0;
    typename TagT::Cursor Tags;
    if constexpr (SetAssocCache<TagT>::HasTag) {
      Tags.Nodes = Nodes;
      Tags.NumLanes = Lanes;
      Tags.X = X;
    }
    X += static_cast<int64_t>(Iters + Repeats);
    if (Batched) {
      if (Repeats != 0)
        for (std::vector<BatchedAccess> *Ops : {&W, &R}) {
          Ops->push_back(BatchedAccess::repeatHeader(Lanes));
          Ops->push_back(BatchedAccess{Repeats});
        }
      BatchCounters CW, CR;
      std::vector<BlockId> MW, MR;
      L1MissSink SW = [&](BlockId Blk, bool) { MW.push_back(Blk); };
      L1MissSink SR = [&](BlockId Blk, bool) { MR.push_back(Blk); };
      Writes.accessBatch(W.data(), W.size(), CW, Tags, &SW);
      Reads.accessBatch(R.data(), R.size(), CR, Tags, &SR);
      if (CW.L1Accesses != CR.L1Accesses || CW.L1Misses != CR.L1Misses ||
          CW.L2Accesses != CR.L2Accesses || CW.L2Misses != CR.L2Misses ||
          CW.SkippedAccesses != CR.SkippedAccesses || MW != MR)
        return Where + " counters";
      continue;
    }
    const size_t Last = static_cast<size_t>(Lanes) * (Iters - 1);
    for (uint64_t Rep = 0; Rep < Repeats; ++Rep)
      for (size_t K = Last; K < Last + Lanes; ++K) {
        BatchedAccess OpW = W[K], OpR = R[K];
        W.push_back(OpW);
        R.push_back(OpR);
      }
    typename TagT::Cursor ReadTags = Tags;
    for (size_t K = 0; K < W.size(); ++K) {
      HierarchyOutcome OW =
          Writes.access(W[K].block(), W[K].isWrite(), Tags.next());
      HierarchyOutcome OR = Reads.access(R[K].block(), false, ReadTags.next());
      if (OW.L1Hit != OR.L1Hit || OW.L2Accessed != OR.L2Accessed ||
          OW.L2Hit != OR.L2Hit || OW.BackInvalidations != OR.BackInvalidations)
        return Where + " op " + std::to_string(K);
    }
  }
  for (unsigned L = 0; L < H.numLevels(); ++L) {
    std::string D = stateDifference(Writes.level(L), Reads.level(L));
    if (!D.empty())
      return "level " + std::to_string(L) + " " + D;
  }
  return "";
}

/// Under write-allocate, a write steps exactly like a read: every
/// policy, one and two levels, every inclusion, a runtime-assoc and a
/// fixed-assoc L1, through access() and accessBatch. A no-write-allocate
/// L1 is the control: there writes must make a difference.
template <typename TagT>
void expectWritesStepLikeReads() {
  std::vector<HierarchyConfig> Hierarchies;
  for (PolicyKind K : {PolicyKind::Lru, PolicyKind::Fifo, PolicyKind::Plru,
                       PolicyKind::QuadAgeLru})
    for (unsigned L1Ways : {2u, 4u}) {
      CacheConfig L1 = smallConfig(K, L1Ways, 2), L2 = smallConfig(K, 8, 4);
      Hierarchies.push_back(HierarchyConfig::singleLevel(L1));
      for (InclusionPolicy I : {InclusionPolicy::NonInclusiveNonExclusive,
                                InclusionPolicy::Inclusive,
                                InclusionPolicy::Exclusive})
        Hierarchies.push_back(HierarchyConfig::twoLevel(L1, L2, I));
    }
  unsigned Seed = 0;
  for (const HierarchyConfig &H : Hierarchies) {
    HierarchyConfig NoWriteAlloc = H;
    NoWriteAlloc.Levels[0].WriteAlloc = WriteAllocate::No;
    for (bool Batched : {false, true}) {
      const std::string Where = H.str() + (Batched ? " batched" : " stepped");
      ++Seed;
      EXPECT_EQ(writeReadDifference<TagT>(H, Batched, Seed), "") << Where;
      EXPECT_NE(writeReadDifference<TagT>(NoWriteAlloc, Batched, Seed), "")
          << Where << " with a no-write-allocate L1";
    }
  }
}

TEST(WriteAllocate, ConcreteWritesStepLikeReads) {
  expectWritesStepLikeReads<NoTag>();
}

TEST(WriteAllocate, SymbolicWritesStepLikeReads) {
  expectWritesStepLikeReads<SymTag>();
}

} // namespace
