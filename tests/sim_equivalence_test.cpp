//===- tests/sim_equivalence_test.cpp - Warping soundness property --------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
// The central soundness property of the whole system: warping simulation
// and non-warping simulation produce identical access and miss counts at
// every cache level, for every replacement policy, over randomized
// polyhedral programs (random nests, triangular bounds, guards, strided
// subscripts) and randomized cache geometries.
//
//===----------------------------------------------------------------------===//

#include "RandomProgram.h"
#include "wcs/frontend/Frontend.h"
#include "wcs/scop/Builder.h"
#include "wcs/sim/ConcreteSimulator.h"
#include "wcs/sim/SymbolicCache.h"
#include "wcs/sim/WarpingSimulator.h"
#include "wcs/support/Telemetry.h"
#include "wcs/trace/StackDistance.h"
#include "wcs/trace/TraceSimulator.h"

#include <gtest/gtest.h>

#include <random>

using namespace wcs;
using testutil::generateProgram;
using testutil::randomHierarchy;

namespace {

struct GenConfig {
  unsigned Seed;
  PolicyKind Policy;
  bool TwoLevel;
};

class RandomProgramEquivalence : public ::testing::TestWithParam<GenConfig> {};

TEST_P(RandomProgramEquivalence, WarpingEqualsConcrete) {
  GenConfig G = GetParam();
  std::mt19937 Rng(G.Seed);
  for (int Trial = 0; Trial < 12; ++Trial) {
    ScopProgram P = generateProgram(Rng);
    HierarchyConfig H = randomHierarchy(Rng, G.Policy, G.TwoLevel);
    // Aggressive warping bounds to exercise the machinery on small loops.
    SimOptions O;
    O.Warp.MinProbesForLearning = 1000000; // Never disable probing.
    O.Warp.EnableProfitGuard = false;

    ConcreteSimulator Ref(P, H);
    WarpingSimulator Warp(P, H, O);
    SimStats R = Ref.run(), W = Warp.run();

    ASSERT_EQ(W.totalAccesses(), R.totalAccesses())
        << "trial " << Trial << "\n"
        << P.str() << H.str();
    ASSERT_EQ(W.Level[0].Misses, R.Level[0].Misses)
        << "trial " << Trial << "\n"
        << P.str() << H.str();
    if (G.TwoLevel) {
      ASSERT_EQ(W.Level[1].Accesses, R.Level[1].Accesses)
          << "trial " << Trial << "\n"
          << P.str() << H.str();
      ASSERT_EQ(W.Level[1].Misses, R.Level[1].Misses)
          << "trial " << Trial << "\n"
          << P.str() << H.str();
    }
    ASSERT_EQ(W.SimulatedAccesses + W.WarpedAccesses, W.totalAccesses());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomProgramEquivalence,
    ::testing::Values(GenConfig{101, PolicyKind::Lru, false},
                      GenConfig{102, PolicyKind::Lru, true},
                      GenConfig{201, PolicyKind::Fifo, false},
                      GenConfig{202, PolicyKind::Fifo, true},
                      GenConfig{301, PolicyKind::Plru, false},
                      GenConfig{302, PolicyKind::Plru, true},
                      GenConfig{401, PolicyKind::QuadAgeLru, false},
                      GenConfig{402, PolicyKind::QuadAgeLru, true}),
    [](const ::testing::TestParamInfo<GenConfig> &Info) {
      return std::string(policyName(Info.param.Policy)) +
             (Info.param.TwoLevel ? "_L2" : "_L1") + "_s" +
             std::to_string(Info.param.Seed);
    });

/// Dense streaming programs exercise the rotating-match path heavily;
/// run them over every policy with several block/element ratios.
class StreamEquivalence
    : public ::testing::TestWithParam<std::tuple<PolicyKind, int>> {};

TEST_P(StreamEquivalence, RotatingWarpsAreExact) {
  auto [K, ElemBytes] = GetParam();
  ScopBuilder B("stream");
  unsigned A = B.addArray("A", ElemBytes, {6000});
  unsigned C = B.addArray("C", ElemBytes, {6000});
  B.beginLoop("i", B.cst(2), B.cst(5500));
  B.read(A, {B.iter("i") - B.cst(2)});
  B.read(A, {B.iter("i") + B.cst(1)});
  B.write(C, {B.iter("i")});
  B.endLoop();
  std::string Err;
  ScopProgram P = B.finish(&Err);
  ASSERT_EQ(Err, "");

  CacheConfig Cfg;
  Cfg.BlockBytes = 64;
  Cfg.Assoc = 4;
  Cfg.SizeBytes = 8 * 4 * 64;
  Cfg.Policy = K;
  HierarchyConfig H = HierarchyConfig::singleLevel(Cfg);
  ConcreteSimulator Ref(P, H);
  WarpingSimulator Warp(P, H);
  SimStats R = Ref.run(), W = Warp.run();
  EXPECT_EQ(W.Level[0].Misses, R.Level[0].Misses) << policyName(K);
  EXPECT_EQ(W.totalAccesses(), R.totalAccesses());
  EXPECT_GE(W.Warps, 1u) << "dense streams must warp under "
                         << policyName(K);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, StreamEquivalence,
    ::testing::Combine(::testing::Values(PolicyKind::Lru, PolicyKind::Fifo,
                                         PolicyKind::Plru,
                                         PolicyKind::QuadAgeLru),
                       ::testing::Values(4, 8, 64)),
    [](const ::testing::TestParamInfo<std::tuple<PolicyKind, int>> &Info) {
      return std::string(policyName(std::get<0>(Info.param))) + "_e" +
             std::to_string(std::get<1>(Info.param));
    });

//===----------------------------------------------------------------------===//
// Run skipping. The batched walk counts the repeats of an all-hit
// iteration instead of simulating them (CacheHierarchy::accessBatch).
// Each case compares it with the per-access walk for both payloads, and
// pins through the sim.skipped_accesses counter whether it skipped.
//===----------------------------------------------------------------------===//

constexpr PolicyKind kAllPolicies[] = {PolicyKind::Lru, PolicyKind::Fifo,
                                       PolicyKind::Plru,
                                       PolicyKind::QuadAgeLru};

uint64_t skippedSoFar() {
  return telemetry::registry().counter("sim.skipped_accesses").value();
}

CacheConfig cacheOf(unsigned Sets, unsigned Assoc, PolicyKind K,
                    WriteAllocate WA = WriteAllocate::Yes) {
  return CacheConfig{uint64_t(Sets) * Assoc * 64, Assoc, 64, K, WA};
}

void expectSameStats(const SimStats &A, const SimStats &B,
                     const std::string &Ctx) {
  ASSERT_EQ(A.NumLevels, B.NumLevels) << Ctx;
  for (unsigned L = 0; L < A.NumLevels; ++L) {
    EXPECT_EQ(A.Level[L].Accesses, B.Level[L].Accesses) << Ctx << " L" << L;
    EXPECT_EQ(A.Level[L].Misses, B.Level[L].Misses) << Ctx << " L" << L;
  }
  EXPECT_EQ(A.SimulatedAccesses, B.SimulatedAccesses) << Ctx;
  EXPECT_EQ(A.WarpedAccesses, B.WarpedAccesses) << Ctx;
  EXPECT_EQ(A.Warps, B.Warps) << Ctx;
  EXPECT_EQ(A.FailedWarpChecks, B.FailedWarpChecks) << Ctx;
}

/// Accesses the batched walk skipped, per payload.
struct Skips {
  uint64_t Concrete = 0;
  uint64_t Symbolic = 0;
};

/// Runs \p P on \p H through the batched and the per-access walk of
/// both simulators and expects identical results. The symbolic payload
/// runs with warping off, so every activation is one batched walk, and
/// with warping on and a short probe window, so batched tails follow
/// probed iterations and the warp decisions must agree too.
Skips expectWalksAgree(const ScopProgram &P, const HierarchyConfig &H) {
  std::string Ctx = H.str();
  SimOptions PerAccess;
  PerAccess.BatchConcrete = false;
  Skips Got;
  SimStats Ref = ConcreteSimulator(P, H, PerAccess).run();
  uint64_t Before = skippedSoFar();
  expectSameStats(Ref, ConcreteSimulator(P, H).run(), Ctx + " concrete");
  Got.Concrete = skippedSoFar() - Before;
  for (bool Warp : {false, true}) {
    SimOptions Batched;
    Batched.Warp.Enable = Warp;
    Batched.Warp.MaxProbeIters = 8;
    SimOptions Scalar = Batched;
    Scalar.BatchConcrete = false;
    std::string WCtx = Ctx + (Warp ? " warping" : " symbolic");
    SimStats A = WarpingSimulator(P, H, Scalar).run();
    Before = skippedSoFar();
    SimStats B = WarpingSimulator(P, H, Batched).run();
    if (!Warp)
      Got.Symbolic = skippedSoFar() - Before;
    expectSameStats(A, B, WCtx);
    EXPECT_EQ(Ref.Level[0].Misses, B.Level[0].Misses) << WCtx;
  }
  return Got;
}

void expectSkips(const Skips &S, bool Expected, const std::string &Ctx) {
  EXPECT_EQ(S.Concrete != 0, Expected) << Ctx << " concrete";
  EXPECT_EQ(S.Symbolic != 0, Expected) << Ctx << " symbolic";
}

/// Accesses below address zero: the per-access step and the batched walk
/// must give a negative address one block id, so every backend and both
/// walks of both simulators report the trace-driven misses. The second
/// program touches block -1 (address -8), which must not pass for an
/// empty cache line: 3 cold misses, not 2.
TEST(NegativeAddresses, EveryBackendAndWalkAgree) {
  struct Case {
    const char *Source;
    uint64_t Accesses, Misses;
  };
  const Case Cases[] = {{R"(
    double A[16];
    for (t = 0; t < 5; t++) {
      A[0 - 2000] = 1;
      for (i = 0; i < 64; i++)
        A[i - 2000] = A[i - 2000] + 1;
    }
  )", 645, 8}, {R"(
    double A[16]; double B[16];
    for (t = 0; t < 4; t++)
      for (i = 0; i < 16; i++)
        A[0 - 513] = A[0 - 513] + B[i];
  )", 192, 3}};
  HierarchyConfig H =
      HierarchyConfig::singleLevel(cacheOf(8, 2, PolicyKind::Lru));
  for (const Case &C : Cases) {
    ParseResult R = parseScop(C.Source);
    ASSERT_TRUE(R.ok()) << R.message();
    const ScopProgram &P = R.Program;
    ASSERT_LT(P.accesses()[0]->Address.constantTerm(), 0);
    TraceSimOptions TSO;
    TSO.IncludeScalars = false;
    TSO.PropagateWritebacks = false;
    SimStats Ref = TraceSimulator(H, TSO).runOnProgram(P).Stats;
    EXPECT_EQ(Ref.totalAccesses(), C.Accesses);
    EXPECT_EQ(Ref.Level[0].Misses, C.Misses);
    EXPECT_EQ(profileProgramSets(P, 64, 8, 2).missesForAssoc(2), C.Misses);
    for (bool Batch : {true, false}) {
      SimOptions O;
      O.BatchConcrete = Batch;
      std::string Ctx = Batch ? "batched" : "per-access";
      for (const SimStats &S : {ConcreteSimulator(P, H, O).run(),
                                WarpingSimulator(P, H, O).run()}) {
        EXPECT_EQ(S.totalAccesses(), C.Accesses) << Ctx;
        EXPECT_EQ(S.Level[0].Misses, C.Misses) << Ctx;
      }
    }
  }
}

/// Every line of \p H as (block, dirty, tag), in logical order, plus the
/// per-set policy words: everything a later access or a warp check can
/// observe.
std::vector<int64_t> stateOf(const SymbolicHierarchy &H) {
  std::vector<int64_t> V;
  for (unsigned L = 0; L < H.numLevels(); ++L) {
    const SymbolicCache &C = H.level(L);
    for (unsigned Set = 0; Set < C.numSets(); ++Set) {
      V.push_back(static_cast<int64_t>(C.policyWord(Set)));
      for (unsigned W = 0; W < C.assoc(); ++W) {
        SymLine Ln = C.lineAt(Set, W);
        V.insert(V.end(), {Ln.Block, Ln.Dirty, Ln.Tag.NodeId,
                           Ln.Tag.Epoch, Ln.Tag.X});
      }
    }
    V.push_back(C.mraSet());
  }
  return V;
}

/// A repeat marker must leave exactly the state, tags and counters of
/// the iterations it stands for, spelled out: random iterations (some
/// fit their sets and skip, some thrash) over random warm states, every
/// policy and inclusion, with the lanes' tags advancing per iteration.
TEST(RunSkipping, MarkerEqualsUnrolledIterations) {
  std::mt19937 Rng(0x4E57);
  auto Rand = [&](int Lo, int Hi) {
    return std::uniform_int_distribution<int>(Lo, Hi)(Rng);
  };
  const int32_t Nodes[] = {3, 4, 5, 6, 7};
  uint64_t Skipped = 0;
  for (int Trial = 0; Trial < 400; ++Trial) {
    PolicyKind K = kAllPolicies[Trial % 4];
    HierarchyConfig H = HierarchyConfig::singleLevel(
        cacheOf(1u << Rand(0, 2), 2u << Rand(0, 2), K,
                Rand(0, 3) == 0 ? WriteAllocate::No : WriteAllocate::Yes));
    if (Rand(0, 2) == 0) {
      H = HierarchyConfig::twoLevel(
          H.Levels[0], cacheOf(8, 4, K == PolicyKind::Plru ? PolicyKind::Lru
                                                           : K));
      H.Inclusion = static_cast<InclusionPolicy>(Rand(0, 2));
    }
    SymbolicHierarchy Marked(H);
    std::vector<BatchedAccess> Warm;
    for (int I = Rand(0, 40); I > 0; --I)
      Warm.push_back(BatchedAccess::make(Rand(0, 15), Rand(0, 3) == 0));
    BatchCounters Ignored;
    Marked.accessBatch(Warm.data(), Warm.size(), Ignored,
                       CacheLineTraits<SymLine>::TagCursor{Nodes, 1, 0, 1, 0});
    SymbolicHierarchy Unrolled = Marked;

    unsigned Lanes = static_cast<unsigned>(Rand(1, 5));
    std::vector<BatchedAccess> Iter;
    for (unsigned L = 0; L < Lanes; ++L)
      Iter.push_back(BatchedAccess::make(Rand(0, 15), Rand(0, 2) == 0));
    uint64_t Count = static_cast<uint64_t>(Rand(2, 40));
    std::vector<BatchedAccess> A = Iter, B;
    A.push_back(BatchedAccess::repeatHeader(Lanes));
    A.push_back(BatchedAccess{Count});
    for (uint64_t R = 0; R <= Count; ++R)
      B.insert(B.end(), Iter.begin(), Iter.end());
    CacheLineTraits<SymLine>::TagCursor Tags{Nodes, Lanes, 0, 1, 100};
    BatchCounters CA, CB;
    Marked.accessBatch(A.data(), A.size(), CA, Tags);
    Unrolled.accessBatch(B.data(), B.size(), CB, Tags);
    std::string Ctx = "trial " + std::to_string(Trial) + " " + H.str();
    EXPECT_EQ(CA.L1Accesses, CB.L1Accesses) << Ctx;
    EXPECT_EQ(CA.L1Misses, CB.L1Misses) << Ctx;
    EXPECT_EQ(CA.L2Accesses, CB.L2Accesses) << Ctx;
    EXPECT_EQ(CA.L2Misses, CB.L2Misses) << Ctx;
    EXPECT_EQ(CB.SkippedAccesses, 0u);
    EXPECT_EQ(stateOf(Marked), stateOf(Unrolled)) << Ctx;
    Skipped += CA.SkippedAccesses;
  }
  EXPECT_GT(Skipped, 0u);
}

/// Three blocks in one set of two ways: every iteration misses, under
/// every policy, so no run may skip.
TEST(RunSkipping, OverfullSetNeverSkips) {
  ScopBuilder B("overfull");
  unsigned A = B.addArray("A", 8, {1024});
  unsigned Bv = B.addArray("B", 8, {1024});
  unsigned C = B.addArray("C", 8, {1024});
  B.beginLoop("i", B.cst(0), B.cst(1023));
  B.read(A, {B.iter("i")});
  B.read(Bv, {B.iter("i")});
  B.read(C, {B.iter("i")});
  B.endLoop();
  std::string Err;
  ScopProgram P = B.finish(&Err);
  ASSERT_EQ(Err, "");
  for (PolicyKind K : kAllPolicies)
    expectSkips(expectWalksAgree(
                    P, HierarchyConfig::singleLevel(cacheOf(4, 2, K))),
                false, policyName(K));
}

/// A full 4-way PLRU set holds A, B, X, Y. The run's first iteration
/// hits A and B, fills C over X, then fills D over A -- its own fill
/// evicts a block it hit. Skipping must wait until an application hits
/// everywhere.
TEST(RunSkipping, PlruFillEvictingAnEarlierHitWaits) {
  ScopBuilder B("plru-own-evict");
  unsigned Ids[6];
  for (unsigned I = 0; I < 6; ++I)
    Ids[I] = B.addArray(std::string(1, "ABXYCD"[I]), 8, {8});
  for (unsigned I : {0, 1, 2, 3})
    B.read(Ids[I], {B.cst(0)});
  B.beginLoop("i", B.cst(0), B.cst(2999));
  for (unsigned I : {0, 1, 4, 5})
    B.read(Ids[I], {B.cst(0)});
  B.endLoop();
  std::string Err;
  ScopProgram P = B.finish(&Err);
  ASSERT_EQ(Err, "");
  HierarchyConfig H =
      HierarchyConfig::singleLevel(cacheOf(1, 4, PolicyKind::Plru));
  Skips S = expectWalksAgree(P, H);
  expectSkips(S, true, "plru");
  // At most the first few iterations are simulated.
  EXPECT_GE(S.Concrete, 4u * 2990);
}

/// A cold QLRU run: the first iteration inserts at InsertAge, and the
/// second, though it hits everywhere, ages those lines to HitAge -- a
/// real update. Only from the state after it do repetitions change
/// nothing.
TEST(RunSkipping, QlruInsertAgeRun) {
  ScopBuilder B("qlru-insert");
  unsigned A = B.addArray("A", 8, {8});
  unsigned Bv = B.addArray("B", 8, {8});
  B.beginLoop("i", B.cst(0), B.cst(999));
  B.read(A, {B.cst(0)});
  B.write(Bv, {B.cst(0)});
  B.endLoop();
  std::string Err;
  ScopProgram P = B.finish(&Err);
  ASSERT_EQ(Err, "");
  for (unsigned Assoc : {2u, 4u, 8u})
    expectSkips(expectWalksAgree(P, HierarchyConfig::singleLevel(cacheOf(
                                        1, Assoc, PolicyKind::QuadAgeLru))),
                true, "qlru");
}

/// Without write allocation, a write to a block the iteration does not
/// read misses every time: no application hits everywhere.
TEST(RunSkipping, NoWriteAllocateWriteLaneNeverSkips) {
  ScopBuilder B("nwa");
  unsigned A = B.addArray("A", 8, {8});
  unsigned Bv = B.addArray("B", 8, {8});
  B.beginLoop("i", B.cst(0), B.cst(999));
  B.read(A, {B.cst(0)});
  B.write(Bv, {B.cst(0)});
  B.endLoop();
  std::string Err;
  ScopProgram P = B.finish(&Err);
  ASSERT_EQ(Err, "");
  for (PolicyKind K : kAllPolicies) {
    HierarchyConfig H = HierarchyConfig::singleLevel(
        cacheOf(2, 4, K, WriteAllocate::No));
    expectSkips(expectWalksAgree(P, H), false, policyName(K));
  }
}

/// Lanes walking down through their arrays: runs end where a lane
/// crosses into the block below.
TEST(RunSkipping, NegativeStrides) {
  ScopBuilder B("descending");
  unsigned A = B.addArray("A", 8, {2000});
  unsigned C = B.addArray("C", 4, {2000});
  unsigned E = B.addArray("E", 8, {8});
  B.beginLoop("i", B.cst(0), B.cst(1999));
  B.read(A, {B.cst(1999) - B.iter("i")});
  B.read(E, {B.cst(3)});
  B.write(C, {B.cst(1998) - B.iter("i")});
  B.endLoop();
  std::string Err;
  ScopProgram P = B.finish(&Err);
  ASSERT_EQ(Err, "");
  for (PolicyKind K : kAllPolicies)
    expectSkips(expectWalksAgree(
                    P, HierarchyConfig::singleLevel(cacheOf(8, 4, K))),
                true, policyName(K));
}

/// A loop of stride-0 lanes is one run, however long: 15,000 accesses,
/// more than a chunk's 1,024, from two simulated iterations.
TEST(RunSkipping, StrideZeroLoopLongerThanAChunk) {
  ScopBuilder B("stride0");
  unsigned A = B.addArray("A", 8, {8});
  unsigned Bv = B.addArray("B", 8, {8});
  B.beginLoop("t", B.cst(0), B.cst(2));
  B.beginLoop("i", B.cst(0), B.cst(4999));
  B.read(A, {B.cst(1)});
  B.read(A, {B.cst(2)});
  B.write(Bv, {B.cst(3)});
  B.endLoop();
  B.endLoop();
  std::string Err;
  ScopProgram P = B.finish(&Err);
  ASSERT_EQ(Err, "");
  for (PolicyKind K : kAllPolicies) {
    HierarchyConfig H = HierarchyConfig::singleLevel(cacheOf(2, 2, K));
    Skips S = expectWalksAgree(P, H);
    EXPECT_EQ(S.Concrete, 3u * 3 * 4998) << policyName(K);
    EXPECT_EQ(S.Symbolic, 3u * 3 * 4998) << policyName(K);
    EXPECT_EQ(ConcreteSimulator(P, H).run().SimulatedAccesses, 45000u);
  }
}

/// Two-level hierarchies under each inclusion policy: only L1 misses
/// reach the L2, so skipped repetitions leave it -- and the L1 lines an
/// inclusive L2 would back-invalidate -- untouched.
TEST(RunSkipping, TwoLevelHierarchiesEveryInclusion) {
  ScopBuilder B("two-level");
  unsigned A = B.addArray("A", 8, {32, 256});
  unsigned X = B.addArray("X", 8, {256});
  unsigned Y = B.addArray("Y", 8, {32});
  B.beginLoop("i", B.cst(0), B.cst(31));
  B.beginLoop("j", B.cst(0), B.cst(255));
  B.read(A, {B.iter("i"), B.iter("j")});
  B.read(X, {B.iter("j")});
  B.write(Y, {B.iter("i")});
  B.endLoop();
  B.endLoop();
  std::string Err;
  ScopProgram P = B.finish(&Err);
  ASSERT_EQ(Err, "");
  for (PolicyKind K : kAllPolicies)
    for (InclusionPolicy Incl : {InclusionPolicy::NonInclusiveNonExclusive,
                                 InclusionPolicy::Inclusive,
                                 InclusionPolicy::Exclusive}) {
      HierarchyConfig H = HierarchyConfig::twoLevel(
          cacheOf(2, 2, K),
          cacheOf(8, 4, K == PolicyKind::Plru ? PolicyKind::Lru : K));
      H.Inclusion = Incl;
      expectSkips(expectWalksAgree(P, H), true,
                  std::string(policyName(K)) + " " + inclusionName(Incl));
    }
}

/// A depth-profiled walk simulates one more application from the fixed
/// point and counts its depths once per skipped repetition: the
/// histogram must equal the per-access walk's, warping or not.
TEST(RunSkipping, DepthProfiledLruWalk) {
  ScopBuilder B("depth");
  unsigned A = B.addArray("A", 8, {2000});
  unsigned C = B.addArray("C", 8, {2000});
  unsigned E = B.addArray("E", 8, {8});
  B.beginLoop("t", B.cst(0), B.cst(3));
  B.beginLoop("i", B.cst(0), B.cst(1999));
  B.read(A, {B.iter("i")});
  B.read(E, {B.cst(1)});
  B.read(C, {B.cst(1999) - B.iter("i")});
  B.write(A, {B.iter("i")});
  B.endLoop();
  B.endLoop();
  std::string Err;
  ScopProgram P = B.finish(&Err);
  ASSERT_EQ(Err, "");
  HierarchyConfig H =
      HierarchyConfig::singleLevel(cacheOf(8, 8, PolicyKind::Lru));
  for (bool Warp : {false, true}) {
    SimOptions Batched;
    Batched.Warp.Enable = Warp;
    Batched.Warp.MaxProbeIters = 8;
    SimOptions Scalar = Batched;
    Scalar.BatchConcrete = false;
    WarpingSimulator Ref(P, H, Scalar), Got(P, H, Batched);
    Ref.enableDepthProfile();
    Got.enableDepthProfile();
    SimStats R = Ref.run();
    uint64_t Before = skippedSoFar();
    SimStats G = Got.run();
    EXPECT_GT(skippedSoFar() - Before, 0u) << "warp " << Warp;
    expectSameStats(R, G, Warp ? "warping" : "symbolic");
    EXPECT_EQ(Ref.depthHist(), Got.depthHist()) << "warp " << Warp;
    uint64_t Hits = 0;
    for (uint64_t N : Got.depthHist())
      Hits += N;
    EXPECT_EQ(Hits, G.Level[0].Accesses - G.Level[0].Misses);
  }
}

} // namespace
