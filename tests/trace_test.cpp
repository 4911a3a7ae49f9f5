//===- tests/trace_test.cpp - Trace substrate unit tests ------------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "RandomProgram.h"
#include "wcs/frontend/Frontend.h"
#include "wcs/polybench/Polybench.h"
#include "wcs/sim/ConcreteSimulator.h"
#include "wcs/trace/StackDistance.h"
#include "wcs/trace/TraceGenerator.h"
#include "wcs/trace/TraceSimulator.h"

#include <gtest/gtest.h>

#include <random>

using namespace wcs;

namespace {

ScopProgram smallKernel() {
  ParseResult R = parseScop(R"(
    param N = 300;
    double s; double A[N]; double B[N];
    for (t = 0; t < 3; t++)
      for (i = 1; i < N; i++) {
        B[i] = A[i] + A[i-1];
        s += B[i];
      }
  )");
  EXPECT_TRUE(R.ok()) << R.message();
  return std::move(R.Program);
}

TEST(TraceGenerator, ScalarExclusionMatchesSimulatorAccounting) {
  ScopProgram P = smallKernel();
  TraceOptions TO;
  TO.IncludeScalars = true;
  uint64_t Emitted = 0;
  uint64_t N =
      generateTrace(P, TO, [&](const TraceRecord &) { ++Emitted; });
  EXPECT_EQ(N, Emitted);
  // B[i] = A[i] + A[i-1] is 2 reads + 1 write; s += B[i] is read s,
  // read B[i], write s.
  EXPECT_EQ(N, 3u * 299u * 6u);
  TO.IncludeScalars = false;
  N = generateTrace(P, TO, [](const TraceRecord &) {});
  // Without scalars: A[i], A[i-1], B[i] write, B[i] read.
  EXPECT_EQ(N, 3u * 299u * 4u);
}

/// Banks of 16-, 64- and 256-byte blocks: LRU rows at widths 1, 8 and
/// 64, and exact 65-way profilers. The walk writes its chunks at the
/// smallest block size, and each bank must step them shifted to its own.
std::vector<SetDistanceBank> testBanks() {
  std::vector<SetDistanceBank> Banks;
  for (unsigned Block : {16u, 64u, 256u}) {
    Banks.emplace_back(Block, 4, 1);
    Banks.emplace_back(Block, 2, 8);
    Banks.emplace_back(Block, 1, 64);
    Banks.emplace_back(Block, 2, 65);
  }
  return Banks;
}

/// Every consumer of the program-order walk sees the same accesses as
/// generateTrace, the per-access reference: the banks fed by the
/// batched, marker-carrying linear pass at every associativity they
/// answer -- split into 1, 2 and 3 walk groups like the sweep's linear
/// walk (bank I in group I mod the group count, so every group mixes
/// block sizes and both representations) -- and the per-activation
/// count, capped or not.
void expectConsumersAgree(const ScopProgram &P, bool Scalars,
                          const std::string &Ctx) {
  TraceOptions TO;
  TO.IncludeScalars = Scalars;
  std::vector<SetDistanceBank> Ref = testBanks();
  uint64_t Records = generateTrace(P, TO, [&](const TraceRecord &R) {
    for (SetDistanceBank &B : Ref)
      B.accessAddr(R.Addr);
  });
  for (size_t NumGroups : {1u, 2u, 3u}) {
    std::vector<SetDistanceBank> Walked = testBanks();
    std::vector<std::vector<SetDistanceBank *>> Groups(NumGroups);
    for (size_t I = 0; I < Walked.size(); ++I)
      Groups[I % NumGroups].push_back(&Walked[I]);
    for (const std::vector<SetDistanceBank *> &G : Groups)
      ASSERT_EQ(feedBanks(P, Scalars, G), Records) << Ctx;
    for (size_t I = 0; I < Ref.size(); ++I) {
      const std::string Where = Ctx + " groups " +
                                std::to_string(NumGroups) + " bank " +
                                std::to_string(I);
      ASSERT_EQ(Walked[I].totalAccesses(), Ref[I].totalAccesses()) << Where;
      unsigned Width = Ref[I].truncatedAtAssoc() ? Ref[I].truncatedAtAssoc()
                                                 : 65;
      for (unsigned A = 1; A <= Width; ++A)
        ASSERT_EQ(Walked[I].missesForAssoc(A), Ref[I].missesForAssoc(A))
            << Where << " assoc " << A;
    }
  }
  EXPECT_EQ(countAccesses(P, TO), Records) << Ctx;
  for (uint64_t Cap : {Records / 2, Records - 1, Records, Records + 1})
    EXPECT_EQ(countAccesses(P, TO, Cap), std::min(Cap, Records))
        << Ctx << " cap " << Cap;
}

TEST(TraceGenerator, EveryWalkConsumerSeesTheSameAccesses) {
  std::mt19937 Rng(0x7A1C);
  for (int Draw = 0; Draw < 50; ++Draw) {
    ScopProgram P = testutil::generateProgram(Rng, /*LongRuns=*/Draw >= 40);
    expectConsumersAgree(P, false, "draw " + std::to_string(Draw) + "\n" +
                                       P.str());
  }
  std::string Err;
  ScopProgram Durbin = buildKernel("durbin", ProblemSize::Mini, &Err);
  ASSERT_EQ(Err, "");
  ScopProgram Small = smallKernel();
  for (bool Scalars : {false, true}) {
    expectConsumersAgree(Durbin, Scalars, "durbin");
    expectConsumersAgree(Small, Scalars, "small");
  }
}

TEST(TraceSimulator, AgreesWithTreeSimulatorWithoutWritebacks) {
  ScopProgram P = smallKernel();
  CacheConfig L1;
  L1.Assoc = 2;
  L1.BlockBytes = 64;
  L1.SizeBytes = 4 * 2 * 64;
  L1.Policy = PolicyKind::Lru;
  CacheConfig L2 = L1;
  L2.SizeBytes *= 4;
  HierarchyConfig H = HierarchyConfig::twoLevel(L1, L2);

  TraceSimOptions TSO;
  TSO.IncludeScalars = false;
  TSO.PropagateWritebacks = false;
  TraceSimulator TS(H, TSO);
  TraceSimResult TR = TS.runOnProgram(P);

  ConcreteSimulator Ref(P, H);
  SimStats R = Ref.run();
  EXPECT_EQ(TR.Stats.totalAccesses(), R.totalAccesses());
  EXPECT_EQ(TR.Stats.Level[0].Misses, R.Level[0].Misses);
  EXPECT_EQ(TR.Stats.Level[1].Accesses, R.Level[1].Accesses);
  EXPECT_EQ(TR.Stats.Level[1].Misses, R.Level[1].Misses);
  EXPECT_EQ(TR.Writebacks, 0u);
}

TEST(TraceSimulator, AgreesWithTreeSimulatorAcrossChunkBoundaries) {
  // 2 x 249999 x 3 = 1,499,994 accesses: more than one 1<<20-record
  // trace chunk, so runOnProgram drains once at the cap and once more
  // for the final partial chunk.
  ParseResult PR = parseScop(R"(
    param N = 250000;
    double A[N]; double B[N];
    for (t = 0; t < 2; t++)
      for (i = 1; i < N; i++)
        B[i] = A[i] + A[i-1];
  )");
  ASSERT_TRUE(PR.ok()) << PR.message();
  const ScopProgram &P = PR.Program;
  CacheConfig L1{4096, 8, 64, PolicyKind::Lru, WriteAllocate::Yes};
  CacheConfig L2{65536, 8, 64, PolicyKind::Lru, WriteAllocate::Yes};
  HierarchyConfig H = HierarchyConfig::twoLevel(L1, L2);

  TraceSimOptions TSO;
  TSO.PropagateWritebacks = false;
  TraceSimResult TR = TraceSimulator(H, TSO).runOnProgram(P);
  SimStats R = ConcreteSimulator(P, H).run();
  ASSERT_EQ(R.totalAccesses(), 1499994u);
  EXPECT_EQ(TR.Stats.totalAccesses(), R.totalAccesses());
  EXPECT_EQ(TR.Stats.Level[0].Misses, R.Level[0].Misses);
  EXPECT_EQ(TR.Stats.Level[1].Accesses, R.Level[1].Accesses);
  EXPECT_EQ(TR.Stats.Level[1].Misses, R.Level[1].Misses);
}

// Leaving write-backs out never changes what the L1 does, whatever its
// policy: wcs-bench's fig11 reference (PLRU L1) relies on it.
class WritebackL1Policy : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(WritebackL1Policy, WritebacksOnlyAddL2Traffic) {
  ScopProgram P = smallKernel();
  CacheConfig L1;
  L1.Assoc = 4;
  L1.BlockBytes = 64;
  L1.SizeBytes = 2 * 4 * 64;
  L1.Policy = GetParam();
  CacheConfig L2 = L1;
  L2.SizeBytes *= 8;
  HierarchyConfig H = HierarchyConfig::twoLevel(L1, L2);

  TraceSimOptions A;
  A.PropagateWritebacks = true;
  TraceSimOptions B = A;
  B.PropagateWritebacks = false;
  TraceSimulator SA(H, A), SB(H, B);
  TraceSimResult RA = SA.runOnProgram(P), RB = SB.runOnProgram(P);
  EXPECT_EQ(RA.Stats.Level[0].Misses, RB.Stats.Level[0].Misses)
      << "write-backs never change L1 behavior";
  EXPECT_GT(RA.Writebacks, 0u) << "dirty victims must occur here";
}

INSTANTIATE_TEST_SUITE_P(
    TraceSimulator, WritebackL1Policy,
    ::testing::Values(PolicyKind::Lru, PolicyKind::Fifo, PolicyKind::Plru,
                      PolicyKind::QuadAgeLru),
    [](const ::testing::TestParamInfo<PolicyKind> &I) {
      return std::string(policyName(I.param));
    });

TEST(StackDistance, MatchesBruteForceLruStack) {
  // Reference: explicit LRU stack simulation over random block traces.
  std::mt19937 Rng(7);
  for (int Trial = 0; Trial < 10; ++Trial) {
    std::vector<BlockId> Trace;
    std::uniform_int_distribution<BlockId> Blocks(0, 30);
    for (int I = 0; I < 600; ++I)
      Trace.push_back(Blocks(Rng));

    StackDistanceProfiler Prof;
    std::vector<BlockId> Stack; // Front = most recent.
    std::vector<uint64_t> RefHist;
    uint64_t RefColds = 0;
    for (BlockId B : Trace) {
      auto It = std::find(Stack.begin(), Stack.end(), B);
      if (It == Stack.end()) {
        ++RefColds;
      } else {
        uint64_t D = static_cast<uint64_t>(It - Stack.begin());
        if (RefHist.size() <= D)
          RefHist.resize(D + 1, 0);
        ++RefHist[D];
        Stack.erase(It);
      }
      Stack.insert(Stack.begin(), B);
      Prof.accessBlock(B);
    }
    EXPECT_EQ(Prof.coldAccesses(), RefColds);
    ASSERT_EQ(Prof.histogram().size(), RefHist.size());
    for (size_t D = 0; D < RefHist.size(); ++D)
      EXPECT_EQ(Prof.histogram()[D], RefHist[D]) << "distance " << D;
  }
}

TEST(StackDistance, MissesMatchFullyAssociativeLruSimulation) {
  ScopProgram P = smallKernel();
  StackDistanceProfiler Prof = profileProgram(P, 64);
  for (unsigned Lines : {1u, 2u, 4u, 8u, 16u}) {
    CacheConfig C;
    C.Assoc = Lines;
    C.BlockBytes = 64;
    C.SizeBytes = static_cast<uint64_t>(Lines) * 64;
    C.Policy = PolicyKind::Lru;
    ConcreteSimulator Sim(P, HierarchyConfig::singleLevel(C));
    SimStats S = Sim.run();
    EXPECT_EQ(Prof.missesForCache(C), S.Level[0].Misses)
        << Lines << " lines";
  }
}

TEST(StackDistance, StackHistogramIsMonotoneInCacheSize) {
  ScopProgram P = smallKernel();
  StackDistanceProfiler Prof = profileProgram(P, 64);
  uint64_t Prev = UINT64_MAX;
  for (unsigned K = 1; K <= 64; K *= 2) {
    uint64_t M = Prof.missesForAssoc(K);
    EXPECT_LE(M, Prev) << "LRU inclusion property";
    Prev = M;
  }
  EXPECT_GE(Prof.missesForAssoc(1u << 20), Prof.coldAccesses());
}

} // namespace
