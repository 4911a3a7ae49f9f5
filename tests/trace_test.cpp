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
#include "wcs/support/MathUtil.h"
#include "wcs/trace/StackDistance.h"
#include "wcs/trace/TraceGenerator.h"
#include "wcs/trace/TraceSimulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
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
  uint64_t Emitted = 0;
  uint64_t N = generateTrace(P, /*IncludeScalars=*/true,
                             [&](const TraceRecord &) { ++Emitted; });
  EXPECT_EQ(N, Emitted);
  // B[i] = A[i] + A[i-1] is 2 reads + 1 write; s += B[i] is read s,
  // read B[i], write s.
  EXPECT_EQ(N, 3u * 299u * 6u);
  N = generateTrace(P, /*IncludeScalars=*/false, [](const TraceRecord &) {});
  // Without scalars: A[i], A[i-1], B[i] write, B[i] read.
  EXPECT_EQ(N, 3u * 299u * 4u);
}

/// Banks of 16-, 64- and 256-byte blocks: LRU rows at widths 1, 8 and
/// 64, exact 65-way trackers, and the fully associative profile (one
/// set, unbounded width). The walk writes its chunks at the smallest
/// block size, and each bank must step them shifted to its own.
std::vector<SetDistanceBank> testBanks() {
  std::vector<SetDistanceBank> Banks;
  for (unsigned Block : {16u, 64u, 256u}) {
    Banks.emplace_back(Block, 4, 1);
    Banks.emplace_back(Block, 2, 8);
    Banks.emplace_back(Block, 1, 64);
    Banks.emplace_back(Block, 2, 65);
    Banks.emplace_back(Block, 1, UINT_MAX);
  }
  return Banks;
}

/// Every consumer of the program-order walk sees the same accesses as
/// generateTrace, the per-access reference: the banks fed by the
/// batched, marker-carrying linear pass, histogram bucket for bucket
/// and always-miss count -- split into 1, 2 and 3 walk groups like the
/// sweep's linear walk (bank I in group I mod the group count, so every
/// group mixes block sizes and both representations) -- and the
/// per-activation count, capped or not.
void expectConsumersAgree(const ScopProgram &P, bool Scalars,
                          const std::string &Ctx) {
  std::vector<SetDistanceBank> Ref = testBanks();
  uint64_t Records = generateTrace(P, Scalars, [&](const TraceRecord &R) {
    for (SetDistanceBank &B : Ref)
      B.accessBlock(R.Addr >> log2Exact(B.blockBytes()));
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
      ASSERT_EQ(Walked[I].histogram(), Ref[I].histogram()) << Where;
      ASSERT_EQ(Walked[I].alwaysMisses(), Ref[I].alwaysMisses()) << Where;
    }
  }
  EXPECT_EQ(countAccesses(P, Scalars), Records) << Ctx;
  for (uint64_t Cap : {Records / 2, Records - 1, Records, Records + 1})
    EXPECT_EQ(countAccesses(P, Scalars, Cap), std::min(Cap, Records))
        << Ctx << " cap " << Cap;
}

TEST(TraceGenerator, EveryWalkConsumerSeesTheSameAccesses) {
  using testutil::ProgramShape;
  std::mt19937 Rng(0x7A1C);
  for (int Draw = 0; Draw < 60; ++Draw) {
    ProgramShape Shape = Draw < 40   ? ProgramShape::Plain
                         : Draw < 50 ? ProgramShape::LongRuns
                                     : ProgramShape::ShortActivations;
    ScopProgram P = testutil::generateProgram(Rng, Shape);
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
  // 2,000 activations of two-iteration loops between sibling accesses:
  // one-run activations that fill the linear walk's chunks, so many of
  // them end past a chunk's flush mark.
  ParseResult Short = parseScop(R"(
    param N; double A[N][2]; double B[N][2]; double C[N];
    for (i = 0; i < N; i++) {
      for (j = 0; j < 2; j++) A[i][j] = 0.0;
      for (j = 0; j < 2; j++) B[i][j] = 0.0;
      C[i] = 0.0;
    }
  )", {{"N", 2000}});
  ASSERT_TRUE(Short.ok()) << Short.message();
  expectConsumersAgree(Short.Program, false, "short activations");
}

/// Fifteen int scalars ahead of a double one: packed back to back, the
/// double would sit at bytes 60-67 of a 64-byte block.
ScopProgram mixedScalarKernel() {
  std::string Src;
  for (int I = 0; I < 15; ++I)
    Src += "int s" + std::to_string(I) + ";\n";
  Src += "double d; double A[64];\n"
         "for (i = 0; i < 64; i++)\n"
         "  A[i] = d + s0;\n";
  ParseResult R = parseScop(Src);
  EXPECT_TRUE(R.ok()) << R.message();
  return std::move(R.Program);
}

TEST(TraceSimulator, AgreesWithTreeSimulator) {
  CacheConfig L1;
  L1.Assoc = 2;
  L1.BlockBytes = 64;
  L1.SizeBytes = 4 * 2 * 64;
  L1.Policy = PolicyKind::Lru;
  CacheConfig L2 = L1;
  L2.SizeBytes *= 4;
  HierarchyConfig H = HierarchyConfig::twoLevel(L1, L2);

  struct Input {
    const char *Name;
    ScopProgram Program;
    bool Scalars;
  } Inputs[] = {{"small", smallKernel(), false},
                {"mixed scalars", mixedScalarKernel(), true}};
  for (const Input &In : Inputs) {
    SCOPED_TRACE(In.Name);
    SimStats T = simulateTrace(In.Program, H, In.Scalars);

    SimOptions SO;
    SO.IncludeScalars = In.Scalars;
    ConcreteSimulator Ref(In.Program, H, SO);
    SimStats R = Ref.run();
    EXPECT_EQ(T.totalAccesses(), R.totalAccesses());
    EXPECT_EQ(T.Level[0].Misses, R.Level[0].Misses);
    EXPECT_EQ(T.Level[1].Accesses, R.Level[1].Accesses);
    EXPECT_EQ(T.Level[1].Misses, R.Level[1].Misses);
  }
}

TEST(TraceSimulator, AgreesWithTreeSimulatorAcrossChunkBoundaries) {
  // 2 x 249999 x 3 = 1,499,994 accesses: more than one 1<<20-record
  // trace chunk, so simulateTrace drains once at the cap and once more
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

  SimStats T = simulateTrace(P, H, /*IncludeScalars=*/true);
  SimStats R = ConcreteSimulator(P, H).run();
  ASSERT_EQ(R.totalAccesses(), 1499994u);
  EXPECT_EQ(T.totalAccesses(), R.totalAccesses());
  EXPECT_EQ(T.Level[0].Misses, R.Level[0].Misses);
  EXPECT_EQ(T.Level[1].Accesses, R.Level[1].Accesses);
  EXPECT_EQ(T.Level[1].Misses, R.Level[1].Misses);
}

TEST(StackDistance, MatchesBruteForceLruStack) {
  // Reference: explicit LRU stack simulation over random block traces,
  // against the fully associative profile (a one-set bank of unbounded
  // width).
  std::mt19937 Rng(7);
  for (int Trial = 0; Trial < 10; ++Trial) {
    std::vector<BlockId> Trace;
    std::uniform_int_distribution<BlockId> Blocks(0, 30);
    for (int I = 0; I < 600; ++I)
      Trace.push_back(Blocks(Rng));

    SetDistanceBank Prof(64, 1, UINT_MAX);
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
    EXPECT_EQ(Prof.alwaysMisses(), RefColds);
    ASSERT_EQ(Prof.histogram().size(), RefHist.size());
    for (size_t D = 0; D < RefHist.size(); ++D)
      EXPECT_EQ(Prof.histogram()[D], RefHist[D]) << "distance " << D;
  }
}

TEST(StackDistance, MissesMatchFullyAssociativeLruSimulation) {
  ScopProgram P = smallKernel();
  SetDistanceBank Prof = profileProgramSets(P, 64, 1, UINT_MAX);
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
  SetDistanceBank Prof = profileProgramSets(P, 64, 1, UINT_MAX);
  uint64_t Prev = UINT64_MAX;
  for (unsigned K = 1; K <= 64; K *= 2) {
    uint64_t M = Prof.missesForAssoc(K);
    EXPECT_LE(M, Prev) << "LRU inclusion property";
    Prev = M;
  }
  EXPECT_GE(Prof.missesForAssoc(1u << 20), Prof.alwaysMisses());
}

} // namespace
