//===- tests/periodic_pass_test.cpp - Warp-aware pass cross-checks --------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
// The periodic (warp-aware) stack-distance pass must be bit-identical to
// the linear trace walk it replaces -- histogram for histogram, miss
// count for miss count at every associativity -- whether or not the
// program actually warps. The property suite enforces this across random
// programs (which mostly do NOT warp, exercising the concrete-stepping
// fallback) and hand-built periodic programs (which warp, exercising the
// analytic histogram scaling), plus the sweep driver's flavor switch.
//
//===----------------------------------------------------------------------===//

#include "RandomProgram.h"
#include "wcs/driver/Sweep.h"
#include "wcs/polybench/Polybench.h"
#include "wcs/scop/Builder.h"
#include "wcs/sim/BatchWalk.h"
#include "wcs/sim/ConcreteSimulator.h"
#include "wcs/trace/PeriodicPass.h"
#include "wcs/trace/StackDistance.h"

#include <gtest/gtest.h>

#include <random>

using namespace wcs;
using testutil::generateProgram;

namespace {

/// A strongly periodic program: \p Steps sweeps over a \p Blocks-block
/// array (8 accesses per block at 8-byte elements, 64-byte lines) -- the
/// time-loop shape that makes warping and the periodic pass shine.
ScopProgram periodicSweepProgram(int Steps, int Blocks) {
  ScopBuilder B("periodic");
  unsigned A = B.addArray("A", 8, {static_cast<int64_t>(Blocks) * 8});
  B.beginLoop("t", B.cst(0), B.cst(Steps - 1));
  B.beginLoop("i", B.cst(0), B.cst(Blocks * 8 - 1));
  B.read(A, {B.iterAt(1)});
  B.endLoop();
  B.endLoop();
  std::string Err;
  ScopProgram P = B.finish(&Err);
  EXPECT_EQ(Err, "");
  return P;
}

/// Requires the bank the periodic pass conditions -- the one the sweep
/// driver builds -- to agree with the linear pass's bank of the same
/// width, histogram for histogram and at EVERY associativity up to it.
void expectPassesAgree(const ScopProgram &P, unsigned BlockBytes,
                       unsigned NumSets, unsigned MaxAssoc) {
  SetDistanceBank Linear =
      profileProgramSets(P, BlockBytes, NumSets, MaxAssoc);
  PeriodicPassResult R =
      runPeriodicPass(P, BlockBytes, NumSets, MaxAssoc);
  SetDistanceBank Warp(BlockBytes, NumSets, MaxAssoc);
  ASSERT_TRUE(R.addTo(Warp));
  EXPECT_EQ(Warp.totalAccesses(), Linear.totalAccesses()) << P.str();
  EXPECT_EQ(Warp.histogram(), Linear.histogram()) << P.str();
  EXPECT_EQ(Warp.alwaysMisses(), Linear.alwaysMisses()) << P.str();
  for (uint64_t Assoc = 1; Assoc <= MaxAssoc; Assoc *= 2)
    EXPECT_EQ(Warp.missesForAssoc(Assoc), Linear.missesForAssoc(Assoc))
        << "assoc " << Assoc << " sets " << NumSets << " block "
        << BlockBytes << "\n"
        << P.str();
}

TEST(PeriodicPass, MatchesLinearPassOnRandomPrograms) {
  std::mt19937 Rng(20260729);
  for (int Trial = 0; Trial < 6; ++Trial) {
    ScopProgram P = generateProgram(Rng);
    auto Rand = [&](int Lo, int Hi) {
      return std::uniform_int_distribution<int>(Lo, Hi)(Rng);
    };
    unsigned BlockBytes = Rand(0, 1) ? 64 : 32;
    unsigned NumSets = 1u << Rand(0, 3);
    unsigned MaxAssoc = 1u << Rand(2, 6);
    expectPassesAgree(P, BlockBytes, NumSets, MaxAssoc);
  }
}

TEST(PeriodicPass, WarpsAndStaysIdenticalOnPeriodicProgram) {
  // 64 blocks fit a 128-way stack (hits at depths 0 and 63); 40 sweeps
  // give the warp engine plenty of periods to skip.
  ScopProgram P = periodicSweepProgram(/*Steps=*/40, /*Blocks=*/64);
  PeriodicPassResult R = runPeriodicPass(P, 64, 1, 128);
  EXPECT_GT(R.Stats.Warps, 0u) << "periodic program must warp";
  EXPECT_GT(R.Stats.WarpedAccesses, 0u);
  expectPassesAgree(P, 64, 1, 128);

  // Thrashing geometry: the array exceeds the stack, so every re-touch
  // lands beyond the truncation depth. Still bit-identical.
  ScopProgram Big = periodicSweepProgram(/*Steps=*/20, /*Blocks=*/512);
  expectPassesAgree(Big, 64, 1, 128);
  // And a set-associative geometry of the same pass.
  expectPassesAgree(Big, 64, 8, 32);
}

TEST(PeriodicPass, AgreesWithConcreteSimulatorSpotChecks) {
  ScopProgram P = periodicSweepProgram(/*Steps=*/12, /*Blocks=*/96);
  unsigned MaxAssoc = 256;
  PeriodicPassResult R = runPeriodicPass(P, 64, 1, MaxAssoc);
  SetDistanceBank Bank(64, 1, MaxAssoc);
  ASSERT_TRUE(R.addTo(Bank));
  for (unsigned Assoc : {16u, 64u, 256u}) {
    CacheConfig C{static_cast<uint64_t>(Assoc) * 64, Assoc, 64,
                  PolicyKind::Lru, WriteAllocate::Yes};
    ConcreteSimulator Sim(P, HierarchyConfig::singleLevel(C));
    SimStats Ref = Sim.run();
    EXPECT_EQ(Bank.missesForCache(C), Ref.Level[0].Misses) << C.str();
  }
}

TEST(PeriodicPass, BankOfThePassWidthAnswersOnlyWithinIt) {
  ScopProgram P = periodicSweepProgram(/*Steps=*/4, /*Blocks=*/16);
  PeriodicPassResult R = runPeriodicPass(P, 64, 1, 8);
  SetDistanceBank Bank(64, 1, 8);
  ASSERT_TRUE(R.addTo(Bank));
  EXPECT_EQ(Bank.maxAssoc(), 8u);
  CacheConfig Within{8 * 64, 8, 64, PolicyKind::Lru, WriteAllocate::Yes};
  CacheConfig Beyond{16 * 64, 16, 64, PolicyKind::Lru,
                     WriteAllocate::Yes};
  EXPECT_TRUE(Bank.matches(Within));
  EXPECT_FALSE(Bank.matches(Beyond));
  // 16 blocks cycled through 8 ways: each misses once in each of the 4
  // sweeps, and its other 7 accesses hit at distance 0.
  EXPECT_EQ(Bank.missesForCache(Within), 4u * 16u);
  EXPECT_EQ(Bank.histogram()[0], 4u * 16u * 7u);
}

/// The warp pilot: a pass that warps within its budget runs and decides
/// exactly as without a pilot; one that steps its budget without a warp
/// finishes on the concrete floor at the next activation top, and its
/// histogram is still the linear walk's.
TEST(PeriodicPass, WarpPilotKeepsWarpingPassesAndFinishesTheRestConcretely) {
  ScopProgram P = periodicSweepProgram(/*Steps=*/40, /*Blocks=*/64);
  PeriodicPassResult Free = runPeriodicPass(P, 64, 1, 128);
  ASSERT_GT(Free.Stats.Warps, 0u);
  const uint64_t Trace = Free.Stats.Level[0].Accesses;
  PeriodicPassResult Kept =
      runPeriodicPass(P, 64, 1, 128, SimOptions(), Trace / 8);
  EXPECT_EQ(Kept.Stats.PilotTailAccesses, 0u);
  EXPECT_EQ(Kept.Stats.Warps, Free.Stats.Warps);
  EXPECT_EQ(Kept.Stats.WarpedAccesses, Free.Stats.WarpedAccesses);
  EXPECT_EQ(Kept.Stats.SimulatedAccesses, Free.Stats.SimulatedAccesses);
  EXPECT_EQ(Kept.Histogram.Hist, Free.Histogram.Hist);
  EXPECT_EQ(Kept.Histogram.Beyond, Free.Histogram.Beyond);

  // gemm at SMALL never warps on 4 sets of 16 ways.
  std::string Err;
  ScopProgram Gemm = buildKernel("gemm", ProblemSize::Small, &Err);
  ASSERT_EQ(Err, "");
  const uint64_t GemmTrace = countAccesses(Gemm, /*IncludeScalars=*/false);
  PeriodicPassResult Tail =
      runPeriodicPass(Gemm, 64, 4, 16, SimOptions(), GemmTrace / 8);
  EXPECT_EQ(Tail.Stats.Warps, 0u);
  const uint64_t Probed = GemmTrace - Tail.Stats.PilotTailAccesses;
  EXPECT_GE(Probed, GemmTrace / 8);
  EXPECT_LT(Probed, GemmTrace / 4);
  EXPECT_EQ(Tail.Stats.Level[0].Accesses, GemmTrace);
  EXPECT_EQ(Tail.Stats.SimulatedAccesses, GemmTrace);
  EXPECT_GT(Tail.Stats.Seconds, 0.0);
  SetDistanceBank FromPass(64, 4, 16), Linear(64, 4, 16);
  ASSERT_TRUE(Tail.addTo(FromPass));
  EXPECT_EQ(feedBanks(Gemm, /*IncludeScalars=*/false, {&Linear}), GemmTrace);
  EXPECT_EQ(FromPass.histogram(), Linear.histogram());
  EXPECT_EQ(FromPass.alwaysMisses(), Linear.alwaysMisses());
  EXPECT_EQ(FromPass.totalAccesses(), Linear.totalAccesses());
}

//===----------------------------------------------------------------------===//
// The sweep driver's flavor switch
//===----------------------------------------------------------------------===//

/// Forcing the periodic pass and forcing the linear pass must produce
/// bit-identical points; only the provenance figures differ.
TEST(PeriodicPass, SweepFlavorsAreBitIdentical) {
  std::mt19937 Rng(7);
  std::vector<ScopProgram> Programs;
  Programs.push_back(periodicSweepProgram(30, 48));
  Programs.push_back(generateProgram(Rng));
  for (const ScopProgram &P : Programs) {
    std::vector<HierarchyConfig> Grid;
    for (uint64_t Cap = 512; Cap <= 16 * 1024; Cap *= 2) {
      CacheConfig C{Cap, static_cast<unsigned>(Cap / 64), 64,
                    PolicyKind::Lru, WriteAllocate::Yes};
      Grid.push_back(HierarchyConfig::singleLevel(C));
    }
    // A second geometry (set-associative) forces a second bank.
    CacheConfig SA{4096, 4, 64, PolicyKind::Lru, WriteAllocate::Yes};
    Grid.push_back(HierarchyConfig::singleLevel(SA));

    SweepOptions Periodic;
    Periodic.WarpSweepMinAccesses = 0; // Force the periodic flavor.
    SweepOptions Linear;
    Linear.WarpSweepMinAccesses = UINT64_MAX; // Force the linear flavor.

    SweepReport RP = runSweep(P, Grid, Periodic);
    SweepReport RL = runSweep(P, Grid, Linear);
    ASSERT_TRUE(RP.allOk());
    ASSERT_TRUE(RL.allOk());
    EXPECT_TRUE(RP.PeriodicPass);
    EXPECT_FALSE(RL.PeriodicPass);
    EXPECT_EQ(RP.NumBanks, 2u);
    for (size_t I = 0; I < Grid.size(); ++I) {
      EXPECT_EQ(RP.Points[I].Method, SweepMethod::StackDistance);
      EXPECT_EQ(RP.Points[I].Stats.Level[0].Accesses,
                RL.Points[I].Stats.Level[0].Accesses)
          << Grid[I].str();
      EXPECT_EQ(RP.Points[I].Stats.Level[0].Misses,
                RL.Points[I].Stats.Level[0].Misses)
          << Grid[I].str();
    }
  }
}

/// The counting pre-walk: short traces stay on the linear pass under
/// the default threshold; a zero threshold forces the periodic pass.
TEST(PeriodicPass, CountingPrewalkPicksTheFlavor) {
  ScopProgram P = periodicSweepProgram(4, 16);
  CacheConfig C{1024, 16, 64, PolicyKind::Lru, WriteAllocate::Yes};
  std::vector<HierarchyConfig> Grid = {HierarchyConfig::singleLevel(C)};
  SweepOptions Default; // Threshold at its default.
  SweepReport RD = runSweep(P, Grid, Default);
  ASSERT_TRUE(RD.allOk());
  EXPECT_FALSE(RD.PeriodicPass) << "tiny trace must use the linear pass";
  SweepOptions Forced;
  Forced.WarpSweepMinAccesses = 0;
  SweepReport RF = runSweep(P, Grid, Forced);
  ASSERT_TRUE(RF.allOk());
  EXPECT_TRUE(RF.PeriodicPass);
  EXPECT_EQ(RF.Points[0].Stats.Level[0].Misses,
            RD.Points[0].Stats.Level[0].Misses);
}

/// Sweeps over the warp-aware pass agree with independent concrete
/// simulation point for point -- the same contract the linear pass has,
/// across programs that warp and programs that do not.
TEST(PeriodicPass, SweepMatchesConcretePerPoint) {
  std::mt19937 Rng(101);
  std::vector<ScopProgram> Programs;
  Programs.push_back(periodicSweepProgram(16, 80));
  Programs.push_back(generateProgram(Rng));
  for (const ScopProgram &P : Programs) {
    std::vector<HierarchyConfig> Grid;
    for (uint64_t Cap : {512u, 2048u, 8192u}) {
      CacheConfig C{Cap, static_cast<unsigned>(Cap / 64), 64,
                    PolicyKind::Lru, WriteAllocate::Yes};
      Grid.push_back(HierarchyConfig::singleLevel(C));
    }
    SweepOptions SO;
    SO.WarpSweepMinAccesses = 0; // Force the periodic flavor.
    SweepReport Rep = runSweep(P, Grid, SO);
    ASSERT_TRUE(Rep.allOk());
    EXPECT_TRUE(Rep.PeriodicPass);
    for (size_t I = 0; I < Grid.size(); ++I) {
      ConcreteSimulator Sim(P, Grid[I]);
      SimStats Ref = Sim.run();
      EXPECT_EQ(Rep.Points[I].Stats.Level[0].Misses,
                Ref.Level[0].Misses)
          << Grid[I].str();
      EXPECT_EQ(Rep.Points[I].Stats.Level[0].Accesses,
                Ref.Level[0].Accesses)
          << Grid[I].str();
    }
  }
}

} // namespace
