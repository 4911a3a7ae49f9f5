//===- tests/polybench_golden_test.cpp - Analytic golden results ----------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
// Miss counts that can be derived by hand pin the whole pipeline
// (frontend -> layout -> simulation) to the right absolute numbers, not
// just to simulator-vs-simulator consistency; warp decisions on the
// scaled L1 are pinned the same way.
//
//===----------------------------------------------------------------------===//

#include "wcs/polybench/Polybench.h"
#include "wcs/sim/ConcreteSimulator.h"
#include "wcs/sim/WarpingSimulator.h"
#include "wcs/trace/PeriodicPass.h"
#include "wcs/trace/StackDistance.h"
#include "wcs/trace/TraceGenerator.h"

#include <gtest/gtest.h>

#include <climits>
#include <set>

using namespace wcs;

namespace {

/// Distinct blocks a program touches (= cold misses in any big cache).
uint64_t distinctBlocks(const ScopProgram &P) {
  std::set<BlockId> Blocks;
  generateTrace(P, /*IncludeScalars=*/false, [&](const TraceRecord &R) {
    Blocks.insert(R.Addr >> 6);
  });
  return Blocks.size();
}

HierarchyConfig hugeCache() {
  // Big enough that only cold misses remain on every MINI working set
  // used here; fully associative LRU at the widest valid associativity
  // (4096 ways x 64 B = 256 KiB).
  CacheConfig C;
  C.BlockBytes = 64;
  C.Assoc = 4096;
  C.SizeBytes = static_cast<uint64_t>(C.Assoc) * 64;
  C.Policy = PolicyKind::Lru;
  return HierarchyConfig::singleLevel(C);
}

TEST(PolybenchGolden, HugeCacheLeavesExactlyColdMisses) {
  for (const char *Name : {"gemm", "jacobi-2d", "trisolv", "durbin",
                           "doitgen", "nussinov"}) {
    std::string Err;
    ScopProgram P = buildKernel(Name, ProblemSize::Mini, &Err);
    ASSERT_EQ(Err, "") << Name;
    ConcreteSimulator Sim(P, hugeCache());
    SimStats S = Sim.run();
    EXPECT_EQ(S.Level[0].Misses, distinctBlocks(P)) << Name;
    WarpingSimulator Warp(P, hugeCache());
    EXPECT_EQ(Warp.run().Level[0].Misses, distinctBlocks(P)) << Name;
  }
}

/// Warp decisions, pinned. Miss counts alone cannot see a change that
/// only loses (or gains) warps -- a relativization bug in the symbolic
/// tags, say -- so the warp diagnostics of kernels that warp a lot
/// (stencils, deriche), a little (correlation) and not at all (gemm,
/// gramschmidt) are fixed constants, under every policy, for both the
/// batched and the per-access stepping of the warping simulator.
TEST(PolybenchGolden, WarpDecisionsArePinned) {
  struct Pin {
    const char *Kernel;
    PolicyKind Policy;
    uint64_t Warps, WarpedAccesses, FailedWarpChecks, SimulatedAccesses;
  };
  const Pin Pins[] = {
      {"jacobi-2d", PolicyKind::Lru, 5, 247296, 0, 6624},
      {"jacobi-2d", PolicyKind::Fifo, 5, 246192, 0, 7728},
      {"jacobi-2d", PolicyKind::Plru, 13, 154560, 93, 99360},
      {"jacobi-2d", PolicyKind::QuadAgeLru, 1, 203136, 7, 50784},
      {"heat-3d", PolicyKind::Lru, 13, 471856, 0, 11088},
      {"heat-3d", PolicyKind::Fifo, 7, 466928, 0, 16016},
      {"heat-3d", PolicyKind::Plru, 5, 431200, 3, 51744},
      {"heat-3d", PolicyKind::QuadAgeLru, 5, 463540, 0, 19404},
      {"deriche", PolicyKind::Lru, 8, 214569, 4, 15831},
      {"deriche", PolicyKind::Fifo, 8, 214209, 4, 16191},
      {"deriche", PolicyKind::Plru, 6, 96992, 119, 133408},
      {"deriche", PolicyKind::QuadAgeLru, 6, 131328, 127, 99072},
      {"gemm", PolicyKind::Lru, 0, 0, 0, 363600},
      {"gemm", PolicyKind::Fifo, 0, 0, 0, 363600},
      {"gemm", PolicyKind::Plru, 0, 0, 0, 363600},
      {"gemm", PolicyKind::QuadAgeLru, 0, 0, 0, 363600},
      {"gramschmidt", PolicyKind::Lru, 0, 0, 12, 604275},
      {"gramschmidt", PolicyKind::Fifo, 0, 0, 0, 604275},
      {"gramschmidt", PolicyKind::Plru, 0, 0, 0, 604275},
      {"gramschmidt", PolicyKind::QuadAgeLru, 0, 0, 0, 604275},
      {"correlation", PolicyKind::Lru, 2, 17600, 31, 325625},
      {"correlation", PolicyKind::Fifo, 1, 2936, 2, 340289},
      {"correlation", PolicyKind::Plru, 0, 0, 0, 343225},
      {"correlation", PolicyKind::QuadAgeLru, 1, 2936, 7, 340289},
  };
  for (const Pin &X : Pins) {
    std::string Err;
    ScopProgram P = buildKernel(X.Kernel, ProblemSize::Small, &Err);
    ASSERT_EQ(Err, "") << X.Kernel;
    CacheConfig C = CacheConfig::scaledL1();
    C.Policy = X.Policy;
    for (bool Batch : {true, false}) {
      SimOptions O;
      O.BatchConcrete = Batch;
      SimStats S = WarpingSimulator(P, HierarchyConfig::singleLevel(C), O)
                       .run();
      std::string Ctx = std::string(X.Kernel) + "/" + policyName(X.Policy) +
                        (Batch ? " batched" : " per-access");
      EXPECT_EQ(S.Warps, X.Warps) << Ctx;
      EXPECT_EQ(S.WarpedAccesses, X.WarpedAccesses) << Ctx;
      EXPECT_EQ(S.FailedWarpChecks, X.FailedWarpChecks) << Ctx;
      EXPECT_EQ(S.SimulatedAccesses, X.SimulatedAccesses) << Ctx;
    }
  }
}

TEST(PolybenchGolden, Jacobi1dStreamingMissCount) {
  // jacobi-1d at MINI: TSTEPS=10, N=60. Two 60-double arrays = 2 * 8
  // blocks (block-aligned base, 480 bytes -> blocks 0..7 of each array).
  // In a direct-mapped single-set cache of one line, every access to a
  // different block than the previous one misses; with a huge cache only
  // the 16 cold misses remain.
  std::string Err;
  ScopProgram P = buildKernel("jacobi-1d", ProblemSize::Mini, &Err);
  ASSERT_EQ(Err, "");
  EXPECT_EQ(distinctBlocks(P), 16u);
  ConcreteSimulator Sim(P, hugeCache());
  EXPECT_EQ(Sim.run().Level[0].Misses, 16u);
}

TEST(PolybenchGolden, GemmFullyAssociativeLruByStackDistance) {
  // The stack-distance oracle and both simulators must agree on
  // fully-associative LRU miss counts for every associativity.
  std::string Err;
  ScopProgram P = buildKernel("gemm", ProblemSize::Mini, &Err);
  ASSERT_EQ(Err, "");
  SetDistanceBank Prof = profileProgramSets(P, 64, 1, UINT_MAX);
  for (unsigned Lines : {4u, 16u, 64u, 256u}) {
    CacheConfig C;
    C.BlockBytes = 64;
    C.Assoc = Lines;
    C.SizeBytes = static_cast<uint64_t>(Lines) * 64;
    C.Policy = PolicyKind::Lru;
    HierarchyConfig H = HierarchyConfig::singleLevel(C);
    ConcreteSimulator Sim(P, H);
    EXPECT_EQ(Sim.run().Level[0].Misses, Prof.missesForAssoc(Lines))
        << Lines;
  }
}

TEST(PolybenchGolden, MissesDecreaseWithCacheSize) {
  // LRU inclusion property at the kernel level: growing a
  // fully-associative LRU cache never adds misses.
  for (const char *Name : {"atax", "seidel-2d", "lu"}) {
    std::string Err;
    ScopProgram P = buildKernel(Name, ProblemSize::Mini, &Err);
    ASSERT_EQ(Err, "") << Name;
    uint64_t Prev = UINT64_MAX;
    for (unsigned Lines = 2; Lines <= 512; Lines *= 4) {
      CacheConfig C;
      C.BlockBytes = 64;
      C.Assoc = Lines;
      C.SizeBytes = static_cast<uint64_t>(Lines) * 64;
      C.Policy = PolicyKind::Lru;
      ConcreteSimulator Sim(P, HierarchyConfig::singleLevel(C));
      uint64_t M = Sim.run().Level[0].Misses;
      EXPECT_LE(M, Prev) << Name << " at " << Lines << " lines";
      Prev = M;
    }
  }
}

TEST(PolybenchGolden, AccessCountsAreSizeIndependentOfCache) {
  // The access count is a program property; every cache configuration
  // must report the same one.
  std::string Err;
  ScopProgram P = buildKernel("gemver", ProblemSize::Mini, &Err);
  ASSERT_EQ(Err, "");
  uint64_t Expected = 0;
  {
    ConcreteSimulator Sim(P, hugeCache());
    Expected = Sim.run().totalAccesses();
  }
  // gemver at MINI (N=40), scalars excluded: nest1 performs 6 array
  // accesses per (i,j); nests 2 and 4 perform 4 (alpha/beta are
  // scalars); nest3 performs 3 per i.
  EXPECT_EQ(Expected, 40u * 40 * 6 + 40u * 40 * 4 + 40u * 3 + 40u * 40 * 4);
  for (PolicyKind K : {PolicyKind::Lru, PolicyKind::Plru}) {
    CacheConfig C;
    C.BlockBytes = 64;
    C.Assoc = 4;
    C.SizeBytes = 4 * 8 * 64;
    C.Policy = K;
    ConcreteSimulator Sim(P, HierarchyConfig::singleLevel(C));
    EXPECT_EQ(Sim.run().totalAccesses(), Expected) << policyName(K);
  }
}

/// The periodic pass's warp decisions, pinned like the scaled L1's: the
/// depth-profiled warping walk of one 64-byte 16-way LRU bank of 4, 64
/// and 1,024 sets, on a kernel whose passes warp (jacobi-2d) and one
/// whose checks fail (gramschmidt at 4 sets). The histogram's accesses
/// and its beyond-16 count pin what the pass answers.
TEST(PolybenchGolden, PeriodicPassDecisionsArePinned) {
  struct Pin {
    const char *Kernel;
    unsigned Sets;
    uint64_t Warps, WarpedAccesses, FailedWarpChecks, Accesses, Beyond;
  };
  const Pin Pins[] = {
      {"gramschmidt", 4, 0, 0, 61, 604275, 302809},
      {"gramschmidt", 64, 0, 0, 0, 604275, 950},
      {"gramschmidt", 1024, 0, 0, 0, 604275, 947},
      {"jacobi-2d", 4, 5, 247296, 0, 253920, 11280},
      {"jacobi-2d", 64, 1, 203136, 0, 253920, 576},
      {"jacobi-2d", 1024, 1, 203136, 0, 253920, 576},
  };
  for (const Pin &X : Pins) {
    std::string Err;
    ScopProgram P = buildKernel(X.Kernel, ProblemSize::Small, &Err);
    ASSERT_EQ(Err, "") << X.Kernel;
    PeriodicPassResult R = runPeriodicPass(P, 64, X.Sets, 16);
    std::string Ctx = std::string(X.Kernel) + "/" + std::to_string(X.Sets);
    EXPECT_EQ(R.Stats.Warps, X.Warps) << Ctx;
    EXPECT_EQ(R.Stats.WarpedAccesses, X.WarpedAccesses) << Ctx;
    EXPECT_EQ(R.Stats.FailedWarpChecks, X.FailedWarpChecks) << Ctx;
    EXPECT_EQ(R.Histogram.Accesses, X.Accesses) << Ctx;
    EXPECT_EQ(R.Histogram.Beyond, X.Beyond) << Ctx;
  }
}

} // namespace
