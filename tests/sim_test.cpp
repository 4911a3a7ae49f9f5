//===- tests/sim_test.cpp - Simulator unit tests --------------------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
// Direct checks of Algorithm 1 and Algorithm 2 on the paper's running
// examples, with analytically known hit/miss counts.
//
//===----------------------------------------------------------------------===//

#include "wcs/frontend/Frontend.h"
#include "wcs/scop/Builder.h"
#include "wcs/sim/ConcreteSimulator.h"
#include "wcs/sim/WarpingSimulator.h"

#include <gtest/gtest.h>

#include <set>

using namespace wcs;

namespace {

/// The paper's Fig. 1 running example: each array cell occupies a full
/// cache line (64-byte elements), fully-associative LRU cache of size 2.
ScopProgram fig1Stencil() {
  ScopBuilder B("fig1");
  unsigned A = B.addArray("A", 64, {1000});
  unsigned Bv = B.addArray("B", 64, {1000});
  B.beginLoop("i", B.cst(1), B.cst(998));
  B.read(A, {B.iter("i") - B.cst(1)});
  B.read(A, {B.iter("i")});
  B.write(Bv, {B.iter("i") - B.cst(1)});
  B.endLoop();
  std::string Err;
  ScopProgram P = B.finish(&Err);
  EXPECT_EQ(Err, "");
  return P;
}

HierarchyConfig tinyFullyAssoc(unsigned Lines, PolicyKind K) {
  CacheConfig C;
  C.BlockBytes = 64;
  C.Assoc = Lines;
  C.SizeBytes = static_cast<uint64_t>(Lines) * 64;
  C.Policy = K;
  return HierarchyConfig::singleLevel(C);
}

TEST(ConcreteSim, Fig1MissCountsMatchThePaper) {
  ScopProgram P = fig1Stencil();
  ConcreteSimulator Sim(P, tinyFullyAssoc(2, PolicyKind::Lru));
  SimStats S = Sim.run();
  // 998 iterations: 3 misses in the first, then 1 hit + 2 misses each.
  EXPECT_EQ(S.totalAccesses(), 998u * 3);
  EXPECT_EQ(S.Level[0].Misses, 3u + 997u * 2);
  EXPECT_EQ(S.Level[0].hits(), 997u);
  EXPECT_EQ(S.SimulatedAccesses, S.totalAccesses());
  EXPECT_EQ(S.WarpedAccesses, 0u);
}

TEST(WarpingSim, Fig1WarpsAndCountsExactly) {
  ScopProgram P = fig1Stencil();
  WarpingSimulator Sim(P, tinyFullyAssoc(2, PolicyKind::Lru));
  SimStats S = Sim.run();
  EXPECT_EQ(S.totalAccesses(), 998u * 3);
  EXPECT_EQ(S.Level[0].Misses, 3u + 997u * 2);
  EXPECT_GE(S.Warps, 1u);
  // The paper fast-forwards after two explicit iterations; our two-phase
  // store needs one more, so at most a handful are simulated explicitly.
  EXPECT_LE(S.SimulatedAccesses, 5u * 3);
  EXPECT_EQ(S.SimulatedAccesses + S.WarpedAccesses, S.totalAccesses());
  EXPECT_LT(S.nonWarpedShare(), 0.01);
}

TEST(WarpingSim, Fig3SetAssociativeRotation) {
  // The paper's Fig. 3: four sets of associativity two, LRU; the state
  // rotates by one set per iteration (pi_rot(1)). Warping must still be
  // exact and must engage.
  ScopProgram P = fig1Stencil();
  CacheConfig C;
  C.BlockBytes = 64;
  C.Assoc = 2;
  C.SizeBytes = 4 * 2 * 64; // 4 sets.
  C.Policy = PolicyKind::Lru;
  WarpingSimulator Warp(P, HierarchyConfig::singleLevel(C));
  ConcreteSimulator Ref(P, HierarchyConfig::singleLevel(C));
  SimStats W = Warp.run(), R = Ref.run();
  EXPECT_EQ(W.totalAccesses(), R.totalAccesses());
  EXPECT_EQ(W.Level[0].Misses, R.Level[0].Misses);
  EXPECT_GE(W.Warps, 1u);
  EXPECT_LT(W.nonWarpedShare(), 0.05);
}

TEST(WarpingSim, WarpingDisabledMatchesConcrete) {
  ScopProgram P = fig1Stencil();
  SimOptions O;
  O.Warp.Enable = false;
  WarpingSimulator Sim(P, tinyFullyAssoc(2, PolicyKind::Lru), O);
  SimStats S = Sim.run();
  EXPECT_EQ(S.Warps, 0u);
  EXPECT_EQ(S.WarpedAccesses, 0u);
  EXPECT_EQ(S.Level[0].Misses, 3u + 997u * 2);
}

TEST(WarpingSim, AllPoliciesWarpTheStencil) {
  for (PolicyKind K : {PolicyKind::Lru, PolicyKind::Fifo, PolicyKind::Plru,
                       PolicyKind::QuadAgeLru}) {
    ScopProgram P = fig1Stencil();
    HierarchyConfig H = tinyFullyAssoc(2, K);
    WarpingSimulator Warp(P, H);
    ConcreteSimulator Ref(P, H);
    SimStats W = Warp.run(), R = Ref.run();
    EXPECT_EQ(W.Level[0].Misses, R.Level[0].Misses) << policyName(K);
    EXPECT_GE(W.Warps, 1u) << policyName(K);
  }
}

TEST(WarpingSim, TwoLevelHierarchyIsExactAndWarps) {
  // Dense sweep over a 1D array with 4-byte elements: the classic
  // delta = blocksize/elemsize rotating match.
  ParseResult PR = parseScop(R"(
    param N = 4096;
    int A[N]; int B[N];
    for (t = 0; t < 6; t++)
      for (i = 1; i < N - 1; i++)
        B[i] = A[i-1] + A[i] + A[i+1];
  )");
  ASSERT_TRUE(PR.ok()) << PR.message();
  CacheConfig L1;
  L1.BlockBytes = 64;
  L1.Assoc = 2;
  L1.SizeBytes = 8 * 2 * 64; // 8 sets.
  L1.Policy = PolicyKind::Lru;
  CacheConfig L2 = L1;
  L2.SizeBytes = 32 * 2 * 64; // 32 sets.
  HierarchyConfig H = HierarchyConfig::twoLevel(L1, L2);
  WarpingSimulator Warp(PR.Program, H);
  ConcreteSimulator Ref(PR.Program, H);
  SimStats W = Warp.run(), R = Ref.run();
  EXPECT_EQ(W.totalAccesses(), R.totalAccesses());
  EXPECT_EQ(W.Level[0].Misses, R.Level[0].Misses);
  EXPECT_EQ(W.Level[1].Accesses, R.Level[1].Accesses);
  EXPECT_EQ(W.Level[1].Misses, R.Level[1].Misses);
  EXPECT_GE(W.Warps, 1u);
  EXPECT_LT(W.nonWarpedShare(), 0.2);
}

TEST(WarpingSim, GuardedBoundaryLimitsTheWarp) {
  // The guard turns off the extra access midway through the loop; the
  // domain check must stop warping at the boundary, keeping counts exact.
  ParseResult PR = parseScop(R"(
    param N = 2048;
    int A[N]; int B[N];
    for (i = 0; i < N; i++) {
      B[i] = A[i];
      if (i >= 1000)
        B[i] = A[i] + A[i - 1000];
    }
  )");
  ASSERT_TRUE(PR.ok()) << PR.message();
  CacheConfig C;
  C.BlockBytes = 64;
  C.Assoc = 4;
  C.SizeBytes = 4 * 4 * 64;
  C.Policy = PolicyKind::Lru;
  HierarchyConfig H = HierarchyConfig::singleLevel(C);
  WarpingSimulator Warp(PR.Program, H);
  ConcreteSimulator Ref(PR.Program, H);
  SimStats W = Warp.run(), R = Ref.run();
  EXPECT_EQ(W.Level[0].Misses, R.Level[0].Misses);
  EXPECT_EQ(W.totalAccesses(), R.totalAccesses());
}

TEST(WarpingSim, TriangularInnerLoopStaysExact) {
  // Triangular bounds couple the outer iterator with the inner loop; the
  // coupled-domain (slow) path must reject or bound outer-loop warps.
  ParseResult PR = parseScop(R"(
    param N = 96;
    double A[N][N]; double x[N]; double c[N];
    for (i = 0; i < N; i++) {
      c[i] = 0.0;
      for (j = i; j < N; j++)
        c[i] = c[i] + A[i][j] * x[j];
    }
  )");
  ASSERT_TRUE(PR.ok()) << PR.message();
  for (PolicyKind K : {PolicyKind::Lru, PolicyKind::Plru}) {
    CacheConfig C;
    C.BlockBytes = 64;
    C.Assoc = 4;
    C.SizeBytes = 8 * 4 * 64;
    C.Policy = K;
    HierarchyConfig H = HierarchyConfig::singleLevel(C);
    WarpingSimulator Warp(PR.Program, H);
    ConcreteSimulator Ref(PR.Program, H);
    SimStats W = Warp.run(), R = Ref.run();
    EXPECT_EQ(W.Level[0].Misses, R.Level[0].Misses) << policyName(K);
    EXPECT_EQ(W.totalAccesses(), R.totalAccesses()) << policyName(K);
  }
}

TEST(WarpingSim, DescendingAndStridedLoopsStayExact) {
  ParseResult PR = parseScop(R"(
    param N = 1500;
    int A[N]; int B[N];
    for (t = 0; t < 4; t++) {
      for (i = N - 1; i >= 1; i--)
        B[i] = A[i] + A[i-1];
      for (i = 0; i < N; i += 2)
        A[i] = B[i];
    }
  )");
  ASSERT_TRUE(PR.ok()) << PR.message();
  CacheConfig C;
  C.BlockBytes = 64;
  C.Assoc = 2;
  C.SizeBytes = 8 * 2 * 64;
  C.Policy = PolicyKind::Lru;
  HierarchyConfig H = HierarchyConfig::singleLevel(C);
  WarpingSimulator Warp(PR.Program, H);
  ConcreteSimulator Ref(PR.Program, H);
  SimStats W = Warp.run(), R = Ref.run();
  EXPECT_EQ(W.Level[0].Misses, R.Level[0].Misses);
  EXPECT_EQ(W.totalAccesses(), R.totalAccesses());
}

TEST(WarpingSim, TimeLoopWarpsWholeSteadyState) {
  // Small working set: the cache state becomes identical across outer
  // time iterations, which admits an identity (rotation 0) warp across
  // the entire time loop.
  ParseResult PR = parseScop(R"(
    param T = 500; param N = 64;
    int A[N]; int B[N];
    for (t = 0; t < T; t++) {
      for (i = 1; i < N - 1; i++)
        B[i] = A[i-1] + A[i+1];
      for (i = 1; i < N - 1; i++)
        A[i] = B[i];
    }
  )");
  ASSERT_TRUE(PR.ok()) << PR.message();
  CacheConfig C;
  C.BlockBytes = 64;
  C.Assoc = 4;
  C.SizeBytes = 16 * 4 * 64; // Holds the whole working set.
  C.Policy = PolicyKind::Lru;
  HierarchyConfig H = HierarchyConfig::singleLevel(C);
  WarpingSimulator Warp(PR.Program, H);
  ConcreteSimulator Ref(PR.Program, H);
  SimStats W = Warp.run(), R = Ref.run();
  EXPECT_EQ(W.Level[0].Misses, R.Level[0].Misses);
  EXPECT_EQ(W.totalAccesses(), R.totalAccesses());
  EXPECT_LT(W.nonWarpedShare(), 0.05)
      << "the time loop should warp almost everything";
}

TEST(WarpingSim, ScalarInclusionStaysExact) {
  ParseResult PR = parseScop(R"(
    param N = 800;
    double s; double A[N];
    s = 0.0;
    for (i = 0; i < N; i++)
      s += A[i];
  )");
  ASSERT_TRUE(PR.ok()) << PR.message();
  CacheConfig C;
  C.BlockBytes = 64;
  C.Assoc = 2;
  C.SizeBytes = 4 * 2 * 64;
  C.Policy = PolicyKind::Lru;
  HierarchyConfig H = HierarchyConfig::singleLevel(C);
  for (bool Scalars : {false, true}) {
    SimOptions O;
    O.IncludeScalars = Scalars;
    WarpingSimulator Warp(PR.Program, H, O);
    ConcreteSimulator Ref(PR.Program, H, O);
    SimStats W = Warp.run(), R = Ref.run();
    EXPECT_EQ(W.totalAccesses(), R.totalAccesses()) << Scalars;
    EXPECT_EQ(W.Level[0].Misses, R.Level[0].Misses) << Scalars;
    if (Scalars)
      EXPECT_EQ(R.totalAccesses(), 1u + 800u * 3);
    else
      EXPECT_EQ(R.totalAccesses(), 800u);
  }
}

/// A stencil whose time loop never warps: each t shifts A by 24 bytes,
/// so a match distance must be a multiple of 8 time steps, more than
/// the loop has. Every activation of the inner loop therefore runs.
ScopProgram shiftedStencil() {
  ParseResult PR = parseScop(R"(
    double A[1024]; double B[1000];
    for (t = 0; t < 6; t++)
      for (i = 1; i < 999; i++)
        B[i] = A[3*t + i - 1] + A[3*t + i + 1];
  )");
  EXPECT_TRUE(PR.ok()) << PR.message();
  return std::move(PR.Program);
}

/// The activations (by enclosing iterators) in which the inner loop of
/// shiftedStencil() probed, with warps counted in \p Warps.
std::set<int64_t> probingActivations(const HierarchyConfig &H,
                                     bool ProfitGuard, uint64_t &Warps) {
  ScopProgram P = shiftedStencil();
  SimOptions O;
  O.Warp.EnableProfitGuard = ProfitGuard;
  WarpingSimulator Sim(P, H, O);
  std::set<int64_t> Probed;
  Sim.setProbeHook([&](const WarpingSimulator::ProbeView &V) {
    if (V.Scope.Loop->Depth == 1)
      Probed.insert(V.Scope.Prefix[0]);
  });
  SimStats S = Sim.run();
  EXPECT_EQ(S.Level[0].Misses,
            ConcreteSimulator(P, H).run().Level[0].Misses);
  Warps = S.Warps;
  return Probed;
}

/// One rule stops probing: the profit guard, checked after every
/// activation. A loop that cannot warp (the 256 KiB cache never fills,
/// so no state recurs) stops after its first activation; off, the guard
/// stops nothing; a loop whose warps pay (a 2 KiB cache) keeps probing.
TEST(WarpingSim, ProfitGuardStopsProbingByOneRule) {
  const std::set<int64_t> First = {0}, Every = {0, 1, 2, 3, 4, 5};
  uint64_t Warps = 0;
  HierarchyConfig Huge = tinyFullyAssoc(4096, PolicyKind::Lru);
  EXPECT_EQ(probingActivations(Huge, true, Warps), First);
  EXPECT_EQ(Warps, 0u);
  EXPECT_EQ(probingActivations(Huge, false, Warps), Every);
  EXPECT_EQ(Warps, 0u);

  CacheConfig Small;
  Small.BlockBytes = 64;
  Small.Assoc = 4;
  Small.SizeBytes = 8 * 4 * 64;
  Small.Policy = PolicyKind::Lru;
  EXPECT_EQ(probingActivations(HierarchyConfig::singleLevel(Small), true,
                               Warps),
            Every);
  EXPECT_GE(Warps, 6u) << "the inner loop must warp in every activation";
}

} // namespace
