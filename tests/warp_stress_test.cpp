//===- tests/warp_stress_test.cpp - Warp-config robustness ----------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
// Every engineering bound of the warping search must be soundness-
// neutral: whatever the probe window, snapshot budget or match-distance
// cap, miss counts must equal non-warping simulation.
// This suite sweeps extreme configurations over a workload mix that
// exercises rotating matches, identity (time-loop) matches, guards and
// triangular domains.
//
//===----------------------------------------------------------------------===//

#include "wcs/frontend/Frontend.h"
#include "wcs/sim/ConcreteSimulator.h"
#include "wcs/sim/WarpingSimulator.h"

#include <gtest/gtest.h>

using namespace wcs;

namespace {

const char *MixedWorkload = R"(
  param T = 6; param N = 700;
  int A[N]; int B[N]; double M[64][64]; double v[64];
  for (t = 0; t < T; t++) {
    for (i = 1; i < N - 1; i++)
      B[i] = A[i-1] + A[i+1];
    for (i = 1; i < N - 1; i++)
      A[i] = B[i];
  }
  for (i = 0; i < 64; i++) {
    v[i] = 0.0;
    for (j = i; j < 64; j++)
      v[i] += M[i][j];
    if (i >= 32)
      v[i] += M[i][i];
  }
)";

ScopProgram workload() {
  ParseResult R = parseScop(MixedWorkload);
  EXPECT_TRUE(R.ok()) << R.message();
  return std::move(R.Program);
}

HierarchyConfig smallHierarchy(PolicyKind K) {
  CacheConfig L1;
  L1.SizeBytes = 1024;
  L1.Assoc = 4;
  L1.BlockBytes = 64;
  L1.Policy = K;
  CacheConfig L2 = L1;
  L2.SizeBytes = 4096;
  return HierarchyConfig::twoLevel(L1, L2);
}

struct StressCase {
  const char *Name;
  WarpConfig W;
};

std::vector<StressCase> stressCases() {
  std::vector<StressCase> Cases;
  {
    WarpConfig W;
    Cases.push_back({"defaults", W});
  }
  {
    WarpConfig W;
    W.MaxProbeIters = 8;
    Cases.push_back({"tiny_probe_window", W});
  }
  {
    WarpConfig W;
    W.MaxDelta = 1;
    Cases.push_back({"delta_one_only", W});
  }
  {
    WarpConfig W;
    W.MaxDelta = 3; // Odd cap: forces unusual match distances.
    Cases.push_back({"delta_three", W});
  }
  {
    WarpConfig W;
    W.SnapshotRingSize = 1;
    W.MaxSnapshotsPerBucket = 1;
    Cases.push_back({"one_snapshot_ring", W});
  }
  {
    WarpConfig W;
    W.MinSnapshotSpacing = 100;
    Cases.push_back({"huge_spacing", W});
  }
  {
    WarpConfig W;
    W.EagerSnapshotTripLimit = 1 << 20; // Eager everywhere.
    Cases.push_back({"always_eager", W});
  }
  {
    WarpConfig W;
    W.EagerSnapshotTripLimit = 0; // Never eager.
    Cases.push_back({"never_eager", W});
  }
  {
    WarpConfig W;
    W.Enable = false;
    Cases.push_back({"disabled", W});
  }
  return Cases;
}

class WarpStress : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(WarpStress, AllConfigsProduceIdenticalCounts) {
  ScopProgram P = workload();
  HierarchyConfig H = smallHierarchy(GetParam());
  ConcreteSimulator Ref(P, H);
  SimStats R = Ref.run();
  for (const StressCase &C : stressCases()) {
    SimOptions O;
    O.Warp = C.W;
    WarpingSimulator Warp(P, H, O);
    SimStats W = Warp.run();
    ASSERT_EQ(W.totalAccesses(), R.totalAccesses()) << C.Name;
    ASSERT_EQ(W.Level[0].Misses, R.Level[0].Misses) << C.Name;
    ASSERT_EQ(W.Level[1].Accesses, R.Level[1].Accesses) << C.Name;
    ASSERT_EQ(W.Level[1].Misses, R.Level[1].Misses) << C.Name;
    ASSERT_EQ(W.SimulatedAccesses + W.WarpedAccesses, W.totalAccesses())
        << C.Name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, WarpStress,
                         ::testing::Values(PolicyKind::Lru, PolicyKind::Fifo,
                                           PolicyKind::Plru,
                                           PolicyKind::QuadAgeLru),
                         [](const ::testing::TestParamInfo<PolicyKind> &I) {
                           return std::string(policyName(I.param));
                         });

TEST(WarpStress, DefaultsActuallyWarpTheWorkload) {
  // Guard against silently losing all warping capability: the default
  // configuration must fast-forward most of the stencil part.
  ScopProgram P = workload();
  WarpingSimulator Warp(P, smallHierarchy(PolicyKind::Lru));
  SimStats W = Warp.run();
  EXPECT_GE(W.Warps, 1u);
  EXPECT_LT(W.nonWarpedShare(), 0.5);
}

TEST(WarpStress, NoWriteAllocateSweep) {
  ScopProgram P = workload();
  for (PolicyKind K : {PolicyKind::Lru, PolicyKind::QuadAgeLru}) {
    HierarchyConfig H = smallHierarchy(K);
    H.Levels[0].WriteAlloc = WriteAllocate::No;
    ConcreteSimulator Ref(P, H);
    WarpingSimulator Warp(P, H);
    SimStats R = Ref.run(), W = Warp.run();
    ASSERT_EQ(W.Level[0].Misses, R.Level[0].Misses) << policyName(K);
    ASSERT_EQ(W.Level[1].Misses, R.Level[1].Misses) << policyName(K);
  }
}

TEST(WarpStress, ScalarInclusionSweep) {
  ScopProgram P = workload();
  SimOptions O;
  O.IncludeScalars = true;
  HierarchyConfig H = smallHierarchy(PolicyKind::Plru);
  ConcreteSimulator Ref(P, H, O);
  WarpingSimulator Warp(P, H, O);
  SimStats R = Ref.run(), W = Warp.run();
  ASSERT_EQ(W.totalAccesses(), R.totalAccesses());
  ASSERT_EQ(W.Level[0].Misses, R.Level[0].Misses);
}

} // namespace
