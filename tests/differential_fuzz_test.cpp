//===- tests/differential_fuzz_test.cpp - Randomized differential net -----===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
// Seeded randomized differential harness: random programs x random
// hierarchies x all four replacement policies, driven through every
// backend and every sweep flavor, all required to agree bit for bit.
// This is the bug-finding net under the SoA/policy-template hot-loop
// refactor (and under any future change to the simulation floor): the
// scalar concrete walk, the batched walk, the warping simulator (with
// per-access and with batched stepping), the trace simulator and the
// sweep fast paths are independent implementations of the same
// semantics, so any divergence is a bug in one of them.
//
// The default iteration count keeps the suite in the sub-second range;
// set WCS_FUZZ_ITERS for longer local runs (the seed stays fixed, so a
// failure reproduces from the test name + iteration count alone).
//
//===----------------------------------------------------------------------===//

#include "RandomProgram.h"
#include "wcs/driver/BatchRunner.h"
#include "wcs/driver/Sweep.h"
#include "wcs/sim/ConcreteSimulator.h"
#include "wcs/sim/WarpingSimulator.h"
#include "wcs/support/Telemetry.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <random>

using namespace wcs;
using testutil::generateProgram;
using testutil::randomHierarchy;

namespace {

constexpr PolicyKind kPolicies[] = {PolicyKind::Lru, PolicyKind::Fifo,
                                    PolicyKind::Plru,
                                    PolicyKind::QuadAgeLru};

/// A fully-associative 128-way (8 KiB) write-allocate LRU point. Random
/// hierarchies draw LRU points of at most 16 ways, which stack-distance
/// banks answer from LRU rows; this one is wider than
/// SetDistanceBank::MaxTruncatedAssoc, so the exact per-set profilers
/// stay fuzzed as well.
const CacheConfig kWideLru{128 * 64, 128, 64, PolicyKind::Lru,
                           WriteAllocate::Yes};

/// Iterations per fuzz test: WCS_FUZZ_ITERS when set, else a default
/// small enough for the suite to stay in the default ctest budget.
unsigned fuzzIters() {
  if (const char *Env = std::getenv("WCS_FUZZ_ITERS")) {
    unsigned V = static_cast<unsigned>(std::strtoul(Env, nullptr, 10));
    if (V != 0)
      return V;
  }
  return 20;
}

void expectStatsEqual(const SimStats &A, const SimStats &B,
                      const std::string &Ctx) {
  ASSERT_EQ(A.NumLevels, B.NumLevels) << Ctx;
  EXPECT_EQ(A.totalAccesses(), B.totalAccesses()) << Ctx;
  for (unsigned L = 0; L < A.NumLevels; ++L) {
    EXPECT_EQ(A.Level[L].Accesses, B.Level[L].Accesses)
        << Ctx << " level " << L;
    EXPECT_EQ(A.Level[L].Misses, B.Level[L].Misses)
        << Ctx << " level " << L;
  }
}

/// The batched concrete walk (SoA hot loop, per-chunk policy and
/// associativity dispatch, duplicate-block fast path) is an optimization
/// of the scalar walk and must be invisible in every counter.
TEST(DifferentialFuzz, BatchedConcreteMatchesScalarAllPolicies) {
  std::mt19937 Rng(0xC0FFEE);
  const unsigned Iters = fuzzIters();
  for (unsigned I = 0; I < Iters; ++I) {
    ScopProgram P = generateProgram(Rng);
    for (PolicyKind K : kPolicies)
      for (bool TwoLevel : {false, true}) {
        HierarchyConfig H = randomHierarchy(Rng, K, TwoLevel);
        SimOptions Scalar;
        Scalar.BatchConcrete = false;
        SimStats A = ConcreteSimulator(P, H, Scalar).run();
        SimStats B = ConcreteSimulator(P, H).run();
        expectStatsEqual(A, B,
                         "iter " + std::to_string(I) + " " + H.str());
      }
  }
}

/// The warping simulator's batched stepping (BatchConcrete on: every
/// stretch it is not probing rides the shared batch walk, tags refreshed
/// from lane, epoch and iteration) must leave every probe the same state
/// as per-access stepping, so the warp diagnostics -- not just the
/// counters -- must agree. Random warp bounds make probing stop early
/// (short probe windows, eager learning and profit guard), so batched
/// tails and disabled loops interleave with probes of enclosing loops.
TEST(DifferentialFuzz, BatchedWarpingMatchesPerAccessWarping) {
  std::mt19937 Rng(0xFACADE);
  auto Pick = [&](std::initializer_list<unsigned> Vs) {
    return Vs.begin()[std::uniform_int_distribution<size_t>(
        0, Vs.size() - 1)(Rng)];
  };
  const InclusionPolicy Inclusions[] = {
      InclusionPolicy::NonInclusiveNonExclusive, InclusionPolicy::Inclusive,
      InclusionPolicy::Exclusive};
  const unsigned Iters = fuzzIters();
  for (unsigned I = 0; I < Iters; ++I) {
    ScopProgram P = generateProgram(Rng);
    SimOptions Batched;
    Batched.Warp.MaxProbeIters = Pick({2, 5, 4096});
    Batched.Warp.MinProbesForLearning = Pick({1, 32});
    Batched.Warp.DisableAfterFailedActivations = Pick({1, 4});
    Batched.Warp.ProfitGuardActivations = Pick({1, 8});
    SimOptions PerAccess = Batched;
    PerAccess.BatchConcrete = false;
    for (PolicyKind K : kPolicies)
      for (bool TwoLevel : {false, true})
        for (InclusionPolicy Incl : Inclusions) {
          if (!TwoLevel && Incl != Inclusions[0])
            continue; // One level has no inclusion policy.
          HierarchyConfig H = randomHierarchy(Rng, K, TwoLevel);
          H.Inclusion = Incl;
          std::string Ctx = "iter " + std::to_string(I) + " " + H.str() +
                            " " + inclusionName(Incl);
          SimStats A = WarpingSimulator(P, H, PerAccess).run();
          SimStats B = WarpingSimulator(P, H, Batched).run();
          expectStatsEqual(A, B, Ctx);
          EXPECT_EQ(A.SimulatedAccesses, B.SimulatedAccesses) << Ctx;
          EXPECT_EQ(A.WarpedAccesses, B.WarpedAccesses) << Ctx;
          EXPECT_EQ(A.Warps, B.Warps) << Ctx;
          EXPECT_EQ(A.FailedWarpChecks, B.FailedWarpChecks) << Ctx;
          expectStatsEqual(ConcreteSimulator(P, H).run(), B,
                           Ctx + " vs concrete");
        }
  }
}

/// Runs longer than a 1,024-op chunk: a long innermost loop whose
/// accesses ignore its iterator is one run, so the batched walk simulates
/// two of its iterations and skips the rest. Both payloads, every
/// inclusion policy, with and without warping of the loops around it,
/// and the depth-profiled periodic pass must still agree bit for bit
/// with the per-access walks.
TEST(DifferentialFuzz, LongRunsMatchAcrossWalks) {
  std::mt19937 Rng(0x5EED5);
  const InclusionPolicy Inclusions[] = {
      InclusionPolicy::NonInclusiveNonExclusive, InclusionPolicy::Inclusive,
      InclusionPolicy::Exclusive};
  telemetry::Counter &Skipped =
      telemetry::registry().counter("sim.skipped_accesses");
  const uint64_t SkippedBefore = Skipped.value();
  const unsigned Iters = fuzzIters();
  for (unsigned I = 0; I < Iters; ++I) {
    ScopProgram P = generateProgram(Rng, /*LongRuns=*/true);
    SimOptions Scalar;
    Scalar.BatchConcrete = false;
    SimOptions Batched;
    Batched.Warp.MaxProbeIters = I % 2 == 0 ? 8 : 4096;
    SimOptions PerAccess = Batched;
    PerAccess.BatchConcrete = false;
    for (PolicyKind K : kPolicies)
      for (InclusionPolicy Incl : Inclusions) {
        HierarchyConfig H =
            randomHierarchy(Rng, K, Incl != Inclusions[0] || I % 2 == 1);
        H.Inclusion = Incl;
        std::string Ctx = "iter " + std::to_string(I) + " " + H.str() +
                          " " + inclusionName(Incl);
        SimStats Ref = ConcreteSimulator(P, H, Scalar).run();
        expectStatsEqual(Ref, ConcreteSimulator(P, H).run(),
                         Ctx + " concrete");
        SimStats A = WarpingSimulator(P, H, PerAccess).run();
        SimStats B = WarpingSimulator(P, H, Batched).run();
        expectStatsEqual(Ref, B, Ctx + " warping");
        EXPECT_EQ(A.SimulatedAccesses, B.SimulatedAccesses) << Ctx;
        EXPECT_EQ(A.WarpedAccesses, B.WarpedAccesses) << Ctx;
        EXPECT_EQ(A.Warps, B.Warps) << Ctx;
        EXPECT_EQ(A.FailedWarpChecks, B.FailedWarpChecks) << Ctx;
      }
    // The periodic pass runs depth-profiled warping walks.
    std::vector<HierarchyConfig> Grid;
    for (unsigned Assoc : {2u, 8u})
      Grid.push_back(HierarchyConfig::singleLevel(CacheConfig{
          Assoc * 4 * 64, Assoc, 64, PolicyKind::Lru, WriteAllocate::Yes}));
    SweepOptions Periodic;
    Periodic.WarpSweep = true;
    Periodic.WarpSweepMinAccesses = 0;
    SweepReport Rep = runSweep(P, Grid, Periodic);
    ASSERT_EQ(Rep.Points.size(), Grid.size());
    for (size_t G = 0; G < Grid.size(); ++G) {
      ASSERT_TRUE(Rep.Points[G].Ok) << Rep.Points[G].Error;
      expectStatsEqual(ConcreteSimulator(P, Grid[G], Scalar).run(),
                       Rep.Points[G].Stats,
                       "iter " + std::to_string(I) + " periodic " +
                           Grid[G].str());
    }
  }
  EXPECT_GT(Skipped.value(), SkippedBefore) << "no run was skipped";
}

/// Warping, concrete and trace backends (plus stack-distance where it
/// applies) are independent models of the same hierarchy semantics.
TEST(DifferentialFuzz, BackendsAgreeAcrossRandomHierarchies) {
  std::mt19937 Rng(0xBEEF);
  const unsigned Iters = fuzzIters();
  for (unsigned I = 0; I < Iters; ++I) {
    ScopProgram P = generateProgram(Rng);
    for (PolicyKind K : kPolicies) {
      HierarchyConfig H =
          randomHierarchy(Rng, K, /*TwoLevel=*/(I % 2) == 1);
      std::string Ctx = "iter " + std::to_string(I) + " " + H.str();
      BatchJob J;
      J.Program = &P;
      J.Cache = H;
      BatchResult Ref;
      for (SimBackend BE :
           {SimBackend::Concrete, SimBackend::Warping, SimBackend::Trace}) {
        J.Backend = BE;
        BatchResult R = BatchRunner::runJob(J);
        ASSERT_TRUE(R.Ok) << Ctx << ": " << R.Error;
        if (BE == SimBackend::Concrete) {
          Ref = R;
          continue;
        }
        expectStatsEqual(Ref.Stats, R.Stats,
                         Ctx + " backend " + backendName(BE));
      }
      if (H.numLevels() == 1 && K == PolicyKind::Lru &&
          H.Levels.front().WriteAlloc == WriteAllocate::Yes) {
        J.Backend = SimBackend::StackDistance;
        BatchResult R = BatchRunner::runJob(J);
        ASSERT_TRUE(R.Ok) << Ctx << ": " << R.Error;
        EXPECT_EQ(Ref.Stats.Level[0].Misses, R.Stats.Level[0].Misses)
            << Ctx << " stack-distance";
      }
    }
    // The stack-distance backend on an exact (wider than 64-way) bank.
    BatchJob Wide;
    Wide.Program = &P;
    Wide.Cache = HierarchyConfig::singleLevel(kWideLru);
    Wide.Backend = SimBackend::StackDistance;
    BatchResult R = BatchRunner::runJob(Wide);
    ASSERT_TRUE(R.Ok) << "iter " << I << ": " << R.Error;
    EXPECT_EQ(R.Stats.Level[0].Misses,
              ConcreteSimulator(P, Wide.Cache).run().Level[0].Misses)
        << "iter " << I << " " << kWideLru.str() << " stack-distance";
  }
}

/// All three sweep flavors -- auto, forced-periodic (warp-aware shared
/// pass) and forced-linear -- must answer every grid point with the
/// exact counters an independent concrete simulation produces.
TEST(DifferentialFuzz, SweepFlavorsBitIdentical) {
  std::mt19937 Rng(0xD15EA5E);
  const unsigned Iters = fuzzIters();
  for (unsigned I = 0; I < Iters; ++I) {
    ScopProgram P = generateProgram(Rng);
    std::vector<HierarchyConfig> Grid;
    for (PolicyKind K : kPolicies)
      Grid.push_back(randomHierarchy(Rng, K, /*TwoLevel=*/(I % 2) == 0));
    // A few single-level LRU capacity points keep the stack-distance
    // fast path in every run, on banks of both representations: LRU
    // rows (4 sets) and exact profilers (the 128-way point).
    for (unsigned Assoc : {1u, 4u})
      Grid.push_back(HierarchyConfig::singleLevel(CacheConfig{
          Assoc * 4 * 64, Assoc, 64, PolicyKind::Lru, WriteAllocate::Yes}));
    Grid.push_back(HierarchyConfig::singleLevel(kWideLru));

    SweepOptions Auto;
    SweepOptions Periodic;
    Periodic.WarpSweep = true;
    Periodic.WarpSweepMinAccesses = 0; // Always take the periodic pass.
    SweepOptions Linear;
    Linear.WarpSweep = false;
    const SweepReport Reports[] = {runSweep(P, Grid, Auto),
                                   runSweep(P, Grid, Periodic),
                                   runSweep(P, Grid, Linear)};
    for (const SweepReport &Rep : Reports)
      ASSERT_EQ(Rep.Points.size(), Grid.size());
    for (size_t G = 0; G < Grid.size(); ++G) {
      std::string Ctx =
          "iter " + std::to_string(I) + " " + Grid[G].str();
      SimStats Ref = ConcreteSimulator(P, Grid[G]).run();
      for (const SweepReport &Rep : Reports) {
        const SweepPoint &Pt = Rep.Points[G];
        ASSERT_TRUE(Pt.Ok) << Ctx << ": " << Pt.Error;
        ASSERT_EQ(Pt.Stats.NumLevels, Ref.NumLevels) << Ctx;
        for (unsigned L = 0; L < Ref.NumLevels; ++L) {
          EXPECT_EQ(Pt.Stats.Level[L].Accesses, Ref.Level[L].Accesses)
              << Ctx << " level " << L << " ("
              << sweepMethodName(Pt.Method) << ")";
          EXPECT_EQ(Pt.Stats.Level[L].Misses, Ref.Level[L].Misses)
              << Ctx << " level " << L << " ("
              << sweepMethodName(Pt.Method) << ")";
        }
      }
    }
  }
}

} // namespace
