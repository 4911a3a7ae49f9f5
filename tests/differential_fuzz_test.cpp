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
#include "wcs/sim/BatchWalk.h"
#include "wcs/sim/ConcreteSimulator.h"
#include "wcs/sim/WarpEngine.h"
#include "wcs/sim/WarpingSimulator.h"
#include "wcs/support/Telemetry.h"
#include "wcs/trace/StackDistance.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <random>

using namespace wcs;
using testutil::generateProgram;
using testutil::ProgramShape;
using testutil::randomHierarchy;

namespace {

constexpr PolicyKind kPolicies[] = {PolicyKind::Lru, PolicyKind::Fifo,
                                    PolicyKind::Plru,
                                    PolicyKind::QuadAgeLru};

/// A fully-associative 128-way (8 KiB) write-allocate LRU point. Random
/// hierarchies draw LRU points of at most 16 ways, which stack-distance
/// banks answer from LRU rows; this one is wider than
/// SetDistanceBank::MaxRowAssoc, so the exact per-set trackers stay
/// fuzzed as well.
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

/// Warp diagnostics agree, and each run's failed checks split exactly
/// into their reasons.
void expectWarpDiagnosticsEqual(const SimStats &A, const SimStats &B,
                                const std::string &Ctx) {
  EXPECT_EQ(A.SimulatedAccesses, B.SimulatedAccesses) << Ctx;
  EXPECT_EQ(A.WarpedAccesses, B.WarpedAccesses) << Ctx;
  EXPECT_EQ(A.Warps, B.Warps) << Ctx;
  EXPECT_EQ(A.FailedWarpChecks, B.FailedWarpChecks) << Ctx;
  for (const SimStats *S : {&A, &B})
    EXPECT_EQ(S->FailedBy.total(), S->FailedWarpChecks) << Ctx;
  EXPECT_EQ(A.FailedBy.Shift, B.FailedBy.Shift) << Ctx;
  EXPECT_EQ(A.FailedBy.State, B.FailedBy.State) << Ctx;
  EXPECT_EQ(A.FailedBy.Room, B.FailedBy.Room) << Ctx;
  EXPECT_EQ(A.FailedBy.Unknown, B.FailedBy.Unknown) << Ctx;
  EXPECT_EQ(A.FailedBy.Agree, B.FailedBy.Agree) << Ctx;
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
/// (short probe windows, the profit guard on or off), so batched tails
/// and disabled loops interleave with probes of enclosing loops.
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
    Batched.Warp.EnableProfitGuard = Pick({0, 1}) != 0;
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
          expectWarpDiagnosticsEqual(A, B, Ctx);
          expectStatsEqual(ConcreteSimulator(P, H).run(), B,
                           Ctx + " vs concrete");
        }
  }
}

/// Runs longer than a 1,024-op chunk: a long innermost loop whose
/// accesses ignore its iterator is one run, so the batched walk simulates
/// two of its iterations and skips the rest. Both simulators, every
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
    ScopProgram P = generateProgram(Rng, ProgramShape::LongRuns);
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
        expectWarpDiagnosticsEqual(A, B, Ctx);
      }
    // The periodic pass runs depth-profiled warping walks.
    std::vector<HierarchyConfig> Grid;
    for (unsigned Assoc : {2u, 8u})
      Grid.push_back(HierarchyConfig::singleLevel(CacheConfig{
          Assoc * 4 * 64, Assoc, 64, PolicyKind::Lru, WriteAllocate::Yes}));
    SweepOptions Periodic;
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

/// A time loop around a dense stream: its inner activations warp with
/// set rotations, so later probes see rotated states.
ScopProgram rotatingStream() {
  ScopBuilder B("rotating-stream");
  unsigned A = B.addArray("A", 8, {1024});
  unsigned C = B.addArray("C", 8, {1024});
  B.beginLoop("t", B.cst(0), B.cst(3));
  B.beginLoop("i", B.cst(1), B.cst(1022));
  B.read(A, {B.iter("i") - B.cst(1)});
  B.read(A, {B.iter("i") + B.cst(1)});
  B.write(C, {B.iter("i")});
  B.endLoop();
  B.endLoop();
  return B.finish();
}

/// Probes cost what changed: the key rehashes only the sets stamped
/// since the activation's previous probe, and a snapshot store copies
/// only the sets stamped since its ring slot was last written. At every
/// probe the incremental key must equal the key recomputed from every
/// line, and every stored snapshot must equal the live state in all that
/// checkWarp and the epoch collector read (blocks, tags, policy words,
/// MRA set, rotation) -- over random programs (long runs included) and
/// a rotating stream, all policies, one and two levels and every
/// inclusion, with batched and per-access stepping, after warps and set
/// rotations too.
TEST(DifferentialFuzz, IncrementalProbesMatchFullRecompute) {
  std::mt19937 Rng(0x1AC4E);
  const InclusionPolicy Inclusions[] = {
      InclusionPolicy::NonInclusiveNonExclusive, InclusionPolicy::Inclusive,
      InclusionPolicy::Exclusive};
  telemetry::Counter &Copied =
      telemetry::registry().counter("sim.warp.snapshot_sets_copied");
  telemetry::Counter &Rehashed =
      telemetry::registry().counter("sim.warp.key_sets_rehashed");
  const uint64_t RehashedBefore = Rehashed.value();
  uint64_t Probes = 0, Stores = 0, RotatedProbes = 0;
  uint64_t WarpedRuns = 0, PartialCopies = 0;
  auto Check = [&](const ScopProgram &P, const HierarchyConfig &H,
                   const SimOptions &O, const std::string &Ctx) {
    WarpEngine Full(P, H, O);
    WarpingSimulator Sim(P, H, O);
    uint64_t Mismatches = 0, RunStores = 0;
    Sim.setProbeHook([&](const WarpingSimulator::ProbeView &V) {
      if (!V.Stored) {
        ++Probes;
        if (Full.stateKey(V.State, V.Epochs, V.Scope) != V.Key)
          ++Mismatches;
        for (unsigned L = 0; L < V.State.numLevels(); ++L)
          RotatedProbes += V.State.level(L).physicalSet(0) != 0;
        return;
      }
      ++RunStores;
      for (unsigned L = 0; L < V.State.numLevels(); ++L) {
        const SymbolicCache &A = V.State.level(L);
        const SymbolicCache &B = V.Stored->level(L);
        bool Same = A.mraSet() == B.mraSet() &&
                    A.physicalSet(0) == B.physicalSet(0);
        for (unsigned S = 0; S < A.numSets(); ++S) {
          Same &= A.policyWord(S) == B.policyWord(S);
          for (unsigned W = 0; W < A.assoc(); ++W) {
            const SymTag &TA = A.tagAt(S, W), &TB = B.tagAt(S, W);
            Same &= A.blockAt(S, W) == B.blockAt(S, W) &&
                    TA.NodeId == TB.NodeId && TA.Epoch == TB.Epoch &&
                    TA.X == TB.X;
          }
        }
        Mismatches += !Same;
      }
    });
    const uint64_t CopiedBefore = Copied.value();
    SimStats S = Sim.run();
    EXPECT_EQ(Mismatches, 0u) << Ctx;
    EXPECT_EQ(S.FailedBy.total(), S.FailedWarpChecks) << Ctx;
    expectStatsEqual(ConcreteSimulator(P, H).run(), S, Ctx);
    uint64_t Sets = 0;
    for (const CacheConfig &C : H.Levels)
      Sets += C.numSets();
    Stores += RunStores;
    WarpedRuns += S.Warps != 0;
    PartialCopies += Copied.value() - CopiedBefore < RunStores * Sets;
  };
  const ScopProgram Stream = rotatingStream();
  const unsigned Iters = fuzzIters();
  for (unsigned I = 0; I <= Iters; ++I) {
    ScopProgram Random;
    if (I != Iters)
      Random = generateProgram(Rng, I % 2 == 1 ? ProgramShape::LongRuns
                                                : ProgramShape::Plain);
    const ScopProgram &P = I == Iters ? Stream : Random;
    for (PolicyKind K : kPolicies)
      for (bool TwoLevel : {false, true})
        for (InclusionPolicy Incl : Inclusions) {
          if (!TwoLevel && Incl != Inclusions[0])
            continue;
          HierarchyConfig H = randomHierarchy(Rng, K, TwoLevel);
          H.Inclusion = Incl;
          for (bool Batch : {true, false}) {
            SimOptions O;
            O.BatchConcrete = Batch;
            O.Warp.MaxProbeIters = I % 3 == 0 ? 16 : 4096;
            Check(P, H, O,
                  "iter " + std::to_string(I) + " " + H.str() + " " +
                      inclusionName(Incl) +
                      (Batch ? " batched" : " per-access"));
          }
        }
  }
  EXPECT_GT(Probes, 0u);
  EXPECT_GT(Stores, 0u);
  EXPECT_GT(WarpedRuns, 0u) << "no run warped";
  EXPECT_GT(RotatedProbes, 0u) << "no probe saw a rotated set base";
  EXPECT_GT(PartialCopies, 0u) << "no snapshot store copied incrementally";
  EXPECT_GT(Rehashed.value(), RehashedBefore);
}

/// The warp pilot fired at a random access count: the run copies its
/// blocks and replacement metadata (PLRU bits, QLRU ages) into a
/// tag-free hierarchy and finishes there, so its counters -- and, under
/// depth profiling, its hit-depth histogram -- must equal a concrete
/// walk's bit for bit: all policies, one and two levels, every
/// inclusion, batched and per-access stepping.
TEST(DifferentialFuzz, PilotFinishesOnTheConcreteFloor) {
  std::mt19937 Rng(0x9170);
  const InclusionPolicy Inclusions[] = {
      InclusionPolicy::NonInclusiveNonExclusive, InclusionPolicy::Inclusive,
      InclusionPolicy::Exclusive};
  uint64_t Fired = 0, FiredProfiled = 0;
  const unsigned Iters = fuzzIters();
  for (unsigned I = 0; I < Iters; ++I) {
    const ProgramShape Shape =
        I % 2 == 1 ? ProgramShape::LongRuns : ProgramShape::Plain;
    ScopProgram P = generateProgram(Rng, Shape);
    const uint64_t Trace = countAccesses(P, /*IncludeScalars=*/false);
    auto PilotAt = [&] {
      return std::uniform_int_distribution<uint64_t>(0, Trace)(Rng);
    };
    for (bool Batch : {true, false}) {
      SimOptions O;
      O.BatchConcrete = Batch;
      const std::string Walk = Batch ? " batched" : " per-access";
      for (PolicyKind K : kPolicies)
        for (bool TwoLevel : {false, true})
          for (InclusionPolicy Incl : Inclusions) {
            if (!TwoLevel && Incl != Inclusions[0])
              continue;
            HierarchyConfig H = randomHierarchy(Rng, K, TwoLevel);
            H.Inclusion = Incl;
            const uint64_t At = PilotAt();
            std::string Ctx = "iter " + std::to_string(I) + Walk;
            Ctx += " " + H.str() + " " + inclusionName(Incl);
            Ctx += " pilot at " + std::to_string(At);
            WarpingSimulator Sim(P, H, O);
            Sim.setWarpPilot(At);
            SimStats S = Sim.run();
            expectStatsEqual(ConcreteSimulator(P, H).run(), S, Ctx);
            EXPECT_EQ(S.FailedBy.total(), S.FailedWarpChecks) << Ctx;
            Fired += S.PilotTailAccesses != 0;
          }
      // Depth profiling: the histogram of a single-level LRU run against
      // the linear walk's bank of the same geometry.
      HierarchyConfig H = randomHierarchy(Rng, PolicyKind::Lru, false);
      const CacheConfig &L1 = H.Levels.front();
      const uint64_t At = PilotAt();
      std::string Ctx = "iter " + std::to_string(I) + Walk;
      Ctx += " depth-profiled " + H.str();
      Ctx += " pilot at " + std::to_string(At);
      WarpingSimulator Sim(P, H, O);
      Sim.enableDepthProfile();
      Sim.setWarpPilot(At);
      SimStats S = Sim.run();
      SetDistanceBank Bank(L1.BlockBytes, L1.numSets(), L1.Assoc);
      feedBanks(P, /*IncludeScalars=*/false, {&Bank});
      EXPECT_EQ(Sim.depthHist(), Bank.histogram()) << Ctx;
      EXPECT_EQ(S.Level[0].Misses, Bank.alwaysMisses()) << Ctx;
      EXPECT_EQ(S.Level[0].Accesses, Bank.totalAccesses()) << Ctx;
      FiredProfiled += S.PilotTailAccesses != 0;
    }
  }
  EXPECT_GT(Fired, 0u) << "no pilot fired";
  EXPECT_GT(FiredProfiled, 0u) << "no depth-profiled pilot fired";
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
    // rows (4 sets) and exact trackers (the 128-way point).
    for (unsigned Assoc : {1u, 4u})
      Grid.push_back(HierarchyConfig::singleLevel(CacheConfig{
          Assoc * 4 * 64, Assoc, 64, PolicyKind::Lru, WriteAllocate::Yes}));
    Grid.push_back(HierarchyConfig::singleLevel(kWideLru));

    SweepOptions Auto;
    SweepOptions Periodic;
    Periodic.WarpSweepMinAccesses = 0; // Always take the periodic pass.
    SweepOptions Linear;
    Linear.WarpSweepMinAccesses = UINT64_MAX; // Never take it.
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
