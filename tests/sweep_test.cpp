//===- tests/sweep_test.cpp - Sweep-driver cross-checks -------------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
// The sweep driver's contract is bit-identity: every grid point --
// whether answered from the shared stack-distance pass or from a
// deduplicated simulation job -- must report exactly the counters an
// independent per-config simulation of that point produces. The
// property suite enforces this across random programs, capacities,
// associativities and all four replacement policies, plus grid-syntax,
// dedup and wcs-sweep document round-trip checks.
//
//===----------------------------------------------------------------------===//

#include "RandomProgram.h"
#include "wcs/driver/Sweep.h"
#include "wcs/polybench/Polybench.h"
#include "wcs/scop/Builder.h"
#include "wcs/sim/ConcreteSimulator.h"
#include "wcs/support/FaultInjection.h"
#include "wcs/trace/StackDistance.h"
#include "wcs/trace/TraceGenerator.h"

#include <gtest/gtest.h>

#include <climits>
#include <random>

using namespace wcs;
using testutil::generateProgram;
using testutil::ProgramShape;

namespace {

/// Sweep \p Configs over \p P and require every point to match an
/// independent ConcreteSimulator run bit for bit.
void expectSweepMatchesConcrete(const ScopProgram &P,
                                const std::vector<HierarchyConfig> &Configs,
                                unsigned Threads) {
  SweepOptions SO;
  SO.Threads = Threads;
  SweepReport Rep = runSweep(P, Configs, SO);
  ASSERT_EQ(Rep.Points.size(), Configs.size());
  for (size_t I = 0; I < Configs.size(); ++I) {
    const SweepPoint &Pt = Rep.Points[I];
    ASSERT_TRUE(Pt.Ok) << Configs[I].str() << ": " << Pt.Error;
    ConcreteSimulator Sim(P, Configs[I]);
    SimStats Ref = Sim.run();
    ASSERT_EQ(Pt.Stats.NumLevels, Ref.NumLevels) << Configs[I].str();
    for (unsigned L = 0; L < Ref.NumLevels; ++L) {
      EXPECT_EQ(Pt.Stats.Level[L].Accesses, Ref.Level[L].Accesses)
          << Configs[I].str() << " level " << L << "\n"
          << P.str();
      EXPECT_EQ(Pt.Stats.Level[L].Misses, Ref.Level[L].Misses)
          << Configs[I].str() << " level " << L << " ("
          << sweepMethodName(Pt.Method) << ")\n"
          << P.str();
    }
  }
}

/// The seconds the fast-path (stack-distance) points of \p Rep carry,
/// failed ones included.
double fastPointSeconds(const SweepReport &Rep) {
  double S = 0.0;
  for (const SweepPoint &Pt : Rep.Points)
    if (Pt.Method == SweepMethod::StackDistance)
      S += Pt.Stats.Seconds;
  return S;
}

/// The headline property: random programs x random geometries x all
/// four policies, fast path and simulated partition alike.
TEST(Sweep, MatchesConcretePerConfigAllPolicies) {
  std::mt19937 Rng(20220613);
  const PolicyKind Policies[] = {PolicyKind::Lru, PolicyKind::Fifo,
                                 PolicyKind::Plru, PolicyKind::QuadAgeLru};
  for (int Trial = 0; Trial < 5; ++Trial) {
    ScopProgram P = generateProgram(Rng);
    auto Rand = [&](int Lo, int Hi) {
      return std::uniform_int_distribution<int>(Lo, Hi)(Rng);
    };
    std::vector<HierarchyConfig> Grid;
    for (PolicyKind K : Policies)
      for (int N = 0; N < 3; ++N) {
        CacheConfig C;
        C.BlockBytes = 64;
        C.Assoc = 1u << Rand(0, 3);      // 1..8 ways (PLRU-safe).
        unsigned Sets = 1u << Rand(0, 4); // 1..16 sets.
        C.SizeBytes = static_cast<uint64_t>(C.Assoc) * Sets * 64;
        C.Policy = K;
        ASSERT_EQ(C.validate(), "");
        Grid.push_back(HierarchyConfig::singleLevel(C));
      }
    expectSweepMatchesConcrete(P, Grid, /*Threads=*/2);
  }
}

/// Capacity axis of the fast path: fully-associative LRU points of many
/// capacities share one bank; set-associative points get per-set banks.
TEST(Sweep, MatchesConcreteAcrossLruCapacities) {
  std::mt19937 Rng(7);
  ScopProgram P = generateProgram(Rng);
  std::vector<HierarchyConfig> Grid;
  for (uint64_t Bytes = 64; Bytes <= 8192; Bytes *= 2) {
    CacheConfig FA;
    FA.BlockBytes = 64;
    FA.SizeBytes = Bytes;
    FA.Assoc = static_cast<unsigned>(Bytes / 64);
    Grid.push_back(HierarchyConfig::singleLevel(FA));
    CacheConfig SA = FA;
    SA.Assoc = std::min<unsigned>(FA.Assoc, 4); // >1 set beyond 256 B.
    Grid.push_back(HierarchyConfig::singleLevel(SA));
  }
  SweepOptions SO;
  SweepReport Rep = runSweep(P, Grid, SO);
  for (const SweepPoint &Pt : Rep.Points)
    EXPECT_EQ(Pt.Method, SweepMethod::StackDistance) << Pt.Cache.str();
  expectSweepMatchesConcrete(P, Grid, /*Threads=*/1);
}

/// Two-level points take the simulated partition and still match.
TEST(Sweep, MatchesConcreteTwoLevel) {
  std::mt19937 Rng(99);
  ScopProgram P = generateProgram(Rng);
  std::vector<HierarchyConfig> Grid;
  Grid.push_back(testutil::randomHierarchy(Rng, PolicyKind::Lru, true));
  Grid.push_back(testutil::randomHierarchy(Rng, PolicyKind::Fifo, true));
  expectSweepMatchesConcrete(P, Grid, /*Threads=*/2);
}

TEST(Sweep, PartitionAndProvenance) {
  std::mt19937 Rng(3);
  ScopProgram P = generateProgram(Rng);
  CacheConfig Lru{4096, 8, 64, PolicyKind::Lru, WriteAllocate::Yes};
  CacheConfig LruNwa = Lru;
  LruNwa.WriteAlloc = WriteAllocate::No;
  CacheConfig Plru = Lru;
  Plru.Policy = PolicyKind::Plru;
  std::vector<HierarchyConfig> Grid = {
      HierarchyConfig::singleLevel(Lru),
      HierarchyConfig::singleLevel(LruNwa),
      HierarchyConfig::singleLevel(Plru),
      HierarchyConfig::singleLevel(Plru), // Duplicate: must dedup.
  };
  SweepOptions SO;
  SweepReport Rep = runSweep(P, Grid, SO);
  ASSERT_TRUE(Rep.allOk());
  // Write-allocate LRU is analytical; no-write-allocate LRU and PLRU
  // must simulate (a non-allocating write miss leaves the stack
  // untouched in hardware but not in the histogram).
  EXPECT_EQ(Rep.Points[0].Method, SweepMethod::StackDistance);
  EXPECT_EQ(Rep.Points[0].Backend, SimBackend::StackDistance);
  EXPECT_EQ(Rep.Points[1].Method, SweepMethod::Simulated);
  EXPECT_EQ(Rep.Points[2].Method, SweepMethod::Simulated);
  EXPECT_EQ(Rep.StackDistancePoints, 1u);
  EXPECT_EQ(Rep.SimulatedJobs, 2u);
  EXPECT_EQ(Rep.DedupedPoints, 1u);
  // The deduplicated twin reports the shared job's counters.
  EXPECT_EQ(Rep.Points[3].Stats.Level[0].Misses,
            Rep.Points[2].Stats.Level[0].Misses);
  EXPECT_EQ(Rep.Points[3].Stats.Level[0].Accesses,
            Rep.Points[2].Stats.Level[0].Accesses);
}

TEST(Sweep, ErroredJobsSurfaceAsFailedPointsNotZeroMisses) {
  // A grid point whose job errors (here: a FIFO point forced onto the
  // stack-distance backend, which models LRU only) must come back as a
  // failed point with a non-empty error -- never as an Ok point with
  // zero-miss counters -- and must not poison the answerable points.
  std::mt19937 Rng(99);
  ScopProgram P = generateProgram(Rng);

  CacheConfig Lru{8 * 64, 8, 64, PolicyKind::Lru, WriteAllocate::Yes};
  CacheConfig Fifo{8 * 64, 8, 64, PolicyKind::Fifo, WriteAllocate::Yes};
  std::vector<HierarchyConfig> Configs = {
      HierarchyConfig::singleLevel(Lru), HierarchyConfig::singleLevel(Fifo)};

  SweepOptions SO;
  SO.Backend = SimBackend::StackDistance;
  SweepReport Rep = runSweep(P, Configs, SO);
  ASSERT_EQ(Rep.Points.size(), 2u);

  const SweepPoint &Good = Rep.Points[0];
  EXPECT_TRUE(Good.Ok) << Good.Error;
  EXPECT_GT(Good.Stats.Level[0].Misses, 0u);

  const SweepPoint &Bad = Rep.Points[1];
  EXPECT_FALSE(Bad.Ok);
  EXPECT_NE(Bad.Error, "");

  for (const SweepPoint &Pt : Rep.Points)
    if (Pt.Ok) {
      EXPECT_GT(Pt.Stats.Level[0].Accesses, 0u)
          << "an Ok point must carry real counters";
    }
}

TEST(Sweep, BankDegeneratesToFullyAssociativeProfiler) {
  // The fully associative profile is a one-set bank of unbounded width;
  // its reference here takes the trace one access at a time.
  std::mt19937 Rng(11);
  ScopProgram P = generateProgram(Rng);
  SetDistanceBank Prof(64, 1, UINT_MAX);
  generateTrace(P, /*IncludeScalars=*/false, [&](const TraceRecord &R) {
    Prof.accessBlock(R.Addr >> 6);
  });
  // 64 ways: the bank keeps LRU rows; 65: exact per-set trackers.
  for (unsigned Width : {64u, 65u}) {
    SetDistanceBank Bank = profileProgramSets(P, 64, 1, Width, false);
    ASSERT_EQ(Bank.totalAccesses(), Prof.totalAccesses());
    for (uint64_t A : {1u, 2u, 8u, 64u})
      EXPECT_EQ(Bank.missesForAssoc(A), Prof.missesForAssoc(A))
          << A << " of " << Width;
  }
  SetDistanceBank Unbounded = profileProgramSets(P, 64, 1, UINT_MAX, false);
  EXPECT_EQ(Unbounded.histogram(), Prof.histogram());
  EXPECT_EQ(Unbounded.alwaysMisses(), Prof.alwaysMisses());
}

/// Points on blocks smaller than gemm's 8-byte elements fail with the
/// refusal instead of being answered (each element would straddle two
/// blocks), whichever path they would take; the other points answer.
/// The summary counts the failed points apart from the answered ones.
TEST(Sweep, StraddlingElementsFailTheirPoints) {
  std::string Err;
  ScopProgram P = buildKernel("gemm", ProblemSize::Mini, &Err);
  ASSERT_EQ(Err, "");
  const CacheConfig Fifo4{256, 8, 4, PolicyKind::Fifo, WriteAllocate::Yes};
  const CacheConfig Lru4{256, 8, 4, PolicyKind::Lru, WriteAllocate::Yes};
  const CacheConfig Lru64{4096, 8, 64, PolicyKind::Lru, WriteAllocate::Yes};
  std::vector<HierarchyConfig> Grid = {
      HierarchyConfig::singleLevel(Fifo4),
      HierarchyConfig::singleLevel(Lru4),
      HierarchyConfig::twoLevel(Lru4, CacheConfig{1024, 8, 4, PolicyKind::Lru,
                                                  WriteAllocate::Yes}),
      HierarchyConfig::singleLevel(Lru64)};
  SweepReport Rep = runSweep(P, Grid, SweepOptions());
  ASSERT_EQ(Rep.Points.size(), Grid.size());
  for (size_t I = 0; I + 1 < Grid.size(); ++I) {
    EXPECT_FALSE(Rep.Points[I].Ok) << Grid[I].str();
    EXPECT_NE(Rep.Points[I].Error.find("straddle 4 B blocks"),
              std::string::npos)
        << Rep.Points[I].Error;
  }
  EXPECT_TRUE(Rep.Points.back().Ok) << Rep.Points.back().Error;
  EXPECT_EQ(Rep.StackDistancePoints, 1u);
  EXPECT_EQ(Rep.FilteredPoints, 0u);
  EXPECT_EQ(Rep.SimulatedJobs, 0u);
  EXPECT_EQ(Rep.summary().rfind("4 points: 1 from ", 0), 0u) << Rep.summary();
  EXPECT_NE(Rep.summary().find(", 0 fully simulated, 3 failed; 0 jobs"),
            std::string::npos)
      << Rep.summary();

  // The two points of `wcs-sim --sweep-l1
  // '256,assoc=8,policy=fifo,lru,block=4'`: none is simulated.
  SweepReport Cli = runSweep(P, {Grid[0], Grid[1]}, SweepOptions());
  EXPECT_NE(Cli.summary().find(", 0 fully simulated, 2 failed; 0 jobs"),
            std::string::npos)
      << Cli.summary();
}

TEST(Sweep, DiscardedPeriodicPassesReportTheLinearWalk) {
  // With the sweep.periodic-pass fault armed at probability 1, every
  // periodic pass runs and is then discarded, so every bank is
  // conditioned by the demoted linear walk. Its points must stay exact
  // and carry the walk's provenance -- not the discarded passes' warps
  // -- and the report must count no warps of a pass it did not use.
  std::string Err;
  ScopProgram P = buildKernel("jacobi-1d", ProblemSize::Small, &Err);
  ASSERT_TRUE(Err.empty()) << Err;
  std::vector<HierarchyConfig> Grid;
  for (unsigned Assoc : {4u, 8u})
    for (uint64_t Bytes : {4096u, 8192u})
      Grid.push_back(HierarchyConfig::singleLevel(
          CacheConfig{Bytes, Assoc, 64, PolicyKind::Lru, WriteAllocate::Yes}));
  SweepOptions Periodic;
  Periodic.WarpSweepMinAccesses = 0; // Always periodic.
  SweepOptions Linear;
  Linear.WarpSweepMinAccesses = UINT64_MAX; // Always linear.

  SweepReport Used = runSweep(P, Grid, Periodic);
  SweepReport Ref = runSweep(P, Grid, Linear);
  ASSERT_TRUE(Used.PeriodicPass);
  ASSERT_GT(Used.PeriodicWarps, 0u) << "the passes must warp for the "
                                       "discarded figures to show";

  struct DisarmGuard {
    ~DisarmGuard() { faultinject::disarm(); }
  } Guard;
  ASSERT_TRUE(faultinject::arm("sweep.periodic-pass:1.0", 0, &Err)) << Err;
  SweepReport Rep = runSweep(P, Grid, Periodic);
  EXPECT_EQ(faultinject::injectedCount("sweep.periodic-pass"),
            static_cast<uint64_t>(Rep.NumBanks));
  faultinject::disarm();

  ASSERT_TRUE(Rep.allOk());
  EXPECT_TRUE(Rep.PeriodicPass);
  EXPECT_GT(Rep.PeriodicPassSeconds, 0.0) << "discarded passes still cost";
  EXPECT_EQ(Rep.PeriodicWarps, 0u);
  EXPECT_EQ(Rep.PeriodicWarpedAccesses, 0u);
  EXPECT_EQ(Rep.TraceAccesses, Ref.TraceAccesses);
  double PointSeconds = 0.0;
  for (size_t I = 0; I < Grid.size(); ++I) {
    const SimStats &S = Rep.Points[I].Stats;
    EXPECT_EQ(S.Level[0].Misses, Ref.Points[I].Stats.Level[0].Misses)
        << Grid[I].str();
    EXPECT_EQ(S.Level[0].Accesses, Ref.Points[I].Stats.Level[0].Accesses);
    EXPECT_EQ(S.SimulatedAccesses, S.Level[0].Accesses) << Grid[I].str();
    EXPECT_EQ(S.WarpedAccesses, 0u);
    EXPECT_EQ(S.Warps, 0u);
    EXPECT_EQ(S.FailedWarpChecks, 0u);
    PointSeconds += S.Seconds;
  }
  // The points' shares sum back to every second the method spent: the
  // pre-walk, the discarded passes and the walk.
  EXPECT_GT(Rep.TracePassSeconds, 0.0);
  EXPECT_NEAR(PointSeconds, Rep.stackDistanceSeconds(),
              1e-9 * Grid.size() + 1e-12);

  // Below probability 1, with the passes on several threads, the same
  // (spec, seed) discards the same banks on every run: the draws happen
  // in bank order, not in the order the passes finish.
  Periodic.Threads = 4;
  std::vector<uint64_t> FirstWarps;
  for (int Run = 0; Run < 3; ++Run) {
    ASSERT_TRUE(faultinject::arm("sweep.periodic-pass:0.5", 3, &Err)) << Err;
    SweepReport Half = runSweep(P, Grid, Periodic);
    uint64_t Injected = faultinject::injectedCount("sweep.periodic-pass");
    faultinject::disarm();
    ASSERT_TRUE(Half.allOk());
    EXPECT_GT(Injected, 0u) << "seed 3 must discard some bank";
    EXPECT_LT(Injected, static_cast<uint64_t>(Half.NumBanks))
        << "seed 3 must keep some bank";
    std::vector<uint64_t> Warps;
    for (size_t I = 0; I < Grid.size(); ++I) {
      EXPECT_EQ(Half.Points[I].Stats.Level[0].Misses,
                Ref.Points[I].Stats.Level[0].Misses);
      Warps.push_back(Half.Points[I].Stats.Warps);
    }
    if (Run == 0)
      FirstWarps = Warps;
    EXPECT_EQ(Warps, FirstWarps) << "run " << Run;
  }
}

/// The linear walk runs as one task per worker, each feeding its own
/// group of banks: every bank must see the whole trace once, whatever
/// the group count. Banks of 16-, 64- and 256-byte blocks, LRU rows and
/// exact trackers, through 1, 2 and 3 workers.
TEST(Sweep, LinearWalkSplitAcrossWorkersMatchesConcrete) {
  std::mt19937 Rng(2023);
  std::vector<HierarchyConfig> Grid;
  for (unsigned Block : {16u, 64u, 256u})
    for (unsigned Assoc : {2u, 8u, 96u})
      Grid.push_back(HierarchyConfig::singleLevel(
          CacheConfig{uint64_t(Block) * Assoc * 4, Assoc, Block,
                      PolicyKind::Lru, WriteAllocate::Yes}));
  for (int Trial = 0; Trial < 3; ++Trial) {
    ScopProgram P = generateProgram(
        Rng, Trial != 0 ? ProgramShape::LongRuns : ProgramShape::Plain);
    for (unsigned Threads : {1u, 2u, 3u})
      expectSweepMatchesConcrete(P, Grid, Threads);
  }
}

/// The 16-way ladder of 4 to 1,024 sets at 64-byte blocks.
std::vector<HierarchyConfig> pilotLadder() {
  std::vector<HierarchyConfig> Grid;
  for (uint64_t Bytes = 4096; Bytes <= (1u << 20); Bytes *= 2)
    Grid.push_back(HierarchyConfig::singleLevel(
        CacheConfig{Bytes, 16, 64, PolicyKind::Lru, WriteAllocate::Yes}));
  return Grid;
}

/// The warp pilot's choice per bank, at threshold 1 (every bank runs a
/// periodic pass, and every pass is under the pilot): the set counts of
/// the banks whose pass warped in time. The others finished on the
/// concrete floor, with histograms equal to the linear walk's: every
/// point matches it.
TEST(SweepPilot, PerBankChoiceIsPinned) {
  const struct {
    const char *Kernel;
    std::vector<unsigned> Kept;
  } Cases[] = {{"gemm", {}},
               {"gramschmidt", {}},
               {"jacobi-2d", {4, 8, 16, 32}},
               {"heat-3d", {4, 8, 16}}};
  const std::vector<HierarchyConfig> Grid = pilotLadder();
  for (const auto &C : Cases) {
    std::string Err;
    ScopProgram P = buildKernel(C.Kernel, ProblemSize::Small, &Err);
    ASSERT_TRUE(Err.empty()) << Err;
    SweepOptions Pilot;
    Pilot.WarpSweepMinAccesses = 1;
    Pilot.Threads = 2;
    SweepOptions Linear;
    Linear.WarpSweepMinAccesses = UINT64_MAX;
    SweepReport Rep = runSweep(P, Grid, Pilot);
    SweepReport Ref = runSweep(P, Grid, Linear);
    ASSERT_TRUE(Rep.allOk()) << C.Kernel;
    ASSERT_TRUE(Rep.PeriodicPass) << C.Kernel;
    EXPECT_EQ(Rep.TracePassSeconds, 0.0) << C.Kernel << ": no bank walked";
    std::vector<unsigned> Kept;
    for (size_t I = 0; I < Grid.size(); ++I) {
      const SimStats &S = Rep.Points[I].Stats;
      EXPECT_EQ(S.Level[0].Misses, Ref.Points[I].Stats.Level[0].Misses)
          << C.Kernel << " " << Grid[I].str();
      if (S.Warps > 0) {
        Kept.push_back(Grid[I].Levels[0].numSets());
        EXPECT_EQ(S.PilotTailAccesses, 0u) << C.Kernel << " " << Grid[I].str();
        continue;
      }
      EXPECT_EQ(S.SimulatedAccesses, S.Level[0].Accesses)
          << C.Kernel << " " << Grid[I].str();
      EXPECT_GT(S.PilotTailAccesses, S.Level[0].Accesses / 2)
          << C.Kernel << " " << Grid[I].str()
          << ": a pass with no warp finishes on the concrete floor";
    }
    EXPECT_EQ(Kept, C.Kept) << C.Kernel;
    EXPECT_EQ(Rep.PeriodicFinishedConcretely, Grid.size() - C.Kept.size())
        << C.Kernel;
  }
}

/// The points' seconds sum to the method's: the pre-walk and every pass
/// (those that finished on the concrete floor included), plus the
/// linear walk split across workers when passes are discarded (the
/// fault point discards a finished pass like a refused bulk update).
/// The linear flavor prices its points by the same rule, as no pass and
/// every bank walked, with the pre-walk (a trace below the threshold)
/// or without it (threshold UINT64_MAX).
TEST(SweepPilot, PointSecondsSumToThePassesAndTheSplitWalk) {
  std::string Err;
  ScopProgram P = buildKernel("jacobi-2d", ProblemSize::Small, &Err);
  ASSERT_TRUE(Err.empty()) << Err;
  const std::vector<HierarchyConfig> Grid = pilotLadder();
  SweepOptions Pilot;
  Pilot.WarpSweepMinAccesses = 1;
  Pilot.Threads = 3;
  auto SumsToTheMethod = [&](const SweepReport &Rep) {
    double PointSeconds = 0.0;
    for (const SweepPoint &Pt : Rep.Points)
      PointSeconds += Pt.Stats.Seconds;
    EXPECT_NEAR(PointSeconds, Rep.stackDistanceSeconds(),
                1e-9 * Grid.size() + 1e-12);
  };
  SweepReport Rep = runSweep(P, Grid, Pilot);
  ASSERT_TRUE(Rep.allOk());
  ASSERT_GT(Rep.PeriodicFinishedConcretely, 0u);
  ASSERT_LT(Rep.PeriodicFinishedConcretely, Grid.size())
      << "some pass must warp";
  EXPECT_EQ(Rep.TracePassSeconds, 0.0);
  EXPECT_GT(Rep.PeriodicPassSeconds, 0.0);
  SumsToTheMethod(Rep);
  const std::string Finished =
      std::to_string(Rep.PeriodicFinishedConcretely) + " finished concretely";
  EXPECT_NE(Rep.summary().find(Finished), std::string::npos)
      << Rep.summary();

  // Discarded passes walk linearly, three ways: the first seed that
  // discards between 3 and all but one of the passes.
  uint64_t Discarded = 0;
  SweepReport Mixed;
  for (uint64_t Seed = 0; Discarded < 3 || Discarded >= Grid.size();
       ++Seed) {
    ASSERT_LT(Seed, 64u) << "no seed discards a few passes";
    ASSERT_TRUE(faultinject::arm("sweep.periodic-pass:0.5", Seed, &Err))
        << Err;
    Mixed = runSweep(P, Grid, Pilot);
    Discarded = faultinject::injectedCount("sweep.periodic-pass");
    faultinject::disarm();
  }
  ASSERT_TRUE(Mixed.allOk());
  EXPECT_GT(Mixed.TracePassSeconds, 0.0);
  EXPECT_GT(Mixed.PeriodicPassSeconds, 0.0);
  SumsToTheMethod(Mixed);
  for (size_t I = 0; I < Grid.size(); ++I)
    EXPECT_EQ(Mixed.Points[I].Stats.Level[0].Misses,
              Rep.Points[I].Stats.Level[0].Misses);

  // Threshold 0 takes the periodic flavor under the same pilot.
  Pilot.WarpSweepMinAccesses = 0;
  SweepReport Forced = runSweep(P, Grid, Pilot);
  EXPECT_EQ(Forced.PeriodicFinishedConcretely,
            Rep.PeriodicFinishedConcretely);
  for (size_t I = 0; I < Grid.size(); ++I) {
    EXPECT_EQ(Forced.Points[I].Stats.Level[0].Misses,
              Rep.Points[I].Stats.Level[0].Misses);
    EXPECT_EQ(Forced.Points[I].Stats.Warps, Rep.Points[I].Stats.Warps);
  }

  for (uint64_t Threshold : {UINT64_MAX - 1, UINT64_MAX}) {
    Pilot.WarpSweepMinAccesses = Threshold;
    SweepReport Linear = runSweep(P, Grid, Pilot);
    ASSERT_TRUE(Linear.allOk());
    EXPECT_FALSE(Linear.PeriodicPass);
    EXPECT_GT(Linear.TracePassSeconds, 0.0);
    EXPECT_EQ(Linear.PeriodicPassSeconds, 0.0);
    EXPECT_NEAR(fastPointSeconds(Linear), Linear.stackDistanceSeconds(),
                1e-9 * Grid.size() + 1e-12)
        << Threshold;
  }
}

//===----------------------------------------------------------------------===//
// Sub-sweep partitioning (the scheduler's job seams)
//===----------------------------------------------------------------------===//

TEST(SweepPartition, GroupsCoverEveryIndexAlongMethodSeams) {
  CacheConfig Lru{4096, 8, 64, PolicyKind::Lru, WriteAllocate::Yes};
  CacheConfig Lru2 = Lru;
  Lru2.SizeBytes = 8192;
  CacheConfig Fifo = Lru;
  Fifo.Policy = PolicyKind::Fifo;
  CacheConfig L2{32768, 8, 64, PolicyKind::Lru, WriteAllocate::Yes};
  CacheConfig Invalid;
  Invalid.SizeBytes = 100; // Not set-aligned: validate() rejects it.

  std::vector<HierarchyConfig> Grid = {
      HierarchyConfig::singleLevel(Lru),      // 0: sd
      HierarchyConfig::singleLevel(Fifo),     // 1: sim
      HierarchyConfig::twoLevel(Lru, L2),     // 2: fs (L1 = Lru)
      HierarchyConfig::singleLevel(Lru2),     // 3: sd, with 0
      HierarchyConfig::singleLevel(Fifo),     // 4: sim, dup of 1
      HierarchyConfig::twoLevel(Lru2, L2),    // 5: fs (L1 = Lru2)
      HierarchyConfig::twoLevel(Lru, L2),     // 6: fs, with 2
      HierarchyConfig::singleLevel(Invalid),  // 7: its own group
  };
  std::vector<std::vector<size_t>> Groups = partitionSweepGroups(Grid);

  // A partition: every input index in exactly one group.
  std::vector<unsigned> Seen(Grid.size(), 0);
  for (const auto &G : Groups)
    for (size_t I : G)
      ++Seen.at(I);
  for (size_t I = 0; I < Seen.size(); ++I)
    EXPECT_EQ(Seen[I], 1u) << "index " << I;

  auto groupOf = [&](size_t I) -> const std::vector<size_t> & {
    for (const auto &G : Groups)
      for (size_t J : G)
        if (J == I)
          return G;
    static const std::vector<size_t> None;
    return None;
  };
  // Both LRU capacities share one stack-distance pass; the two-level
  // points group by their L1 stream; identical sim configs share a job.
  EXPECT_EQ(groupOf(0), groupOf(3));
  EXPECT_EQ(groupOf(2), groupOf(6));
  EXPECT_NE(groupOf(2), groupOf(5));
  EXPECT_EQ(groupOf(1), groupOf(4));
  EXPECT_EQ(groupOf(7).size(), 1u); // Invalid: isolated, still covered.
}

TEST(SweepPartition, GroupedSubSweepsMatchOneCombinedSweep) {
  // The invariant the concurrent scheduler rests on: running each
  // partition group as its own runSweep call and merging the reports
  // is bit-identical per point to one combined call.
  std::mt19937 Rng(20220613);
  ScopProgram P = generateProgram(Rng);
  CacheConfig Lru{4096, 8, 64, PolicyKind::Lru, WriteAllocate::Yes};
  CacheConfig Lru2 = Lru;
  Lru2.SizeBytes = 2048;
  CacheConfig Fifo = Lru;
  Fifo.Policy = PolicyKind::Fifo;
  CacheConfig Plru = Lru;
  Plru.Policy = PolicyKind::Plru;
  CacheConfig L2{32768, 8, 64, PolicyKind::Lru, WriteAllocate::Yes};
  std::vector<HierarchyConfig> Grid = {
      HierarchyConfig::singleLevel(Lru),
      HierarchyConfig::singleLevel(Fifo),
      HierarchyConfig::twoLevel(Lru, L2),
      HierarchyConfig::singleLevel(Lru2),
      HierarchyConfig::singleLevel(Plru),
      HierarchyConfig::twoLevel(Lru2, L2),
  };

  SweepOptions SO;
  SO.Threads = 1;
  SweepReport Combined = runSweep(P, Grid, SO);
  ASSERT_TRUE(Combined.allOk());

  std::vector<SweepPoint> Points(Grid.size());
  SweepReport Merged;
  for (const std::vector<size_t> &G : partitionSweepGroups(Grid)) {
    std::vector<HierarchyConfig> Sub;
    for (size_t I : G)
      Sub.push_back(Grid[I]);
    SweepReport Rep = runSweep(P, Sub, SO);
    for (size_t K = 0; K < G.size(); ++K)
      Points[G[K]] = Rep.Points[K];
    mergeSweepReports(Merged, Rep);
  }

  for (size_t I = 0; I < Grid.size(); ++I) {
    SweepPoint A = Combined.Points[I], B = Points[I];
    A.Stats.Seconds = B.Stats.Seconds = 0.0;
    EXPECT_EQ(toJson(A).dump(false), toJson(B).dump(false))
        << "point " << I << " " << Grid[I].str();
  }
  // The merged cost figures describe the same partition: same pass
  // counts and method population, whatever the timing.
  EXPECT_EQ(Merged.StackDistancePoints, Combined.StackDistancePoints);
  EXPECT_EQ(Merged.FilteredPoints, Combined.FilteredPoints);
  EXPECT_EQ(Merged.NumBanks, Combined.NumBanks);
  EXPECT_EQ(Merged.FilteredGroups, Combined.FilteredGroups);
  EXPECT_EQ(Merged.SimulatedJobs, Combined.SimulatedJobs);
}

TEST(SweepPartition, MergeSumsAdditiveFiguresAndOrsFlags) {
  SweepReport A, B;
  A.TracePassSeconds = 1.0;
  A.TraceAccesses = 100;
  A.NumBanks = 2;
  A.StackDistancePoints = 3;
  A.SimulatedJobs = 1;
  A.DemotedL1s = {"l1-a"};
  B.TracePassSeconds = 0.5;
  B.TraceAccesses = 250; // Larger shared pass: max wins, not sum.
  B.PeriodicPass = true;
  B.PeriodicWarps = 7;
  B.FilteredPoints = 4;
  B.DemotedL1s = {"l1-b"};

  SweepReport Into;
  mergeSweepReports(Into, A);
  mergeSweepReports(Into, B);
  EXPECT_DOUBLE_EQ(Into.TracePassSeconds, 1.5);
  EXPECT_EQ(Into.TraceAccesses, 250u);
  EXPECT_EQ(Into.NumBanks, 2u);
  EXPECT_EQ(Into.StackDistancePoints, 3u);
  EXPECT_EQ(Into.SimulatedJobs, 1u);
  EXPECT_TRUE(Into.PeriodicPass);
  EXPECT_EQ(Into.PeriodicWarps, 7u);
  EXPECT_EQ(Into.FilteredPoints, 4u);
  ASSERT_EQ(Into.DemotedL1s.size(), 2u);
  EXPECT_EQ(Into.DemotedL1s[0], "l1-a");
  EXPECT_EQ(Into.DemotedL1s[1], "l1-b");
}

//===----------------------------------------------------------------------===//
// Grid syntax
//===----------------------------------------------------------------------===//

TEST(SweepGrid, ParsesRangesAndKeys) {
  SweepLevelGrid G;
  std::string Err;
  ASSERT_TRUE(parseSweepLevelGrid("8K:256K:x2,assoc=4,8", G, &Err)) << Err;
  ASSERT_EQ(G.SizesBytes.size(), 6u);
  EXPECT_EQ(G.SizesBytes.front(), 8u * 1024);
  EXPECT_EQ(G.SizesBytes.back(), 256u * 1024);
  ASSERT_EQ(G.Assocs.size(), 2u);
  EXPECT_EQ(G.Assocs[0], 4u);
  EXPECT_EQ(G.Assocs[1], 8u);
  ASSERT_EQ(G.Policies.size(), 1u); // Defaulted.
  EXPECT_EQ(G.Policies[0], PolicyKind::Lru);
  EXPECT_EQ(G.BlockBytes, 64u);

  std::vector<HierarchyConfig> Grid;
  ASSERT_TRUE(expandSweepGrid(
      G, nullptr, InclusionPolicy::NonInclusiveNonExclusive, Grid, &Err))
      << Err;
  EXPECT_EQ(Grid.size(), 12u); // 6 capacities x 2 way counts.
}

TEST(SweepGrid, ParsesFullAssocPoliciesAndBlock) {
  SweepLevelGrid G;
  std::string Err;
  ASSERT_TRUE(parseSweepLevelGrid(
      "1K,4096,assoc=full,policy=lru,qlru,block=128", G, &Err))
      << Err;
  ASSERT_EQ(G.SizesBytes.size(), 2u);
  EXPECT_EQ(G.SizesBytes[1], 4096u);
  ASSERT_EQ(G.Assocs.size(), 1u);
  EXPECT_EQ(G.Assocs[0], 0u); // 0 encodes fully associative.
  ASSERT_EQ(G.Policies.size(), 2u);
  EXPECT_EQ(G.BlockBytes, 128u);

  // Expansion resolves assoc=full per capacity: 1K/128B = 8 ways.
  G.Policies = {PolicyKind::Lru};
  std::vector<HierarchyConfig> Grid;
  ASSERT_TRUE(expandSweepGrid(
      G, nullptr, InclusionPolicy::NonInclusiveNonExclusive, Grid, &Err))
      << Err;
  ASSERT_EQ(Grid.size(), 2u);
  EXPECT_EQ(Grid[0].Levels[0].Assoc, 8u);
  EXPECT_TRUE(Grid[0].Levels[0].isFullyAssociative());
}

/// N^2 = 1.6e25 accesses: the periodic pass's warp fast-forward
/// overflows, and the bank's points fail with "counter overflow" at
/// once -- neither wrapped counts marked ok nor a linear walk over more
/// than 2^64 accesses. So does a warping job for a PLRU point.
TEST(SweepOverflow, PeriodicPassOverflowFailsItsPoints) {
  ScopBuilder B("overflow");
  const int64_t N = 4000000000000;
  unsigned A = B.addArray("A", 8, {N});
  B.beginLoop("i", B.cst(0), B.cst(N - 1));
  B.beginLoop("j", B.cst(0), B.cst(N - 1));
  B.write(A, {B.iter("j")});
  B.endLoop();
  B.endLoop();
  std::string Err;
  ScopProgram P = B.finish(&Err);
  ASSERT_EQ(Err, "");
  std::vector<HierarchyConfig> Grid;
  for (unsigned Assoc : {4u, 8u})
    Grid.push_back(HierarchyConfig::singleLevel(CacheConfig{
        Assoc * 8 * 64, Assoc, 64, PolicyKind::Lru, WriteAllocate::Yes}));
  Grid.push_back(HierarchyConfig::singleLevel(
      CacheConfig{4096, 8, 64, PolicyKind::Plru, WriteAllocate::Yes}));
  SweepReport Rep = runSweep(P, Grid, SweepOptions());
  ASSERT_EQ(Rep.Points.size(), Grid.size());
  EXPECT_TRUE(Rep.PeriodicPass);
  for (const SweepPoint &Pt : Rep.Points) {
    EXPECT_FALSE(Pt.Ok) << Pt.Cache.str();
    EXPECT_EQ(Pt.Error, "counter overflow") << Pt.Cache.str();
  }
  EXPECT_FALSE(Rep.allOk());
  // The failed points still carry the pass and pre-walk they cost.
  EXPECT_GT(Rep.PeriodicPassSeconds, 0.0);
  EXPECT_NEAR(fastPointSeconds(Rep), Rep.stackDistanceSeconds(), 1e-12);
}

TEST(SweepGrid, RejectsMalformedSpecs) {
  SweepLevelGrid G;
  std::string Err;
  EXPECT_FALSE(parseSweepLevelGrid("", G, &Err));
  EXPECT_FALSE(parseSweepLevelGrid("assoc=4", G, &Err)); // No capacity.
  EXPECT_FALSE(parseSweepLevelGrid("8K:1K:x2", G, &Err)); // Empty range.
  EXPECT_FALSE(parseSweepLevelGrid("1K:8K:x1", G, &Err)); // Step < 2.
  EXPECT_FALSE(parseSweepLevelGrid("1K:8K:2", G, &Err));  // Missing 'x'.
  EXPECT_FALSE(parseSweepLevelGrid("4K,ways=2", G, &Err)); // Unknown key.
  EXPECT_FALSE(parseSweepLevelGrid("4K,assoc=nope", G, &Err));
  EXPECT_FALSE(parseSweepLevelGrid("4K,assoc=0", G, &Err)); // Not 'full'.
  EXPECT_FALSE(parseSweepLevelGrid("4K,policy=mru", G, &Err));
  EXPECT_FALSE(parseSweepLevelGrid("4K,block=64,128", G, &Err));
  EXPECT_FALSE(parseSweepLevelGrid("4K,,8K", G, &Err)); // Empty token.
}

TEST(SweepGrid, ExpansionRejectsInvalidPoints) {
  SweepLevelGrid G;
  std::string Err;
  // 1K at 8 ways x 128 B blocks: 1024 / (8*128) = 1 set, fine; but PLRU
  // with 3 ways is invalid.
  ASSERT_TRUE(parseSweepLevelGrid("1K,assoc=3,policy=plru", G, &Err));
  std::vector<HierarchyConfig> Grid;
  EXPECT_FALSE(expandSweepGrid(
      G, nullptr, InclusionPolicy::NonInclusiveNonExclusive, Grid, &Err));
  EXPECT_NE(Err.find("PLRU"), std::string::npos) << Err;
}

//===----------------------------------------------------------------------===//
// The wcs-sweep document
//===----------------------------------------------------------------------===//

TEST(SweepReportJson, RoundTripsExactly) {
  std::mt19937 Rng(5);
  ScopProgram P = generateProgram(Rng);
  CacheConfig Lru{2048, 4, 64, PolicyKind::Lru, WriteAllocate::Yes};
  CacheConfig Fifo = Lru;
  Fifo.Policy = PolicyKind::Fifo;
  std::vector<HierarchyConfig> Grid = {
      HierarchyConfig::singleLevel(Lru),
      HierarchyConfig::singleLevel(Fifo),
  };
  SweepOptions SO;
  SweepReport Rep = runSweep(P, Grid, SO);
  ASSERT_TRUE(Rep.allOk());
  Rep.Tool = "wcs-sim";
  Rep.Program = "random";
  Rep.SizeName = "SMALL";

  json::Value V = toJson(Rep);
  std::string Text = V.dump();
  json::Value Parsed;
  std::string Err;
  ASSERT_TRUE(json::parse(Text, Parsed, &Err)) << Err;
  SweepReport Back;
  ASSERT_TRUE(fromJson(Parsed, Back, &Err)) << Err;

  EXPECT_EQ(Back.Tool, "wcs-sim");
  EXPECT_EQ(Back.Program, "random");
  EXPECT_EQ(Back.SizeName, "SMALL");
  EXPECT_EQ(Back.TraceAccesses, Rep.TraceAccesses);
  ASSERT_EQ(Back.Points.size(), 2u);
  EXPECT_EQ(Back.Points[0].Method, SweepMethod::StackDistance);
  EXPECT_EQ(Back.Points[0].Backend, SimBackend::StackDistance);
  EXPECT_EQ(Back.Points[1].Method, SweepMethod::Simulated);
  for (size_t I = 0; I < 2; ++I) {
    EXPECT_EQ(Back.Points[I].Stats.Level[0].Misses,
              Rep.Points[I].Stats.Level[0].Misses);
    EXPECT_EQ(Back.Points[I].Cache.str(), Grid[I].str());
  }
  // Serialization is deterministic: a round trip reproduces the text.
  EXPECT_EQ(toJson(Back).dump(), Text);
}

/// Periodic-pass provenance and cap-demoted groups survive the round
/// trip (and the demotion is visible in the report, which is what the
/// wcs-sim warning and the wcs-report "demoted" lines render).
TEST(SweepReportJson, RoundTripsPeriodicAndDemotedProvenance) {
  // A program with plenty of L1 misses, so a 1-record stream cap is
  // guaranteed to overrun and demote the group.
  ScopBuilder B("missy");
  unsigned A = B.addArray("A", 8, {4096});
  B.beginLoop("i", B.cst(0), B.cst(4095));
  B.read(A, {B.iterAt(0)});
  B.endLoop();
  std::string BuildErr;
  ScopProgram P = B.finish(&BuildErr);
  ASSERT_EQ(BuildErr, "");
  CacheConfig Lru{2048, 4, 64, PolicyKind::Lru, WriteAllocate::Yes};
  CacheConfig L2{8192, 8, 64, PolicyKind::QuadAgeLru,
                 WriteAllocate::Yes};
  std::vector<HierarchyConfig> Grid = {
      HierarchyConfig::singleLevel(Lru),
      HierarchyConfig::twoLevel(Lru, L2),
  };
  SweepOptions SO;
  SO.WarpSweepMinAccesses = 0; // Force the periodic pass flavor.
  SO.MaxFilteredRecords = 1;   // Force the recording to demote.
  SweepReport Rep = runSweep(P, Grid, SO);
  ASSERT_TRUE(Rep.allOk());
  EXPECT_TRUE(Rep.PeriodicPass);
  ASSERT_EQ(Rep.DemotedL1s.size(), 1u);
  EXPECT_EQ(Rep.DemotedL1s[0], Lru.str());

  std::string Text = toJson(Rep).dump();
  json::Value Parsed;
  std::string Err;
  ASSERT_TRUE(json::parse(Text, Parsed, &Err)) << Err;
  SweepReport Back;
  ASSERT_TRUE(fromJson(Parsed, Back, &Err)) << Err;
  EXPECT_TRUE(Back.PeriodicPass);
  EXPECT_EQ(Back.PeriodicWarps, Rep.PeriodicWarps);
  EXPECT_EQ(Back.PeriodicPassSeconds, Rep.PeriodicPassSeconds);
  EXPECT_EQ(Back.FilteredStoredRecords, Rep.FilteredStoredRecords);
  ASSERT_EQ(Back.DemotedL1s.size(), 1u);
  EXPECT_EQ(Back.DemotedL1s[0], Lru.str());
  EXPECT_EQ(toJson(Back).dump(), Text);
}

TEST(SweepReportJson, RejectsWrongSchemaAndVersion) {
  SweepReport D;
  json::Value V = toJson(D);
  SweepReport Out;
  std::string Err;

  json::Value Wrong = V;
  Wrong.set("schema", "wcs-results");
  EXPECT_FALSE(fromJson(Wrong, Out, &Err));
  EXPECT_NE(Err.find("schema"), std::string::npos);

  json::Value Future = V;
  Future.set("schema_version", SweepSchemaVersion + 1);
  EXPECT_FALSE(fromJson(Future, Out, &Err));
  EXPECT_NE(Err.find("version"), std::string::npos);
}

} // namespace
