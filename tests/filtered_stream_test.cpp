//===- tests/filtered_stream_test.cpp - Filtered-stream cross-checks ------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
// The filtered-stream engine's contract is bit-identity on NINE
// hierarchies: recording the L1-miss stream once and answering every L2
// from it -- analytically (conditioned stack-distance banks) or by
// replay -- must reproduce exactly the counters of a full two-level
// ConcreteSimulator run. The property suite enforces this across random
// programs, random geometries and all four L2 policies, and checks that
// everything the engine cannot share (inclusive/exclusive hierarchies,
// truncated recordings) falls back to full simulation with honest
// provenance.
//
//===----------------------------------------------------------------------===//

#include "RandomProgram.h"
#include "wcs/driver/Sweep.h"
#include "wcs/frontend/Frontend.h"
#include "wcs/polybench/Polybench.h"
#include "wcs/scop/Builder.h"
#include "wcs/sim/ConcreteSimulator.h"
#include "wcs/trace/FilteredStream.h"
#include "wcs/trace/TraceGenerator.h"

#include <gtest/gtest.h>

#include <random>

using namespace wcs;
using testutil::generateProgram;

namespace {

const PolicyKind AllPolicies[] = {PolicyKind::Lru, PolicyKind::Fifo,
                                  PolicyKind::Plru, PolicyKind::QuadAgeLru};

/// A random two-level hierarchy with independent L1/L2 policies and a
/// valid set-count relation (L2 sets a multiple of L1 sets).
HierarchyConfig randomTwoLevel(std::mt19937 &Rng, PolicyKind L1Pol,
                               PolicyKind L2Pol, InclusionPolicy Inclusion) {
  auto Rand = [&](int Lo, int Hi) {
    return std::uniform_int_distribution<int>(Lo, Hi)(Rng);
  };
  CacheConfig L1;
  L1.BlockBytes = 64;
  L1.Assoc = 1u << Rand(0, 2);      // 1, 2 or 4 ways (PLRU-safe).
  unsigned Sets = 1u << Rand(0, 3); // 1..8 sets.
  L1.SizeBytes = static_cast<uint64_t>(L1.Assoc) * Sets * 64;
  L1.Policy = L1Pol;
  CacheConfig L2 = L1;
  L2.Policy = L2Pol;
  L2.Assoc = 1u << Rand(1, 3); // 2..8 ways.
  L2.SizeBytes =
      static_cast<uint64_t>(L2.Assoc) * (Sets << Rand(0, 2)) * 64;
  HierarchyConfig H = HierarchyConfig::twoLevel(L1, L2, Inclusion);
  EXPECT_EQ(H.validate(), "") << H.str();
  return H;
}

void expectStatsMatchConcrete(const ScopProgram &P, const HierarchyConfig &H,
                              const SimStats &Got, const char *What) {
  ConcreteSimulator Sim(P, H);
  SimStats Ref = Sim.run();
  ASSERT_EQ(Got.NumLevels, Ref.NumLevels) << What << " " << H.str();
  for (unsigned L = 0; L < Ref.NumLevels; ++L) {
    EXPECT_EQ(Got.Level[L].Accesses, Ref.Level[L].Accesses)
        << What << " " << H.str() << " level " << L << "\n"
        << P.str();
    EXPECT_EQ(Got.Level[L].Misses, Ref.Level[L].Misses)
        << What << " " << H.str() << " level " << L << "\n"
        << P.str();
  }
}

/// Sweeps \p Configs over \p P and requires bit-identity with
/// independent ConcreteSimulator runs, point for point.
void expectSweepMatchesConcrete(const ScopProgram &P,
                                const std::vector<HierarchyConfig> &Configs,
                                const SweepOptions &SO) {
  SweepReport Rep = runSweep(P, Configs, SO);
  ASSERT_EQ(Rep.Points.size(), Configs.size());
  for (size_t I = 0; I < Configs.size(); ++I) {
    const SweepPoint &Pt = Rep.Points[I];
    ASSERT_TRUE(Pt.Ok) << Configs[I].str() << ": " << Pt.Error;
    expectStatsMatchConcrete(P, Configs[I], Pt.Stats,
                             sweepMethodName(Pt.Method));
  }
}

//===----------------------------------------------------------------------===//
// The FilteredStream layer itself
//===----------------------------------------------------------------------===//

TEST(FilteredStream, RecordsExactlyTheL1Misses) {
  std::mt19937 Rng(20260729);
  for (int Trial = 0; Trial < 3; ++Trial) {
    ScopProgram P = generateProgram(Rng);
    CacheConfig L1{1024, 4, 64, PolicyKind::Plru, WriteAllocate::Yes};
    FilteredStream FS = FilteredStream::record(P, L1);
    ConcreteSimulator Sim(P, HierarchyConfig::singleLevel(L1));
    SimStats Ref = Sim.run();
    EXPECT_FALSE(FS.truncated());
    EXPECT_EQ(FS.l1Accesses(), Ref.Level[0].Accesses);
    EXPECT_EQ(FS.l1Misses(), Ref.Level[0].Misses);
    EXPECT_EQ(FS.size(), Ref.Level[0].Misses);
  }
}

/// The direct-replay identity: record + replay == full two-level
/// concrete simulation, for every L2 policy over every L1 policy.
TEST(FilteredStream, ReplayMatchesConcreteAllPolicies) {
  std::mt19937 Rng(42);
  for (int Trial = 0; Trial < 2; ++Trial) {
    ScopProgram P = generateProgram(Rng);
    for (PolicyKind L1Pol : AllPolicies)
      for (PolicyKind L2Pol : AllPolicies) {
        HierarchyConfig H =
            randomTwoLevel(Rng, L1Pol, L2Pol,
                           InclusionPolicy::NonInclusiveNonExclusive);
        FilteredStream FS = FilteredStream::record(P, H.Levels[0]);
        ASSERT_TRUE(FS.answersHierarchy(H));
        expectStatsMatchConcrete(P, H, FS.replay(H.Levels[1]), "replay");
      }
  }
}

/// The analytical identity: an L2 stack-distance bank conditioned on
/// the stream answers every LRU write-allocate L2 geometry.
TEST(FilteredStream, ConditionedBankMatchesConcreteLruL2) {
  std::mt19937 Rng(7);
  ScopProgram P = generateProgram(Rng);
  CacheConfig L1{512, 2, 64, PolicyKind::Lru, WriteAllocate::Yes};
  FilteredStream FS = FilteredStream::record(P, L1);
  // Both bank representations: LRU rows 8 ways wide, and exact.
  for (unsigned Width : {8u, SetDistanceBank::MaxRowAssoc + 1}) {
    for (unsigned L2Sets : {1u, 4u, 16u}) {
      SetDistanceBank Bank(64, L2Sets, Width);
      FS.feed(Bank);
      EXPECT_EQ(Bank.totalAccesses(), FS.size());
      for (unsigned L2Assoc : {2u, 8u}) {
        CacheConfig L2{static_cast<uint64_t>(L2Assoc) * L2Sets * 64,
                       L2Assoc, 64, PolicyKind::Lru, WriteAllocate::Yes};
        HierarchyConfig H = HierarchyConfig::twoLevel(L1, L2);
        if (!H.validate().empty())
          continue; // L2 sets must be a multiple of L1 sets.
        ConcreteSimulator Sim(P, H);
        SimStats Ref = Sim.run();
        EXPECT_EQ(Bank.missesForCache(L2), Ref.Level[1].Misses)
            << "width " << Width << " " << H.str() << "\n"
            << P.str();
      }
    }
  }
}

/// No-write-allocate levels stay exact: an L1 write miss that bypasses
/// the L1 still reaches the L2, and the record's write bit drives the
/// L2's own allocate decision.
TEST(FilteredStream, NoWriteAllocateLevelsMatchConcrete) {
  std::mt19937 Rng(31);
  for (int Trial = 0; Trial < 3; ++Trial) {
    ScopProgram P = generateProgram(Rng);
    for (WriteAllocate L1Alloc : {WriteAllocate::Yes, WriteAllocate::No})
      for (WriteAllocate L2Alloc :
           {WriteAllocate::Yes, WriteAllocate::No}) {
        CacheConfig L1{1024, 4, 64, PolicyKind::Lru, L1Alloc};
        CacheConfig L2{8192, 8, 64, PolicyKind::Fifo, L2Alloc};
        HierarchyConfig H = HierarchyConfig::twoLevel(L1, L2);
        FilteredStream FS = FilteredStream::record(P, L1);
        ASSERT_TRUE(FS.answersHierarchy(H));
        expectStatsMatchConcrete(P, H, FS.replay(L2), "NWA replay");
      }
  }
}

TEST(FilteredStream, RejectsWhatItCannotAnswer) {
  std::mt19937 Rng(13);
  ScopProgram P = generateProgram(Rng);
  CacheConfig L1{512, 2, 64, PolicyKind::Lru, WriteAllocate::Yes};
  CacheConfig L2 = L1;
  L2.SizeBytes = 2048;
  L2.Assoc = 8;
  FilteredStream FS = FilteredStream::record(P, L1);
  std::string Why;

  EXPECT_FALSE(
      FS.answersHierarchy(HierarchyConfig::singleLevel(L1), &Why));
  EXPECT_NE(Why.find("two-level"), std::string::npos);

  EXPECT_FALSE(FS.answersHierarchy(
      HierarchyConfig::twoLevel(L1, L2, InclusionPolicy::Inclusive), &Why));
  EXPECT_NE(Why.find("NINE"), std::string::npos);

  CacheConfig OtherL1 = L1;
  OtherL1.Assoc = 4;
  EXPECT_FALSE(FS.answersHierarchy(
      HierarchyConfig::twoLevel(OtherL1, L2), &Why));
  EXPECT_NE(Why.find("L1"), std::string::npos);

  FilteredStream Capped = FilteredStream::record(P, L1, SimOptions(),
                                                 /*MaxRecords=*/1);
  EXPECT_TRUE(Capped.truncated());
  EXPECT_FALSE(
      Capped.answersHierarchy(HierarchyConfig::twoLevel(L1, L2), &Why));
  EXPECT_NE(Why.find("truncated"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Run-length-encoded (periodic) streams
//===----------------------------------------------------------------------===//

/// A time-stepped sweep over an array: the miss stream under a small L1
/// repeats verbatim every step, so the recording must compress.
ScopProgram timeSteppedProgram(int Steps, int Elems) {
  ScopBuilder B("stepped");
  unsigned A = B.addArray("A", 8, {static_cast<int64_t>(Elems)});
  B.beginLoop("t", B.cst(0), B.cst(Steps - 1));
  B.beginLoop("i", B.cst(0), B.cst(Elems - 1));
  B.read(A, {B.iterAt(1)});
  B.write(A, {B.iterAt(1)});
  B.endLoop();
  B.endLoop();
  std::string Err;
  ScopProgram P = B.finish(&Err);
  EXPECT_EQ(Err, "");
  return P;
}

TEST(FilteredStreamRle, CompressesPeriodicStreamsExactly) {
  // 256 blocks through a 16-block L1: every access misses the L1 sweep
  // after sweep, and the miss stream repeats verbatim per time step.
  ScopProgram P = timeSteppedProgram(/*Steps=*/12, /*Elems=*/2048);
  CacheConfig L1{1024, 4, 64, PolicyKind::Lru, WriteAllocate::Yes};
  FilteredStream FS = FilteredStream::record(P, L1);
  ASSERT_FALSE(FS.truncated());
  EXPECT_TRUE(FS.compressed());
  EXPECT_LT(FS.storedRecords(), FS.size() / 4)
      << "a 12-fold repetition must fold";

  // The segment cover is exact: expansion reproduces the stream length
  // and the record-by-record walk drives a bit-identical replica.
  uint64_t Expanded = 0;
  for (const FilteredSegment &S : FS.segments())
    Expanded += S.Len * S.Reps;
  EXPECT_EQ(Expanded, FS.size());
  EXPECT_EQ(FS.size(), FS.l1Misses());

  // Replay and conditioned banks over the compressed stream must still
  // match full two-level simulation.
  for (PolicyKind L2Pol : AllPolicies) {
    CacheConfig L2{8192, 8, 64, L2Pol, WriteAllocate::Yes};
    HierarchyConfig H = HierarchyConfig::twoLevel(L1, L2);
    ASSERT_TRUE(FS.answersHierarchy(H));
    expectStatsMatchConcrete(P, H, FS.replay(L2), "RLE replay");
  }
  SetDistanceBank Bank(64, 4, 16);
  FS.feed(Bank);
  EXPECT_EQ(Bank.totalAccesses(), FS.size());
  CacheConfig L2{16 * 4 * 64, 16, 64, PolicyKind::Lru,
                 WriteAllocate::Yes};
  ConcreteSimulator Sim(P, HierarchyConfig::twoLevel(L1, L2));
  SimStats Ref = Sim.run();
  EXPECT_EQ(Bank.missesForCache(L2), Ref.Level[1].Misses);
}

/// The fold's candidates, pinned: stored records and segment counts of
/// PolyBench miss streams that fold (FIFO gramschmidt, and correlation
/// through a 1 KiB L1) and of one that does not (PLRU gramschmidt). A
/// change to how compressTail finds or keeps its runs shows here even
/// when the expanded stream stays the same.
TEST(FilteredStreamRle, StorageIsPinned) {
  struct Pin {
    const char *Kernel;
    uint64_t L1Bytes;
    PolicyKind Policy;
    uint64_t Size;
    size_t Stored, Segments;
  };
  const Pin Pins[] = {
      {"gramschmidt", 4096, PolicyKind::Fifo, 289917, 286711, 23},
      {"gramschmidt", 4096, PolicyKind::Plru, 297747, 297747, 1},
      {"correlation", 1024, PolicyKind::Lru, 145157, 142577, 57},
      {"correlation", 1024, PolicyKind::Plru, 143530, 140993, 57},
  };
  for (const Pin &X : Pins) {
    std::string Err;
    ScopProgram P = buildKernel(X.Kernel, ProblemSize::Small, &Err);
    ASSERT_EQ(Err, "") << X.Kernel;
    CacheConfig L1{X.L1Bytes, 8, 64, X.Policy, WriteAllocate::Yes};
    FilteredStream FS = FilteredStream::record(P, L1);
    std::string Ctx = std::string(X.Kernel) + " " + L1.str();
    ASSERT_FALSE(FS.truncated()) << Ctx;
    EXPECT_EQ(FS.size(), X.Size) << Ctx;
    EXPECT_EQ(FS.storedRecords(), X.Stored) << Ctx;
    EXPECT_EQ(FS.segments().size(), X.Segments) << Ctx;
  }
}

TEST(FilteredStreamRle, ForEachRecordExpandsInOrder) {
  ScopProgram P = timeSteppedProgram(/*Steps=*/6, /*Elems=*/1024);
  CacheConfig L1{512, 2, 64, PolicyKind::Lru, WriteAllocate::Yes};
  FilteredStream Compressed = FilteredStream::record(P, L1);
  ASSERT_TRUE(Compressed.compressed());
  // An independent program-order reference: drive the explicit trace
  // through the same L1, one access at a time.
  std::vector<FilteredRecord> Ref;
  ConcreteHierarchy Cache(HierarchyConfig::singleLevel(L1));
  generateTrace(P, /*IncludeScalars=*/false, [&](const TraceRecord &T) {
    BlockId B = T.Addr >> 6; // 64-byte blocks.
    if (!Cache.access(B, T.IsWrite).L1Hit)
      Ref.push_back(FilteredRecord::make(B, T.IsWrite));
  });
  ASSERT_EQ(Compressed.size(), Ref.size());
  size_t I = 0;
  Compressed.forEachRecord([&](const FilteredRecord &R) {
    ASSERT_LT(I, Ref.size());
    EXPECT_TRUE(R == Ref[I]) << "record " << I;
    ++I;
  });
  EXPECT_EQ(I, Ref.size());
}

TEST(FilteredStreamRle, CapCompressesThenContinues) {
  ScopProgram P = timeSteppedProgram(/*Steps=*/16, /*Elems=*/4096);
  CacheConfig L1{1024, 4, 64, PolicyKind::Lru, WriteAllocate::Yes};
  FilteredStream Free = FilteredStream::record(P, L1);
  ASSERT_FALSE(Free.truncated());
  // A cap between the compressed and the expanded footprint: recording
  // must fold at the cap and finish, not truncate.
  uint64_t Cap = Free.storedRecords() * 3;
  ASSERT_LT(Cap, Free.size());
  FilteredStream Capped =
      FilteredStream::record(P, L1, SimOptions(), Cap);
  EXPECT_FALSE(Capped.truncated());
  EXPECT_LE(Capped.storedRecords(), Cap);
  EXPECT_EQ(Capped.size(), Free.size());
  // And the capped stream still answers exactly.
  CacheConfig L2{8192, 8, 64, PolicyKind::Fifo, WriteAllocate::Yes};
  HierarchyConfig H = HierarchyConfig::twoLevel(L1, L2);
  expectStatsMatchConcrete(P, H, Capped.replay(L2), "capped replay");
}

TEST(FilteredStreamRle, IncompressibleStreamStillTruncates) {
  // One sweep over a large array: every miss names a fresh block, so
  // the stream has no repetition at all and the cap must truncate.
  ScopBuilder B("onesweep");
  unsigned A = B.addArray("A", 8, {4096});
  B.beginLoop("i", B.cst(0), B.cst(4095));
  B.read(A, {B.iterAt(0)});
  B.endLoop();
  std::string Err;
  ScopProgram P = B.finish(&Err);
  ASSERT_EQ(Err, "");
  CacheConfig L1{128, 2, 64, PolicyKind::Lru, WriteAllocate::Yes};
  FilteredStream Free = FilteredStream::record(P, L1);
  ASSERT_FALSE(Free.compressed());
  ASSERT_EQ(Free.size(), 512u); // One miss per 64-byte block.
  FilteredStream Capped = FilteredStream::record(
      P, L1, SimOptions(), Free.storedRecords() / 2);
  EXPECT_TRUE(Capped.truncated());
  EXPECT_EQ(Capped.size(), 0u);
  EXPECT_EQ(Capped.storedRecords(), 0u);
}

//===----------------------------------------------------------------------===//
// The sweep driver's multi-level path
//===----------------------------------------------------------------------===//

/// The headline property: random programs x random NINE two-level
/// configs across all four L2 policies, every point bit-identical to an
/// independent full simulation and carrying filtered-stream provenance.
TEST(SweepFiltered, MatchesConcreteOnRandomNineGrids) {
  std::mt19937 Rng(20220613);
  for (int Trial = 0; Trial < 3; ++Trial) {
    ScopProgram P = generateProgram(Rng);
    std::vector<HierarchyConfig> Grid;
    for (PolicyKind L2Pol : AllPolicies)
      for (int N = 0; N < 2; ++N)
        Grid.push_back(randomTwoLevel(
            Rng, N == 0 ? PolicyKind::Lru : PolicyKind::Plru, L2Pol,
            InclusionPolicy::NonInclusiveNonExclusive));
    SweepOptions SO;
    SO.Threads = 2;
    SweepReport Rep = runSweep(P, Grid, SO);
    for (const SweepPoint &Pt : Rep.Points)
      EXPECT_EQ(Pt.Method, SweepMethod::FilteredStream) << Pt.Cache.str();
    expectSweepMatchesConcrete(P, Grid, SO);
  }
}

/// Grid points sharing an L1 share one recording, and the second stage
/// is visible in the provenance: conditioned banks for LRU
/// write-allocate L2s, concrete replays for the rest.
TEST(SweepFiltered, GroupsByL1WithAnalyticAndReplayProvenance) {
  std::mt19937 Rng(3);
  ScopProgram P = generateProgram(Rng);
  CacheConfig L1{1024, 4, 64, PolicyKind::Plru, WriteAllocate::Yes};
  CacheConfig L2Lru{8192, 8, 64, PolicyKind::Lru, WriteAllocate::Yes};
  CacheConfig L2Big = L2Lru;
  L2Big.SizeBytes = 16384;
  CacheConfig L2Qlru = L2Lru;
  L2Qlru.Policy = PolicyKind::QuadAgeLru;
  std::vector<HierarchyConfig> Grid = {
      HierarchyConfig::twoLevel(L1, L2Lru),
      HierarchyConfig::twoLevel(L1, L2Big),
      HierarchyConfig::twoLevel(L1, L2Qlru),
      HierarchyConfig::twoLevel(L1, L2Qlru), // Duplicate: must dedup.
  };
  SweepOptions SO;
  SweepReport Rep = runSweep(P, Grid, SO);
  ASSERT_TRUE(Rep.allOk());
  EXPECT_EQ(Rep.FilteredGroups, 1u); // One L1 -> one recording.
  EXPECT_EQ(Rep.FilteredPoints, 4u);
  EXPECT_EQ(Rep.StackDistancePoints, 0u);
  EXPECT_EQ(Rep.SimulatedJobs, 1u); // The deduplicated QLRU replay.
  EXPECT_EQ(Rep.ReplayJobs, 1u);
  EXPECT_EQ(Rep.DedupedPoints, 1u);
  for (const SweepPoint &Pt : Rep.Points)
    EXPECT_EQ(Pt.Method, SweepMethod::FilteredStream) << Pt.Cache.str();
  EXPECT_EQ(Rep.Points[0].Backend, SimBackend::StackDistance);
  EXPECT_EQ(Rep.Points[1].Backend, SimBackend::StackDistance);
  EXPECT_EQ(Rep.Points[2].Backend, SimBackend::Concrete);
  EXPECT_EQ(Rep.Points[3].Backend, SimBackend::Concrete);
  // The deduplicated twin reports the shared job's counters.
  EXPECT_EQ(Rep.Points[3].Stats.Level[1].Misses,
            Rep.Points[2].Stats.Level[1].Misses);
  expectSweepMatchesConcrete(P, Grid, SO);
}

/// Inclusive and exclusive hierarchies couple the L1 to the L2, so they
/// must fall back to full simulation -- with honest provenance -- and
/// still match.
TEST(SweepFiltered, InclusiveExclusiveFallBackToSimulation) {
  std::mt19937 Rng(99);
  ScopProgram P = generateProgram(Rng);
  std::vector<HierarchyConfig> Grid = {
      randomTwoLevel(Rng, PolicyKind::Lru, PolicyKind::Lru,
                     InclusionPolicy::Inclusive),
      randomTwoLevel(Rng, PolicyKind::Lru, PolicyKind::QuadAgeLru,
                     InclusionPolicy::Exclusive),
  };
  SweepOptions SO;
  SweepReport Rep = runSweep(P, Grid, SO);
  ASSERT_TRUE(Rep.allOk());
  EXPECT_EQ(Rep.FilteredPoints, 0u);
  for (const SweepPoint &Pt : Rep.Points) {
    EXPECT_EQ(Pt.Method, SweepMethod::Simulated) << Pt.Cache.str();
    EXPECT_EQ(Pt.Backend, SimBackend::Warping) << Pt.Cache.str();
  }
  // Warping and concrete agree (the equivalence suite's guarantee), so
  // the concrete cross-check stays valid for the fallback points.
  expectSweepMatchesConcrete(P, Grid, SO);
}

/// A recording that overruns the stream cap demotes its whole group to
/// plain simulation -- honest provenance, identical counters.
TEST(SweepFiltered, TruncatedRecordingFallsBackToSimulation) {
  std::mt19937 Rng(17);
  ScopProgram P = generateProgram(Rng);
  CacheConfig L1{512, 2, 64, PolicyKind::Lru, WriteAllocate::Yes};
  CacheConfig L2{4096, 4, 64, PolicyKind::QuadAgeLru, WriteAllocate::Yes};
  std::vector<HierarchyConfig> Grid = {
      HierarchyConfig::twoLevel(L1, L2),
      HierarchyConfig::twoLevel(L1, L2), // Duplicate: dedups as a job.
  };
  SweepOptions SO;
  SO.MaxFilteredRecords = 1; // Force truncation.
  SweepReport Rep = runSweep(P, Grid, SO);
  ASSERT_TRUE(Rep.allOk());
  EXPECT_EQ(Rep.FilteredGroups, 0u);
  EXPECT_EQ(Rep.FilteredPoints, 0u);
  EXPECT_EQ(Rep.ReplayJobs, 0u);
  EXPECT_EQ(Rep.SimulatedJobs, 1u);
  EXPECT_EQ(Rep.DedupedPoints, 1u);
  for (const SweepPoint &Pt : Rep.Points)
    EXPECT_EQ(Pt.Method, SweepMethod::Simulated) << Pt.Cache.str();
  expectSweepMatchesConcrete(P, Grid, SO);
}

/// Mixed grids keep every partition honest: single-level LRU points
/// stay on the shared pass, NINE two-level points go filtered, the rest
/// simulates.
/// Accesses below address zero have negative blocks, and a record's
/// word must still never read as a repeat marker: a folded, negative
/// miss stream feeds LRU-row and exact banks and replays through every
/// L2 policy, write-allocate or not, exactly as a two-level concrete
/// simulation -- directly and through the sweep.
TEST(SweepFiltered, NegativeAddressStreamsMatchConcrete) {
  ParseResult R = parseScop(R"(
    double A[16];
    for (t = 0; t < 8; t++)
      for (i = 0; i < 600; i++)
        A[i - 40000] = A[i - 40000] + A[2 * i - 30000];
  )");
  ASSERT_TRUE(R.ok()) << R.message();
  const ScopProgram &P = R.Program;
  std::vector<HierarchyConfig> Grid;
  for (PolicyKind L1Pol : {PolicyKind::Lru, PolicyKind::Plru}) {
    CacheConfig L1{1024, 2, 64, L1Pol, WriteAllocate::Yes};
    FilteredStream FS = FilteredStream::record(P, L1);
    ASSERT_TRUE(FS.compressed()) << L1.str();
    FS.forEachRecord([](const FilteredRecord &Rec) {
      ASSERT_FALSE(Rec.isRepeat());
      ASSERT_LT(Rec.block(), 0);
    });
    for (PolicyKind L2Pol : AllPolicies)
      for (WriteAllocate L2Alloc : {WriteAllocate::Yes, WriteAllocate::No}) {
        CacheConfig L2{8192, 8, 64, L2Pol, L2Alloc};
        HierarchyConfig H = HierarchyConfig::twoLevel(L1, L2);
        expectStatsMatchConcrete(P, H, FS.replay(L2), "replay");
        Grid.push_back(H);
      }
    for (unsigned Assoc : {8u, 96u}) {
      CacheConfig L2{uint64_t(Assoc) * 16 * 64, Assoc, 64, PolicyKind::Lru,
                     WriteAllocate::Yes};
      SetDistanceBank Bank(64, 16, Assoc);
      FS.feed(Bank);
      ConcreteSimulator Sim(P, HierarchyConfig::twoLevel(L1, L2));
      EXPECT_EQ(Bank.missesForCache(L2), Sim.run().Level[1].Misses)
          << L2.str();
      Grid.push_back(HierarchyConfig::twoLevel(L1, L2));
    }
  }
  SweepOptions SO;
  SO.Threads = 2;
  expectSweepMatchesConcrete(P, Grid, SO);
}

TEST(SweepFiltered, MixedGridPartitions) {
  std::mt19937 Rng(23);
  ScopProgram P = generateProgram(Rng);
  CacheConfig L1{1024, 4, 64, PolicyKind::Lru, WriteAllocate::Yes};
  CacheConfig L2{8192, 8, 64, PolicyKind::Lru, WriteAllocate::Yes};
  CacheConfig Fifo = L1;
  Fifo.Policy = PolicyKind::Fifo;
  std::vector<HierarchyConfig> Grid = {
      HierarchyConfig::singleLevel(L1),
      HierarchyConfig::twoLevel(L1, L2),
      HierarchyConfig::twoLevel(L1, L2, InclusionPolicy::Inclusive),
      HierarchyConfig::singleLevel(Fifo),
  };
  SweepOptions SO;
  SweepReport Rep = runSweep(P, Grid, SO);
  ASSERT_TRUE(Rep.allOk());
  EXPECT_EQ(Rep.Points[0].Method, SweepMethod::StackDistance);
  EXPECT_EQ(Rep.Points[1].Method, SweepMethod::FilteredStream);
  EXPECT_EQ(Rep.Points[2].Method, SweepMethod::Simulated);
  EXPECT_EQ(Rep.Points[3].Method, SweepMethod::Simulated);
  expectSweepMatchesConcrete(P, Grid, SO);
}

/// wcs-sweep documents round-trip the new provenance exactly.
TEST(SweepFiltered, DocRoundTripsFilteredProvenance) {
  std::mt19937 Rng(5);
  ScopProgram P = generateProgram(Rng);
  CacheConfig L1{1024, 4, 64, PolicyKind::Lru, WriteAllocate::Yes};
  CacheConfig L2Lru{4096, 4, 64, PolicyKind::Lru, WriteAllocate::Yes};
  CacheConfig L2Fifo = L2Lru;
  L2Fifo.Policy = PolicyKind::Fifo;
  std::vector<HierarchyConfig> Grid = {
      HierarchyConfig::twoLevel(L1, L2Lru),
      HierarchyConfig::twoLevel(L1, L2Fifo),
  };
  SweepOptions SO;
  SweepReport Rep = runSweep(P, Grid, SO);
  ASSERT_TRUE(Rep.allOk());
  Rep.Tool = "wcs-sim";
  Rep.Program = "random";
  Rep.SizeName = "SMALL";

  std::string Text = toJson(Rep).dump();
  json::Value Parsed;
  std::string Err;
  ASSERT_TRUE(json::parse(Text, Parsed, &Err)) << Err;
  SweepReport Back;
  ASSERT_TRUE(fromJson(Parsed, Back, &Err)) << Err;

  EXPECT_EQ(Back.FilteredGroups, 1u);
  EXPECT_EQ(Back.FilteredRecords, Rep.FilteredRecords);
  ASSERT_EQ(Back.Points.size(), 2u);
  EXPECT_EQ(Back.Points[0].Method, SweepMethod::FilteredStream);
  EXPECT_EQ(Back.Points[0].Backend, SimBackend::StackDistance);
  EXPECT_EQ(Back.Points[1].Method, SweepMethod::FilteredStream);
  EXPECT_EQ(Back.Points[1].Backend, SimBackend::Concrete);
  EXPECT_EQ(toJson(Back).dump(), Text);
}

/// The filtered-stream figures joined the v1 schema after its first
/// release: a pre-engine v1 document (no filtered_groups /
/// filtered_records / record_seconds) must still parse, with the
/// figures defaulting to zero.
TEST(SweepFiltered, ReadsPreEngineV1Documents) {
  json::Value V = json::Value::object();
  V.set("schema", SweepSchemaName);
  V.set("schema_version", SweepSchemaVersion);
  V.set("tool", "wcs-sim");
  V.set("program", "gemm");
  V.set("size", "MINI");
  V.set("threads", 1u);
  V.set("trace_pass_seconds", 0.5);
  V.set("trace_accesses", static_cast<uint64_t>(100));
  V.set("simulated_jobs", static_cast<uint64_t>(0));
  V.set("deduped_points", static_cast<uint64_t>(0));
  V.set("points", json::Value::array());
  SweepReport Out;
  Out.FilteredGroups = 7; // Must be reset, not left stale.
  std::string Err;
  ASSERT_TRUE(fromJson(V, Out, &Err)) << Err;
  EXPECT_EQ(Out.FilteredGroups, 0u);
  EXPECT_EQ(Out.FilteredRecords, 0u);
  EXPECT_EQ(Out.RecordSeconds, 0.0);
  EXPECT_EQ(Out.Program, "gemm");
  // The periodic-pass figures joined v1 even later; they too default.
  EXPECT_FALSE(Out.PeriodicPass);
  EXPECT_EQ(Out.PeriodicPassSeconds, 0.0);
  EXPECT_EQ(Out.PeriodicWarps, 0u);
  EXPECT_EQ(Out.FilteredStoredRecords, 0u);
  EXPECT_TRUE(Out.DemotedL1s.empty());

  // Present but mistyped still fails loudly.
  V.set("filtered_groups", "three");
  EXPECT_FALSE(fromJson(V, Out, &Err));
  EXPECT_NE(Err.find("filtered_groups"), std::string::npos);
}

} // namespace
