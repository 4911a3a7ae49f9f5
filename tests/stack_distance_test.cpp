//===- tests/stack_distance_test.cpp - Stack-distance cross-checks --------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
// Validates the stack-distance banks (the HayStack-style LRU model)
// against ground truth from two directions: hand-computed distances on
// tiny traces, and seeded property tests cross-checking the derived LRU
// miss counts against ConcreteSimulator over randomized programs and
// associativities. The fully associative profile is a one-set bank, and
// the banks are checked in both of their representations (LRU rows up
// to 64 ways, exact trackers beyond).
//
//===----------------------------------------------------------------------===//

#include "RandomProgram.h"
#include "wcs/scop/Builder.h"
#include "wcs/sim/ConcreteSimulator.h"
#include "wcs/trace/StackDistance.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <numeric>
#include <random>
#include <string>

using namespace wcs;
using testutil::generateProgram;

namespace {

/// A bank width that keeps the exact per-set trackers.
constexpr unsigned Exact = SetDistanceBank::MaxRowAssoc + 1;

/// The widths of the one-set banks the fully associative checks run on:
/// the widest LRU rows and an unbounded exact tracker.
constexpr unsigned OneSetWidths[] = {SetDistanceBank::MaxRowAssoc, UINT_MAX};

TEST(StackDistance, HandComputedTinyTrace) {
  // Block trace a b c a c b:
  //   a,b,c cold; then a at distance 2, c at distance 1, b at distance 2.
  for (unsigned Width : OneSetWidths) {
    SCOPED_TRACE("width " + std::to_string(Width));
    SetDistanceBank Prof(64, 1, Width);
    for (BlockId Block : {0, 1, 2, 0, 2, 1})
      Prof.accessBlock(Block);

    EXPECT_EQ(Prof.totalAccesses(), 6u);
    EXPECT_EQ(Prof.alwaysMisses(), 3u);
    ASSERT_GE(Prof.histogram().size(), 3u);
    EXPECT_EQ(Prof.histogram()[0], 0u);
    EXPECT_EQ(Prof.histogram()[1], 1u);
    EXPECT_EQ(Prof.histogram()[2], 2u);

    // 1 line: only the repeat at distance 0 would hit; everything misses.
    EXPECT_EQ(Prof.missesForAssoc(1), 6u);
    // 2 lines: the distance-1 access hits.
    EXPECT_EQ(Prof.missesForAssoc(2), 5u);
    // 3+ lines: only the colds miss.
    EXPECT_EQ(Prof.missesForAssoc(3), 3u);
    EXPECT_EQ(Prof.missesForAssoc(64), 3u);
  }
}

TEST(StackDistance, SameBlockHitsAtAnyCapacity) {
  // Five 8-byte elements, all within one 64-byte block.
  ScopBuilder B("same-block");
  unsigned A = B.addArray("A", 8, {5});
  B.beginLoop("i", B.cst(0), B.cst(4));
  B.read(A, {B.iterAt(0)});
  B.endLoop();
  std::string Err;
  ScopProgram P = B.finish(&Err);
  ASSERT_EQ(Err, "");
  for (unsigned Width : OneSetWidths) {
    SetDistanceBank Prof = profileProgramSets(P, 64, 1, Width);
    EXPECT_EQ(Prof.totalAccesses(), 5u);
    EXPECT_EQ(Prof.alwaysMisses(), 1u) << Width;
    EXPECT_EQ(Prof.missesForAssoc(1), 1u) << Width;
  }
}

TEST(StackDistance, HistogramAccountsForEveryAccess) {
  std::mt19937 Rng(2022);
  ScopProgram P = generateProgram(Rng);
  SetDistanceBank Prof =
      profileProgramSets(P, 64, 1, UINT_MAX, /*IncludeScalars=*/false);
  uint64_t Finite = std::accumulate(Prof.histogram().begin(),
                                    Prof.histogram().end(), uint64_t{0});
  EXPECT_EQ(Finite + Prof.alwaysMisses(), Prof.totalAccesses());
}

TEST(StackDistance, PeriodCaptureAndBulkUpdateMatchLinearWalk) {
  // Stream: prefix, then period P repeated 5 times, then a suffix that
  // re-touches both periodic and pre-periodic blocks. The bulk-updated
  // bank walks P only twice (the second under capture) and applies the
  // other three repetitions analytically; it must agree with the
  // linearly walked exact twin at every associativity it answers,
  // including on the suffix distances (the walked state stays
  // equivalent).
  const std::vector<BlockId> Prefix = {0, 1, 2};
  const std::vector<BlockId> Period = {3, 4, 5, 3, 6};
  const std::vector<BlockId> Suffix = {1, 4, 0, 6};
  const uint64_t Reps = 5;
  auto Walk = [](SetDistanceBank &B, const std::vector<BlockId> &Seq) {
    for (BlockId Blk : Seq)
      B.accessBlock(Blk);
  };
  SetDistanceBank Linear(64, 2, Exact);
  Walk(Linear, Prefix);
  for (uint64_t R = 0; R < Reps; ++R)
    Walk(Linear, Period);
  Walk(Linear, Suffix);

  for (unsigned Width : {16u, Exact}) {
    SCOPED_TRACE("width " + std::to_string(Width));
    SetDistanceBank Bulk(64, 2, Width);
    Walk(Bulk, Prefix);
    unsigned Walks = 0;
    Bulk.accessRepeated(Reps, [&] {
      ++Walks;
      Walk(Bulk, Period);
    });
    EXPECT_EQ(Walks, 2u) << "an identical repetition must verify";
    Walk(Bulk, Suffix);

    EXPECT_EQ(Bulk.totalAccesses(), Linear.totalAccesses());
    if (Width == Exact) {
      EXPECT_EQ(Bulk.histogram(), Linear.histogram());
      EXPECT_EQ(Bulk.alwaysMisses(), Linear.alwaysMisses());
    }
    for (uint64_t Assoc = 1; Assoc <= 16; ++Assoc)
      EXPECT_EQ(Bulk.missesForAssoc(Assoc), Linear.missesForAssoc(Assoc))
          << "assoc " << Assoc;
  }
}

TEST(StackDistance, OverflowingBulkUpdateIsRejectedAtomically) {
  // Adversarial repetition counts: any scaled accumulation that would
  // overflow uint64 must be rejected with the bank left bit-identical,
  // so the caller can demote to walking the repetitions (the path of a
  // capture that fails verification). Pre-fix this silently wrapped and
  // produced garbage miss counts.
  SetDistanceBank Bank(64, 1, Exact);
  for (BlockId B : {0, 1, 2, 0, 2, 1})
    Bank.accessBlock(B);
  DistanceHistogram Seed;
  Seed.Hist = {5, 1};
  Seed.Beyond = 2;
  Seed.Accesses = 8;
  ASSERT_TRUE(Bank.addPeriodicContribution(Seed, 3));
  const uint64_t Total = Bank.totalAccesses();
  const uint64_t M1 = Bank.missesForAssoc(1);
  const uint64_t M2 = Bank.missesForAssoc(2);
  const std::vector<uint64_t> Hist = Bank.histogram();
  const uint64_t Always = Bank.alwaysMisses();

  // Histogram scaling overflows: 3 * (2^64 / 2) > 2^64 - 1.
  DistanceHistogram H;
  H.Hist = {0, 3};
  H.Accesses = 3;
  EXPECT_FALSE(Bank.addPeriodicContribution(H, UINT64_MAX / 2));

  // Later checks overflow after earlier ones pass: the histogram column
  // scales fine (1 * 2), the access total does not. The bank must not
  // keep the partially validated histogram bump.
  DistanceHistogram Tail;
  Tail.Hist = {1};
  Tail.Accesses = UINT64_MAX;
  EXPECT_FALSE(Bank.addPeriodicContribution(Tail, 2));

  // Always-miss scaling overflows (Beyond * Reps).
  DistanceHistogram Far;
  Far.Beyond = UINT64_MAX / 2;
  Far.Accesses = 1;
  EXPECT_FALSE(Bank.addPeriodicContribution(Far, 3));

  EXPECT_EQ(Bank.totalAccesses(), Total);
  EXPECT_EQ(Bank.missesForAssoc(1), M1);
  EXPECT_EQ(Bank.missesForAssoc(2), M2);
  EXPECT_EQ(Bank.histogram(), Hist);
  EXPECT_EQ(Bank.alwaysMisses(), Always);

  // The rejected fragment still enters fine at a sane repetition count
  // and lands exactly where an untouched bank would put it.
  ASSERT_TRUE(Bank.addPeriodicContribution(H, 4));
  EXPECT_EQ(Bank.totalAccesses(), Total + 12);
  EXPECT_EQ(Bank.missesForAssoc(1), M1 + 12);
  EXPECT_EQ(Bank.missesForAssoc(2), M2);
}

TEST(StackDistance, RowCaptureVerifiesRowsNotColdness) {
  // A 2-way bank over the period {0, 1, 2}: every access misses (at
  // distance 2), which LRU rows cannot tell from a cold miss --
  // but its rows map onto themselves across a repetition, so the
  // capture verifies and the bulk update stays exact.
  SetDistanceBank Bank(64, 1, 2), Linear(64, 1, Exact);
  const std::vector<BlockId> Period = {0, 1, 2};
  const uint64_t Reps = 6;
  for (uint64_t R = 0; R < Reps; ++R)
    for (BlockId B : Period)
      Linear.accessBlock(B);
  unsigned Walks = 0;
  Bank.accessRepeated(Reps, [&] {
    ++Walks;
    for (BlockId B : Period)
      Bank.accessBlock(B);
  });
  EXPECT_EQ(Walks, 2u);
  EXPECT_EQ(Bank.totalAccesses(), Linear.totalAccesses());
  for (uint64_t Assoc : {1u, 2u})
    EXPECT_EQ(Bank.missesForAssoc(Assoc), Linear.missesForAssoc(Assoc));
}

TEST(StackDistance, UnverifiedCaptureFallsBackToWalking) {
  // accessRepeated is how FilteredStream::feed consumes a repeated
  // segment. Feed it "repetitions" that each touch one new block: the
  // exact bank sees a cold access in the captured one, the row bank sees
  // its rows change. Both reject the capture, walk every
  // repetition, and still match the exact bank walked access by access.
  const uint64_t Reps = 5;
  SetDistanceBank Linear(64, 4, Exact);
  for (uint64_t R = 0; R < Reps; ++R)
    for (BlockId B : {BlockId{1}, BlockId{2}, BlockId{3},
                      static_cast<BlockId>(10 + R)})
      Linear.accessBlock(B);
  for (unsigned Width : {1u, 3u, 16u, Exact}) {
    SCOPED_TRACE("width " + std::to_string(Width));
    SetDistanceBank Bank(64, 4, Width);
    BlockId Fresh = 10;
    Bank.accessRepeated(Reps, [&] {
      for (BlockId B : {BlockId{1}, BlockId{2}, BlockId{3}, Fresh++})
        Bank.accessBlock(B);
    });
    EXPECT_EQ(Fresh, static_cast<BlockId>(10 + Reps)) << "walked them all";
    EXPECT_EQ(Bank.totalAccesses(), Linear.totalAccesses());
    for (uint64_t Assoc = 1; Assoc <= std::min(Width, 16u); ++Assoc)
      EXPECT_EQ(Bank.missesForAssoc(Assoc), Linear.missesForAssoc(Assoc))
          << "assoc " << Assoc;
  }
}

TEST(StackDistance, BankAnswersWithinItsWidth) {
  // A bank refuses points wider than its construction width, and keeps
  // answering within that width after bulk updates.
  CacheConfig Within{4 * 64, 4, 64, PolicyKind::Lru, WriteAllocate::Yes};
  CacheConfig Beyond{8 * 64, 8, 64, PolicyKind::Lru, WriteAllocate::Yes};
  for (unsigned Width : {4u, Exact}) {
    SCOPED_TRACE("width " + std::to_string(Width));
    SetDistanceBank Bank(64, 1, Width);
    EXPECT_EQ(Bank.maxAssoc(), Width);
    EXPECT_TRUE(Bank.matches(Within));
    EXPECT_EQ(Bank.matches(Beyond), Width >= 8);
    DistanceHistogram H;
    H.Hist = {4, 2};
    H.Beyond = 3;
    H.Accesses = 9;
    ASSERT_TRUE(Bank.addPeriodicContribution(H, 2));
    ASSERT_TRUE(Bank.addPeriodicContribution(H, 1));
    EXPECT_EQ(Bank.maxAssoc(), Width);
    EXPECT_EQ(Bank.totalAccesses(), 27u);
    EXPECT_EQ(Bank.alwaysMisses(), 9u);
    // missesForAssoc(1) = (2 + 3) * 3; missesForAssoc(2+) = 3 * 3.
    EXPECT_EQ(Bank.missesForAssoc(1), 15u);
    EXPECT_EQ(Bank.missesForAssoc(2), 9u);
    EXPECT_EQ(Bank.missesForAssoc(4), 9u);
    EXPECT_EQ(Bank.missesForCache(Within), 9u);
    EXPECT_TRUE(Bank.matches(Within));
    EXPECT_EQ(Bank.matches(Beyond), Width >= 8);
  }
}

TEST(StackDistance, SixtyFourWaysKeepRowsAndSixtyFiveAreExact) {
  SetDistanceBank Rows(64, 4, 64), Fenwick(64, 4, 65);
  for (const SetDistanceBank *B : {&Rows, &Fenwick}) {
    EXPECT_EQ(B->numSets(), 4u);
    EXPECT_EQ(B->blockBytes(), 64u);
  }
  CacheConfig Ways64{4 * 64 * 64, 64, 64, PolicyKind::Lru,
                     WriteAllocate::Yes};
  CacheConfig Ways65{4 * 65 * 64, 65, 64, PolicyKind::Lru,
                     WriteAllocate::Yes};
  CacheConfig Ways128{4 * 128 * 64, 128, 64, PolicyKind::Lru,
                      WriteAllocate::Yes};
  // The rows are a 64-way LRU cache: a hit's way indexes the histogram.
  EXPECT_EQ(Rows.histogram().size(), 64u);
  EXPECT_TRUE(Rows.matches(Ways64));
  EXPECT_FALSE(Rows.matches(Ways65));
  EXPECT_FALSE(Rows.matches(Ways128));
  // The exact trackers grow the histogram on demand, up to the width.
  EXPECT_TRUE(Fenwick.histogram().empty());
  EXPECT_TRUE(Fenwick.matches(Ways64));
  EXPECT_TRUE(Fenwick.matches(Ways65));
  EXPECT_FALSE(Fenwick.matches(Ways128));
}

/// The two representations against each other and against concrete
/// simulation: on random programs, a bank of every width answers every
/// associativity up to that width exactly like the exact bank and like
/// ConcreteSimulator on the same geometry.
TEST(StackDistance, RowsEqualExactEqualsConcrete) {
  std::mt19937 Rng(1515);
  for (int Trial = 0; Trial < 4; ++Trial) {
    ScopProgram P = generateProgram(Rng);
    for (unsigned Sets : {1u, 4u, 64u}) {
      SetDistanceBank ExactBank = profileProgramSets(P, 64, Sets, Exact);
      std::vector<uint64_t> Concrete(SetDistanceBank::MaxRowAssoc + 1);
      for (unsigned Assoc = 1; Assoc < Concrete.size(); ++Assoc) {
        CacheConfig C{static_cast<uint64_t>(Sets) * Assoc * 64, Assoc, 64,
                      PolicyKind::Lru, WriteAllocate::Yes};
        ConcreteSimulator Sim(P, HierarchyConfig::singleLevel(C));
        Concrete[Assoc] = Sim.run().Level[0].Misses;
      }
      for (unsigned Width : {1u, 3u, 16u, 64u}) {
        SetDistanceBank Bank = profileProgramSets(P, 64, Sets, Width);
        ASSERT_EQ(Bank.totalAccesses(), ExactBank.totalAccesses());
        for (unsigned Assoc = 1; Assoc <= Width; ++Assoc) {
          EXPECT_EQ(Bank.missesForAssoc(Assoc),
                    ExactBank.missesForAssoc(Assoc))
              << "trial " << Trial << " sets " << Sets << " width "
              << Width << " assoc " << Assoc;
          EXPECT_EQ(ExactBank.missesForAssoc(Assoc), Concrete[Assoc])
              << "trial " << Trial << " sets " << Sets << " assoc "
              << Assoc << "\n"
              << P.str();
        }
      }
    }
  }
}

TEST(StackDistance, MissesMonotoneInAssociativity) {
  std::mt19937 Rng(31337);
  ScopProgram P = generateProgram(Rng);
  for (unsigned Width : OneSetWidths) {
    SetDistanceBank Prof = profileProgramSets(P, 64, 1, Width, false);
    for (uint64_t A = 1; A < 64; ++A)
      EXPECT_GE(Prof.missesForAssoc(A), Prof.missesForAssoc(A + 1))
          << A << " of " << Width;
  }
}

/// The fully associative profile's derived miss count must equal
/// concrete simulation of a fully-associative LRU cache, access for
/// access (Mattson's inclusion property made executable).
TEST(StackDistance, MatchesConcreteFullyAssociativeLru) {
  std::mt19937 Rng(424242);
  for (int Trial = 0; Trial < 10; ++Trial) {
    ScopProgram P = generateProgram(Rng);
    for (unsigned Width : OneSetWidths) {
      SetDistanceBank Prof = profileProgramSets(P, 64, 1, Width, false);
      for (unsigned Lines : {1u, 2u, 4u, 8u, 32u}) {
        CacheConfig C;
        C.BlockBytes = 64;
        C.Assoc = Lines; // One set: fully associative.
        C.SizeBytes = static_cast<uint64_t>(Lines) * 64;
        C.Policy = PolicyKind::Lru;
        ASSERT_EQ(C.validate(), "");

        ConcreteSimulator Sim(P, HierarchyConfig::singleLevel(C));
        SimStats S = Sim.run();
        ASSERT_EQ(S.totalAccesses(), Prof.totalAccesses())
            << "trial " << Trial << " lines " << Lines;
        EXPECT_EQ(Prof.missesForCache(C), S.Level[0].Misses)
            << "trial " << Trial << " width " << Width << " lines "
            << Lines << "\n"
            << P.str();
      }
    }
  }
}

/// Same cross-check at a different block size.
TEST(StackDistance, MatchesConcreteAtSmallBlockSize) {
  std::mt19937 Rng(55);
  ScopProgram P = generateProgram(Rng);
  for (unsigned Width : OneSetWidths) {
    SetDistanceBank Prof = profileProgramSets(P, 16, 1, Width, false);
    for (unsigned Lines : {2u, 8u}) {
      CacheConfig C;
      C.BlockBytes = 16;
      C.Assoc = Lines;
      C.SizeBytes = static_cast<uint64_t>(Lines) * 16;
      C.Policy = PolicyKind::Lru;
      ConcreteSimulator Sim(P, HierarchyConfig::singleLevel(C));
      EXPECT_EQ(Prof.missesForCache(C), Sim.run().Level[0].Misses)
          << Lines << " of " << Width;
    }
  }
}

} // namespace
