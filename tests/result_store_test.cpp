//===- tests/result_store_test.cpp - wcs-serve result store tests ---------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// The content-addressed result store behind wcs-serve: hit/miss
// accounting, last-insert-wins persistence, torn-tail recovery from a
// truncated log, compaction (dedup + oldest-first eviction), and the
// property that a stored point read back -- in-process or across a
// reopen -- is byte-identical to what a fresh simulation produced.
//
//===----------------------------------------------------------------------===//

#include "wcs/serve/ResultStore.h"

#include "RandomProgram.h"
#include "wcs/support/Hashing.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>

#include <unistd.h>

using namespace wcs;

namespace {

/// A unique scratch path, removed on destruction.
class TempFile {
public:
  explicit TempFile(const char *Tag) {
    std::ostringstream OS;
    OS << ::testing::TempDir() << "wcs-store-" << Tag << "-" << ::getpid()
       << ".jsonl";
    P = OS.str();
    std::remove(P.c_str());
  }
  ~TempFile() { std::remove(P.c_str()); }
  const std::string &path() const { return P; }

private:
  std::string P;
};

SweepPoint makePoint(uint64_t Accesses, uint64_t Misses) {
  SweepPoint P;
  CacheConfig C{4096, 8, 64, PolicyKind::Lru, WriteAllocate::Yes};
  P.Cache = HierarchyConfig::singleLevel(C);
  P.Method = SweepMethod::StackDistance;
  P.Ok = true;
  P.Stats.NumLevels = 1;
  P.Stats.Level[0].Accesses = Accesses;
  P.Stats.Level[0].Misses = Misses;
  P.Stats.Seconds = 0.125;
  return P;
}

std::string dumpPoint(const SweepPoint &P) { return toJson(P).dump(false); }

std::string readAll(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream OS;
  OS << In.rdbuf();
  return OS.str();
}

size_t countLines(const std::string &Path) {
  std::string S = readAll(Path);
  size_t N = 0;
  for (char C : S)
    if (C == '\n')
      ++N;
  return N;
}

TEST(ResultStore, InMemoryHitMissAccounting) {
  ResultStore S;
  std::string Err;
  ASSERT_TRUE(S.open("", &Err)) << Err;

  SweepPoint Out;
  EXPECT_FALSE(S.lookup("k1", Out));
  EXPECT_EQ(S.misses(), 1u);
  EXPECT_EQ(S.hits(), 0u);

  SweepPoint P = makePoint(1000, 77);
  ASSERT_TRUE(S.insert("k1", P, &Err)) << Err;
  EXPECT_EQ(S.numEntries(), 1u);
  ASSERT_TRUE(S.lookup("k1", Out));
  EXPECT_EQ(S.hits(), 1u);
  // The hit is the inserted point, verbatim.
  EXPECT_EQ(dumpPoint(Out), dumpPoint(P));
}

TEST(ResultStore, LastInsertWins) {
  ResultStore S;
  std::string Err;
  ASSERT_TRUE(S.open("", &Err)) << Err;
  ASSERT_TRUE(S.insert("k", makePoint(10, 1), &Err));
  ASSERT_TRUE(S.insert("k", makePoint(20, 2), &Err));
  EXPECT_EQ(S.numEntries(), 1u);
  SweepPoint Out;
  ASSERT_TRUE(S.lookup("k", Out));
  EXPECT_EQ(Out.Stats.Level[0].Accesses, 20u);
}

TEST(ResultStore, PersistsAcrossReopen) {
  TempFile F("reopen");
  std::string Err;
  SweepPoint P1 = makePoint(100, 9), P2 = makePoint(200, 18);
  {
    ResultStore S;
    ASSERT_TRUE(S.open(F.path(), &Err)) << Err;
    ASSERT_TRUE(S.insert("k1", P1, &Err));
    ASSERT_TRUE(S.insert("k2", P2, &Err));
  }
  ResultStore S;
  ASSERT_TRUE(S.open(F.path(), &Err)) << Err;
  EXPECT_EQ(S.recoveredBytes(), 0u); // Clean log, nothing dropped.
  EXPECT_EQ(S.numEntries(), 2u);
  SweepPoint Out;
  ASSERT_TRUE(S.lookup("k1", Out));
  EXPECT_EQ(dumpPoint(Out), dumpPoint(P1));
  ASSERT_TRUE(S.lookup("k2", Out));
  EXPECT_EQ(dumpPoint(Out), dumpPoint(P2));
}

TEST(ResultStore, CountsAboveInt64AreBitIdentical) {
  // A count in [2^63, 2^64) survives an insert, a reopen and a lookup
  // exactly: a store hit must equal the fresh run, low digits included.
  TempFile F("uint64");
  std::string Err;
  SweepPoint P = makePoint(13835058055282163712ull, 1); // 3 * 2^62
  P.Stats.SimulatedAccesses = P.Stats.Level[0].Accesses;
  {
    ResultStore S;
    ASSERT_TRUE(S.open(F.path(), &Err)) << Err;
    ASSERT_TRUE(S.insert("big", P, &Err)) << Err;
    SweepPoint Out;
    ASSERT_TRUE(S.lookup("big", Out));
    EXPECT_EQ(Out.Stats.Level[0].Accesses, 13835058055282163712ull);
  }
  ResultStore S;
  ASSERT_TRUE(S.open(F.path(), &Err)) << Err;
  SweepPoint Out;
  ASSERT_TRUE(S.lookup("big", Out));
  EXPECT_EQ(Out.Stats.Level[0].Accesses, 13835058055282163712ull);
  EXPECT_EQ(Out.Stats.SimulatedAccesses, 13835058055282163712ull);
  EXPECT_EQ(dumpPoint(Out), dumpPoint(P));
}

TEST(ResultStore, StoreLineIsSelfChecking) {
  std::string Line = resultStoreLine("some-key", makePoint(5, 1));
  std::string Err;
  json::Value V;
  ASSERT_TRUE(json::parse(Line, V, &Err)) << Err;
  const json::Value *Hash = V.find("hash");
  const json::Value *Key = V.find("key");
  ASSERT_NE(Hash, nullptr);
  ASSERT_NE(Key, nullptr);
  EXPECT_EQ(Hash->asString(), hashHex(hashString("some-key")));
  EXPECT_NE(V.find("point"), nullptr);
  // One line, newline-free: the log frames entries with '\n'.
  EXPECT_EQ(Line.find('\n'), std::string::npos);
}

TEST(ResultStore, TornTailIsTruncatedAndRecovered) {
  TempFile F("torn");
  std::string Err;
  {
    ResultStore S;
    ASSERT_TRUE(S.open(F.path(), &Err)) << Err;
    ASSERT_TRUE(S.insert("k1", makePoint(100, 9), &Err));
    ASSERT_TRUE(S.insert("k2", makePoint(200, 18), &Err));
  }
  // A writer crashed mid-insert: the final line is a prefix with no
  // trailing newline.
  std::string GoodBytes = readAll(F.path());
  {
    std::ofstream Out(F.path(), std::ios::binary | std::ios::app);
    Out << R"({"hash":"0000000000000000","key":"k3","poi)";
  }

  ResultStore S;
  ASSERT_TRUE(S.open(F.path(), &Err)) << Err; // Recovery is not an error.
  EXPECT_GT(S.recoveredBytes(), 0u);
  EXPECT_EQ(S.numEntries(), 2u); // Everything before the tear survives.
  SweepPoint Out;
  EXPECT_TRUE(S.lookup("k1", Out));
  EXPECT_TRUE(S.lookup("k2", Out));

  // Recovery truncated the file back to the good bytes, so the NEXT
  // open is clean -- and the store stays appendable.
  EXPECT_EQ(readAll(F.path()), GoodBytes);
  ASSERT_TRUE(S.insert("k3", makePoint(300, 27), &Err));
  ResultStore S2;
  ASSERT_TRUE(S2.open(F.path(), &Err)) << Err;
  EXPECT_EQ(S2.recoveredBytes(), 0u);
  EXPECT_EQ(S2.numEntries(), 3u);
}

TEST(ResultStore, CorruptLineDropsItAndEverythingAfter) {
  TempFile F("corrupt");
  std::string Err;
  {
    ResultStore S;
    ASSERT_TRUE(S.open(F.path(), &Err)) << Err;
    ASSERT_TRUE(S.insert("k1", makePoint(1, 0), &Err));
    ASSERT_TRUE(S.insert("k2", makePoint(2, 0), &Err));
    ASSERT_TRUE(S.insert("k3", makePoint(3, 0), &Err));
  }
  // Flip one hash digit of the second line: it no longer self-checks.
  std::string Bytes = readAll(F.path());
  size_t SecondLine = Bytes.find('\n') + 1;
  size_t HashDigit = Bytes.find(R"("hash":")", SecondLine) + 8;
  Bytes[HashDigit] = Bytes[HashDigit] == 'f' ? '0' : 'f';
  {
    std::ofstream Out(F.path(), std::ios::binary | std::ios::trunc);
    Out << Bytes;
  }

  ResultStore S;
  ASSERT_TRUE(S.open(F.path(), &Err)) << Err;
  EXPECT_GT(S.recoveredBytes(), 0u);
  // Truncation at the first bad byte: k1 survives, k2 and k3 do not --
  // the log is a sequential journal, not a skip list.
  EXPECT_EQ(S.numEntries(), 1u);
  SweepPoint Out;
  EXPECT_TRUE(S.lookup("k1", Out));
}

TEST(ResultStore, CompactionDropsSupersededLines) {
  TempFile F("compact");
  std::string Err;
  ResultStore S;
  ASSERT_TRUE(S.open(F.path(), &Err)) << Err;
  ASSERT_TRUE(S.insert("k1", makePoint(10, 1), &Err));
  ASSERT_TRUE(S.insert("k1", makePoint(11, 1), &Err)); // Supersedes.
  ASSERT_TRUE(S.insert("k2", makePoint(20, 2), &Err));
  EXPECT_EQ(countLines(F.path()), 3u); // Append-only until compaction.

  ASSERT_TRUE(S.compact(0, &Err)) << Err;
  EXPECT_EQ(countLines(F.path()), 2u);
  EXPECT_EQ(S.numEntries(), 2u);

  ResultStore S2;
  ASSERT_TRUE(S2.open(F.path(), &Err)) << Err;
  EXPECT_EQ(S2.numEntries(), 2u);
  SweepPoint Out;
  ASSERT_TRUE(S2.lookup("k1", Out));
  EXPECT_EQ(Out.Stats.Level[0].Accesses, 11u); // The superseding insert.
}

TEST(ResultStore, CompactionEvictsOldestBeyondCap) {
  TempFile F("evict");
  std::string Err;
  ResultStore S;
  ASSERT_TRUE(S.open(F.path(), &Err)) << Err;
  for (int I = 1; I <= 4; ++I)
    ASSERT_TRUE(
        S.insert("k" + std::to_string(I), makePoint(10 * I, I), &Err));

  ASSERT_TRUE(S.compact(2, &Err)) << Err;
  EXPECT_EQ(S.numEntries(), 2u);
  SweepPoint Out;
  EXPECT_FALSE(S.lookup("k1", Out)); // Oldest two evicted...
  EXPECT_FALSE(S.lookup("k2", Out));
  EXPECT_TRUE(S.lookup("k3", Out)); // ...newest two kept.
  EXPECT_TRUE(S.lookup("k4", Out));

  ResultStore S2;
  ASSERT_TRUE(S2.open(F.path(), &Err)) << Err;
  EXPECT_EQ(S2.numEntries(), 2u);
}

// The load-bearing property: for random programs x random hierarchy
// configs, a point served from the store -- including across a
// close/reopen of the log -- is byte-identical to the freshly simulated
// result. Counters must match a re-simulation exactly (the sweep driver
// is deterministic); the stored bytes must match the inserted point
// INCLUDING its timing, since a hit returns the original measurement
// verbatim rather than re-measuring.
TEST(ResultStoreProperty, StoredPointsAreByteIdenticalToFreshSimulation) {
  std::mt19937 Rng(0xC0FFEE);
  TempFile F("property");
  const PolicyKind Kinds[] = {PolicyKind::Lru, PolicyKind::Fifo,
                              PolicyKind::Plru};

  for (int Trial = 0; Trial < 6; ++Trial) {
    ScopProgram Program = testutil::generateProgram(Rng);
    std::vector<HierarchyConfig> Configs;
    for (int I = 0; I < 3; ++I)
      Configs.push_back(testutil::randomHierarchy(
          Rng, Kinds[Trial % 3], /*TwoLevel=*/Trial % 2 == 1));

    SweepOptions Opts;
    Opts.Threads = 2;
    SweepReport First = runSweep(Program, Configs, Opts);

    // Insert under keys namespaced by trial (distinct programs must not
    // collide; in wcs-serve the key is sweepPointKey, which embeds the
    // whole program).
    std::string Err;
    {
      ResultStore S;
      ASSERT_TRUE(S.open(F.path(), &Err)) << Err;
      for (size_t I = 0; I < Configs.size(); ++I) {
        ASSERT_TRUE(First.Points[I].Ok) << First.Points[I].Error;
        ASSERT_TRUE(S.insert("t" + std::to_string(Trial) + "/" +
                                 Configs[I].str(),
                             First.Points[I], &Err))
            << Err;
      }
    }

    // Reopen (fresh replay of the log) and re-simulate.
    ResultStore S;
    ASSERT_TRUE(S.open(F.path(), &Err)) << Err;
    ASSERT_EQ(S.recoveredBytes(), 0u);
    SweepReport Second = runSweep(Program, Configs, Opts);

    for (size_t I = 0; I < Configs.size(); ++I) {
      SweepPoint Stored;
      ASSERT_TRUE(S.lookup("t" + std::to_string(Trial) + "/" +
                               Configs[I].str(),
                           Stored));
      // Store round-trip: byte-identical to the inserted point.
      EXPECT_EQ(dumpPoint(Stored), dumpPoint(First.Points[I]))
          << "trial " << Trial << " config " << Configs[I].str();
      // And the counters equal a fresh simulation bit-for-bit; only the
      // wall-time measurement may differ between runs.
      SweepPoint Fresh = Second.Points[I];
      SweepPoint Norm = Stored;
      Fresh.Stats.Seconds = 0.0;
      Norm.Stats.Seconds = 0.0;
      EXPECT_EQ(dumpPoint(Norm), dumpPoint(Fresh))
          << "trial " << Trial << " config " << Configs[I].str();
    }
  }
}

} // namespace
