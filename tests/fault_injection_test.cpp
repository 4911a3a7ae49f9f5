//===- tests/fault_injection_test.cpp - Seeded fault injection tests ------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// The fault-injection harness itself (spec parsing, deterministic
// seeded schedules, the disarmed fast path) and the crash-consistency
// contract it exists to test: a torn store append loses at most the
// in-flight insert, poisons nothing it already held, and the points it
// failed to persist are honestly recomputed -- bit-identically -- after
// a reopen.
//
//===----------------------------------------------------------------------===//

#include "wcs/serve/Scheduler.h"
#include "wcs/support/FaultInjection.h"
#include "wcs/support/Telemetry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <vector>

#include <unistd.h>

using namespace wcs;

namespace {

/// Every test leaves the process disarmed, whatever its assertions do:
/// the harness state is process-global.
struct DisarmGuard {
  ~DisarmGuard() { faultinject::disarm(); }
};

const char *TestSource = R"(
  int A[512]; int B[512];
  for (int i = 1; i < 511; i++)
    B[i] = A[i-1] + A[i+1];
)";

SweepRequest smallRequest() {
  SweepRequest R;
  R.Source = TestSource;
  R.SourceName = "stencil.wcs";
  R.L1.SizesBytes = {1024, 2048};
  R.L1.Assocs = {2};
  R.L1.Policies = {PolicyKind::Fifo};
  return R;
}

/// Timing- and provenance-independent view of a point.
std::string counters(SweepPoint P) {
  P.Stats.Seconds = 0.0;
  P.Method = SweepMethod::Simulated;
  return toJson(P).dump(false);
}

std::string tempPath(const char *Tag) {
  std::ostringstream OS;
  OS << ::testing::TempDir() << "wcs-fault-" << Tag << "-" << ::getpid()
     << ".jsonl";
  return OS.str();
}

/// A minimal-but-valid point for direct store tests.
SweepPoint somePoint() {
  SweepPoint P;
  P.Ok = true;
  return P;
}

TEST(FaultInjection, SpecParsingRejectsMalformedEntries) {
  DisarmGuard G;
  std::string Err;

  // Unknown point: loud failure that names the valid set, so a typo in
  // WCS_FAULT cannot silently test nothing.
  EXPECT_FALSE(faultinject::arm("store.wrte:0.5", 0, &Err));
  EXPECT_NE(Err.find("unknown fault point"), std::string::npos) << Err;
  EXPECT_NE(Err.find("store.write"), std::string::npos) << Err;
  EXPECT_FALSE(faultinject::armed());

  EXPECT_FALSE(faultinject::arm("store.write", 0, &Err));
  EXPECT_NE(Err.find("point:probability"), std::string::npos) << Err;

  EXPECT_FALSE(faultinject::arm("store.write:1.5", 0, &Err));
  EXPECT_NE(Err.find("[0, 1]"), std::string::npos) << Err;
  EXPECT_FALSE(faultinject::arm("store.write:often", 0, &Err));
  EXPECT_NE(Err.find("[0, 1]"), std::string::npos) << Err;

  // An empty spec arms nothing (the WCS_FAULT="" case).
  EXPECT_TRUE(faultinject::arm("", 0, &Err)) << Err;
  EXPECT_FALSE(faultinject::armed());

  // A good multi-point spec arms and reports itself.
  ASSERT_TRUE(faultinject::arm("store.write:0.25,socket.send:1", 7, &Err))
      << Err;
  EXPECT_TRUE(faultinject::armed());
  std::string Spec = faultinject::armedSpec();
  EXPECT_NE(Spec.find("store.write"), std::string::npos) << Spec;
  EXPECT_NE(Spec.find("socket.send"), std::string::npos) << Spec;
}

TEST(FaultInjection, DisarmedNeverFires) {
  faultinject::disarm();
  EXPECT_FALSE(faultinject::armed());
  for (int I = 0; I < 100; ++I) {
    EXPECT_FALSE(faultinject::shouldFail("store.write"));
    EXPECT_FALSE(faultinject::shouldFail("socket.send"));
    EXPECT_FALSE(faultinject::shouldFail("socket.recv"));
    EXPECT_FALSE(faultinject::shouldFail("scheduler.job"));
  }
  EXPECT_EQ(faultinject::injectedCount(), 0u);
}

TEST(FaultInjection, ProbabilityOneAlwaysFiresAndIsCounted) {
  DisarmGuard G;
  std::string Err;
  ASSERT_TRUE(faultinject::arm("store.write:1", 1, &Err)) << Err;
  for (int I = 0; I < 50; ++I) {
    EXPECT_TRUE(faultinject::shouldFail("store.write"));
    // Points outside the spec never fire, even armed.
    EXPECT_FALSE(faultinject::shouldFail("socket.recv"));
  }
  EXPECT_EQ(faultinject::injectedCount("store.write"), 50u);
  EXPECT_EQ(faultinject::injectedCount("socket.recv"), 0u);
  EXPECT_EQ(faultinject::injectedCount(), 50u);
}

TEST(FaultInjection, SeededScheduleReplaysExactly) {
  DisarmGuard G;
  std::string Err;
  auto Draw100 = [&](uint64_t Seed) {
    EXPECT_TRUE(faultinject::arm("scheduler.job:0.5", Seed, &Err)) << Err;
    std::vector<bool> Seq;
    for (int I = 0; I < 100; ++I)
      Seq.push_back(faultinject::shouldFail("scheduler.job"));
    return Seq;
  };
  // arm() resets the draw counter, so the same (spec, seed) replays
  // the same fault schedule -- the property that makes a failed CI
  // fault run reproducible from its logged seed.
  std::vector<bool> A = Draw100(42), B = Draw100(42), C = Draw100(43);
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C);
  // p=0.5 over 100 draws: both outcomes occur (up to 2^-99 flakiness).
  EXPECT_NE(std::count(A.begin(), A.end(), true), 0);
  EXPECT_NE(std::count(A.begin(), A.end(), false), 0);
}

TEST(FaultInjection, TornAppendLosesOnlyTheInFlightInsert) {
  DisarmGuard G;
  std::string Path = tempPath("torn");
  std::remove(Path.c_str());
  std::string Err;

  ResultStore Store;
  ASSERT_TRUE(Store.open(Path, &Err)) << Err;
  ASSERT_TRUE(Store.insert("k1", somePoint(), &Err)) << Err;

  // Injected torn append: the insert fails WITHOUT entering the index
  // (the key must stay an honest miss) and poisons the tail.
  ASSERT_TRUE(faultinject::arm("store.write:1", 0, &Err)) << Err;
  EXPECT_FALSE(Store.insert("k2", somePoint(), &Err));
  EXPECT_NE(Err.find("injected fault"), std::string::npos) << Err;
  EXPECT_TRUE(Store.tailDirty());
  EXPECT_EQ(Store.numEntries(), 1u);
  SweepPoint Out;
  EXPECT_FALSE(Store.lookup("k2", Out));
  EXPECT_TRUE(Store.lookup("k1", Out)); // Reads keep serving.

  // Disarming does not bless the torn tail: appends stay refused until
  // a reopen truncates it (a live writer after a tear would garble the
  // next line and lose GOOD lines at replay).
  faultinject::disarm();
  EXPECT_FALSE(Store.insert("k3", somePoint(), &Err));
  EXPECT_NE(Err.find("refusing append"), std::string::npos) << Err;

  // Reopen = the crash-recovery path: the tear is dropped, everything
  // before it survives, and the log accepts appends again.
  ResultStore Reopened;
  ASSERT_TRUE(Reopened.open(Path, &Err)) << Err;
  EXPECT_GT(Reopened.recoveredBytes(), 0u);
  EXPECT_EQ(Reopened.numEntries(), 1u);
  EXPECT_FALSE(Reopened.tailDirty());
  EXPECT_TRUE(Reopened.lookup("k1", Out));
  ASSERT_TRUE(Reopened.insert("k2", somePoint(), &Err)) << Err;

  // And the repaired log replays clean.
  ResultStore Final;
  ASSERT_TRUE(Final.open(Path, &Err)) << Err;
  EXPECT_EQ(Final.recoveredBytes(), 0u);
  EXPECT_EQ(Final.numEntries(), 2u);
  std::remove(Path.c_str());
}

// The acceptance contract end to end, on the daemon's request path (a
// one-client Scheduler): a daemon whose every store write tears loses no
// correctness -- it answers from computation -- and a restarted daemon
// recovers the store, recomputes what was lost, and serves it
// bit-identically, computing each point at most once more.
TEST(FaultInjection, ServeRecomputesUnpersistedPointsAfterRestart) {
  DisarmGuard G;
  std::string Path = tempPath("restart");
  std::remove(Path.c_str());
  std::string Err;
  SweepRequest Req = smallRequest();

  std::vector<std::string> FirstRun;
  {
    ResultStore Store;
    ASSERT_TRUE(Store.open(Path, &Err)) << Err;
    MetricsDoc MBefore = telemetry::registry().snapshot("test");
    ASSERT_TRUE(faultinject::arm("store.write:1", 0, &Err)) << Err;
    SweepResponse Resp;
    {
      Scheduler Sched(Store, 1);
      Resp = Sched.serve(Req, nullptr);
    }
    faultinject::disarm();
    // Every answer is computed and correct; persistence failed quietly
    // underneath (at most a torn first line on disk).
    ASSERT_TRUE(Resp.Ok) << Resp.Error;
    EXPECT_EQ(Resp.StoreMisses, 2u);
    EXPECT_EQ(Store.numEntries(), 0u);
    for (const SweepPoint &P : Resp.Sweep.Points) {
      ASSERT_TRUE(P.Ok) << P.Error;
      FirstRun.push_back(counters(P));
    }
    // The first append tore (the one injected fault); the second was
    // refused behind the poisoned tail. Both inserts count as failed.
    MetricsDoc MAfter = telemetry::registry().snapshot("test");
    EXPECT_EQ(MAfter.counter("store.insert_failed") -
                  MBefore.counter("store.insert_failed"),
              Resp.StoreMisses);
    EXPECT_EQ(MAfter.counter("fault.injected") -
                  MBefore.counter("fault.injected"),
              1u);
  }

  // "Restart": a fresh store over the same log recovers the tear and
  // holds nothing, so the same request honestly recomputes...
  ResultStore Store;
  ASSERT_TRUE(Store.open(Path, &Err)) << Err;
  EXPECT_EQ(Store.numEntries(), 0u);
  Scheduler Sched(Store, 1);
  SweepResponse Again = Sched.serve(Req, nullptr);
  ASSERT_TRUE(Again.Ok) << Again.Error;
  EXPECT_EQ(Again.StoreMisses, 2u);
  ASSERT_EQ(Again.Sweep.Points.size(), FirstRun.size());
  for (size_t I = 0; I < FirstRun.size(); ++I)
    EXPECT_EQ(counters(Again.Sweep.Points[I]), FirstRun[I]) << "point " << I;

  // ...exactly once: with writes healthy the points persisted, and a
  // third submission is all store hits, still bit-identical.
  SweepResponse Hits = Sched.serve(Req, nullptr);
  ASSERT_TRUE(Hits.Ok) << Hits.Error;
  EXPECT_EQ(Hits.StoreHits, 2u);
  EXPECT_EQ(Hits.StoreMisses, 0u);
  for (size_t I = 0; I < FirstRun.size(); ++I)
    EXPECT_EQ(counters(Hits.Sweep.Points[I]), FirstRun[I]) << "point " << I;
  std::remove(Path.c_str());
}

} // namespace
