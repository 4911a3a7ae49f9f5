//===- tests/scheduler_test.cpp - Cross-request scheduler tests -----------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// The concurrent scheduler's semantic surface: in-flight subscription
// (two racing requests compute each shared point once, bit-identically),
// round-robin fairness (a huge sweep cannot starve a small one),
// disconnect cancellation (unshared queued jobs drop, shared ones
// survive for their subscribers), the single-writer store guarantee
// (racing same-key requests append exactly one log line per key), and a
// seeded multi-threaded stress run whose every response must match the
// in-process runSweepRequest reference bit for bit. The deterministic
// tests steer the interleaving through the job observer, which runs on
// the worker thread after dequeue and before any work.
//
//===----------------------------------------------------------------------===//

#include "wcs/serve/Scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace wcs;

namespace {

const char *TestSource = R"(
  int A[512]; int B[512];
  for (int i = 1; i < 511; i++)
    B[i] = A[i-1] + A[i+1];
)";

/// FIFO points land one per sub-sweep job (each config is its own
/// simulated group), which is what the job-level tests need: one size =
/// one job = one point.
SweepRequest fifoRequest(std::vector<uint64_t> Sizes) {
  SweepRequest R;
  R.Source = TestSource;
  R.SourceName = "stencil.wcs";
  R.L1.SizesBytes = std::move(Sizes);
  R.L1.Assocs = {2};
  R.L1.Policies = {PolicyKind::Fifo};
  return R;
}

SweepRequest mixedRequest(std::vector<uint64_t> Sizes) {
  SweepRequest R = fifoRequest(std::move(Sizes));
  R.L1.Policies = {PolicyKind::Lru, PolicyKind::Fifo};
  return R;
}

/// Provenance- and timing-independent view of a point: the scheduler
/// may relabel a point "store" and keeps the computing request's
/// timing, but the counters must never change.
std::string counters(SweepPoint P) {
  P.Stats.Seconds = 0.0;
  P.Method = SweepMethod::Simulated;
  return toJson(P).dump(false);
}

/// The in-process reference: \p Req through runSweepRequest, the path
/// `wcs-sim --sweep` runs.
std::vector<SweepPoint> referencePoints(const SweepRequest &Req) {
  PreparedSweep Prep;
  SweepReport Rep;
  std::string Err;
  EXPECT_TRUE(runSweepRequest(Req, 2, Prep, Rep, &Err)) << Err;
  return Rep.Points;
}

std::string tempPath(const char *Tag, const char *Ext) {
  std::ostringstream OS;
  OS << ::testing::TempDir() << "wcs-sched-" << Tag << "-" << ::getpid()
     << Ext;
  return OS.str();
}

/// Spins until \p Pred holds or ~5s pass; the scheduler's admission and
/// counters are lock-protected, so polling status() is race-free.
template <typename PredT> bool waitFor(PredT Pred) {
  for (int I = 0; I < 5000; ++I) {
    if (Pred())
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

/// A gate the job observer blocks on until the test opens it.
struct Gate {
  std::mutex Mu;
  std::condition_variable Cv;
  bool Open = false;
  void open() {
    {
      std::lock_guard<std::mutex> L(Mu);
      Open = true;
    }
    Cv.notify_all();
  }
  void wait() {
    std::unique_lock<std::mutex> L(Mu);
    Cv.wait(L, [this] { return Open; });
  }
};

TEST(Scheduler, MatchesSerialReferenceBitForBit) {
  ResultStore Store;
  std::string Err;
  ASSERT_TRUE(Store.open("", &Err)) << Err;
  SweepRequest Req = mixedRequest({1024, 2048});
  std::vector<SweepPoint> Serial = referencePoints(Req);

  Scheduler Sched(Store, 2);
  SweepResponse Resp = Sched.serve(Req, nullptr);
  ASSERT_TRUE(Resp.Ok) << Resp.Error;
  EXPECT_EQ(Resp.StoreHits, 0u);
  EXPECT_EQ(Resp.StoreMisses, Serial.size());
  EXPECT_EQ(Resp.InFlightHits, 0u);
  EXPECT_EQ(Resp.StoreEntries, Serial.size());
  ASSERT_EQ(Resp.Sweep.Points.size(), Serial.size());
  for (size_t I = 0; I < Resp.Sweep.Points.size(); ++I)
    EXPECT_EQ(counters(Resp.Sweep.Points[I]), counters(Serial[I]))
        << "point " << I;

  // Resubmission hits the store for every point, like the reference.
  SweepResponse Again = Sched.serve(Req, nullptr);
  ASSERT_TRUE(Again.Ok) << Again.Error;
  EXPECT_EQ(Again.StoreHits, Resp.Sweep.Points.size());
  EXPECT_EQ(Again.StoreMisses, 0u);
}

TEST(Scheduler, InFlightSubscriptionComputesSharedPointsOnce) {
  ResultStore Store;
  std::string Err;
  ASSERT_TRUE(Store.open("", &Err)) << Err;

  Scheduler Sched(Store, 2);
  Gate Release;
  Sched.setJobObserver([&](uint64_t, size_t) { Release.wait(); });

  SweepRequest Req = mixedRequest({1024, 2048});

  // Admit A; its jobs dequeue but block in the observer before any
  // point computes or lands in the store.
  SweepResponse RespA, RespB;
  std::thread A([&] { RespA = Sched.serve(Req, nullptr); });
  ASSERT_TRUE(waitFor([&] { return Sched.status().ActiveRequests == 1; }));

  // Admit B with the SAME grid: nothing is stored yet, so every point
  // must be answered by subscribing to A's in-flight jobs.
  std::thread B([&] { RespB = Sched.serve(Req, nullptr); });
  ASSERT_TRUE(waitFor([&] { return Sched.status().ActiveRequests == 2; }));

  Release.open();
  A.join();
  B.join();

  ASSERT_TRUE(RespA.Ok) << RespA.Error;
  ASSERT_TRUE(RespB.Ok) << RespB.Error;
  EXPECT_EQ(RespA.StoreMisses, 4u);
  EXPECT_EQ(RespB.StoreHits, 0u);
  EXPECT_EQ(RespB.StoreMisses, 0u);
  EXPECT_EQ(RespB.InFlightHits, 4u);

  // Each shared point was computed once and delivered twice,
  // bit-identically; the subscriber sees honest "store" provenance.
  StatusDoc St = Sched.status();
  EXPECT_EQ(St.PointsComputed, 4u);
  EXPECT_EQ(St.InFlightHits, 4u);
  EXPECT_EQ(St.StoreEntries, 4u);
  ASSERT_EQ(RespB.Sweep.Points.size(), RespA.Sweep.Points.size());
  for (size_t I = 0; I < RespB.Sweep.Points.size(); ++I) {
    EXPECT_EQ(RespB.Sweep.Points[I].Method, SweepMethod::Store);
    EXPECT_EQ(counters(RespB.Sweep.Points[I]),
              counters(RespA.Sweep.Points[I]))
        << "point " << I;
  }
}

TEST(Scheduler, RoundRobinKeepsSmallRequestsAheadOfHugeOnes) {
  ResultStore Store;
  std::string Err;
  ASSERT_TRUE(Store.open("", &Err)) << Err;

  // ONE worker makes the job order a total order we can assert on.
  Scheduler Sched(Store, 1);
  Gate Release;
  std::atomic<unsigned> Started{0};
  std::mutex OrderMu;
  std::vector<uint64_t> Order;
  Sched.setJobObserver([&](uint64_t Serial, size_t) {
    {
      std::lock_guard<std::mutex> L(OrderMu);
      Order.push_back(Serial);
    }
    // Hold only the FIRST job, so the small request is admitted while
    // the big one still has its whole queue in front of the worker.
    if (Started.fetch_add(1) == 0)
      Release.wait();
  });

  SweepResponse Big, Small;
  std::thread A(
      [&] { Big = Sched.serve(fifoRequest({1024, 2048, 4096, 8192}),
                              nullptr); });
  // The worker has dequeued big job 1 (blocked); three remain queued.
  ASSERT_TRUE(waitFor([&] { return Started.load() == 1; }));
  std::thread B(
      [&] { Small = Sched.serve(fifoRequest({512}), nullptr); });
  ASSERT_TRUE(waitFor([&] { return Sched.status().QueuedJobs == 4; }));

  Release.open();
  A.join();
  B.join();
  ASSERT_TRUE(Big.Ok) << Big.Error;
  ASSERT_TRUE(Small.Ok) << Small.Error;

  // Round-robin: one big job per turn, so the small request's only job
  // runs after at most two big jobs -- never behind the whole queue.
  std::lock_guard<std::mutex> L(OrderMu);
  ASSERT_EQ(Order.size(), 5u);
  uint64_t BigSerial = Order[0];
  size_t SmallAt = Order.size();
  for (size_t I = 0; I < Order.size(); ++I)
    if (Order[I] != BigSerial)
      SmallAt = I;
  EXPECT_EQ(SmallAt, 2u) << "small request's job did not interleave";
}

TEST(Scheduler, DisconnectCancelsQueuedJobsButKeepsSubscribedOnes) {
  ResultStore Store;
  std::string Err;
  ASSERT_TRUE(Store.open("", &Err)) << Err;

  Scheduler Sched(Store, 1);
  Gate Release;
  std::atomic<unsigned> Started{0};
  Sched.setJobObserver([&](uint64_t, size_t) {
    if (Started.fetch_add(1) == 0)
      Release.wait();
  });

  // A owns two jobs (1024, 2048); the worker blocks inside the first.
  std::atomic<bool> AGone{false};
  SweepResponse RespA, RespB;
  std::thread A([&] {
    RespA = Sched.serve(fifoRequest({1024, 2048}), nullptr,
                        [&] { return AGone.load(); });
  });
  ASSERT_TRUE(waitFor([&] { return Started.load() == 1; }));

  // B needs only the 1024 point -- the one A's RUNNING job computes --
  // so it subscribes rather than enqueueing anything.
  std::thread B([&] { RespB = Sched.serve(fifoRequest({1024}), nullptr); });
  ASSERT_TRUE(waitFor([&] { return Sched.status().ActiveRequests == 2; }));
  EXPECT_EQ(Sched.status().QueuedJobs, 1u);

  // A's client disconnects. Its queued 2048 job has no subscriber and
  // must be dropped unrun; the running 1024 job finishes for B.
  AGone.store(true);
  ASSERT_TRUE(waitFor([&] { return Sched.status().CancelledJobs == 1; }));
  Release.open();
  A.join();
  B.join();

  EXPECT_FALSE(RespA.Ok);
  EXPECT_NE(RespA.Error.find("cancelled"), std::string::npos)
      << RespA.Error;
  ASSERT_TRUE(RespB.Ok) << RespB.Error;
  EXPECT_EQ(RespB.InFlightHits, 1u);
  ASSERT_EQ(RespB.Sweep.Points.size(), 1u);
  EXPECT_TRUE(RespB.Sweep.Points[0].Ok) << RespB.Sweep.Points[0].Error;

  StatusDoc St = Sched.status();
  EXPECT_EQ(St.CancelledJobs, 1u);  // The 2048 job never ran...
  EXPECT_EQ(St.PointsComputed, 1u); // ...only the shared 1024 did,
  EXPECT_EQ(St.StoreEntries, 1u);   // and only it was stored.
}

// Regression: ResultStore is not thread-safe, and its log is
// append-only -- if two racing requests on the same key both inserted,
// the log would carry a duplicate line (and a torn one, in the worst
// interleaving). All inserts funnel through the scheduler's lock, so
// two simultaneous misses on one key must append EXACTLY one line.
TEST(Scheduler, RacingSameKeyRequestsAppendOneLogLinePerKey) {
  std::string StorePath = tempPath("single-writer", ".jsonl");
  std::remove(StorePath.c_str());
  std::string Err;
  {
    ResultStore Store;
    ASSERT_TRUE(Store.open(StorePath, &Err)) << Err;

    Scheduler Sched(Store, 2);
    Gate Release;
    Sched.setJobObserver([&](uint64_t, size_t) { Release.wait(); });

    SweepRequest Req = fifoRequest({1024, 2048});
    SweepResponse RespA, RespB;
    std::thread A([&] { RespA = Sched.serve(Req, nullptr); });
    ASSERT_TRUE(
        waitFor([&] { return Sched.status().ActiveRequests == 1; }));
    std::thread B([&] { RespB = Sched.serve(Req, nullptr); });
    ASSERT_TRUE(
        waitFor([&] { return Sched.status().ActiveRequests == 2; }));
    Release.open();
    A.join();
    B.join();

    ASSERT_TRUE(RespA.Ok) << RespA.Error;
    ASSERT_TRUE(RespB.Ok) << RespB.Error;
    // Identical counters from both views of the shared computation.
    ASSERT_EQ(RespA.Sweep.Points.size(), RespB.Sweep.Points.size());
    for (size_t I = 0; I < RespA.Sweep.Points.size(); ++I)
      EXPECT_EQ(counters(RespA.Sweep.Points[I]),
                counters(RespB.Sweep.Points[I]));
    EXPECT_EQ(RespA.StoreMisses + RespB.StoreMisses, 2u);
    EXPECT_EQ(RespA.InFlightHits + RespB.InFlightHits, 2u);
  }

  // One line per key, every line intact (a torn or duplicate line
  // would change the count or trip the reopen's self-check).
  std::ifstream In(StorePath);
  size_t Lines = 0;
  std::string Line;
  while (std::getline(In, Line))
    ++Lines;
  EXPECT_EQ(Lines, 2u);
  ResultStore Reopened;
  ASSERT_TRUE(Reopened.open(StorePath, &Err)) << Err;
  EXPECT_EQ(Reopened.recoveredBytes(), 0u);
  EXPECT_EQ(Reopened.numEntries(), 2u);
  std::remove(StorePath.c_str());
}

// Seeded stress: many client threads submit overlapping grids from a
// deterministic schedule; every response must partition its grid
// across the three counters and match the serial reference bit for
// bit. WCS_STRESS_ITERS scales the run (CI cranks it up under TSan).
TEST(Scheduler, SeededConcurrentStressMatchesReference) {
  unsigned Iters = 6;
  if (const char *E = std::getenv("WCS_STRESS_ITERS"))
    Iters = static_cast<unsigned>(std::strtoul(E, nullptr, 10));
  if (Iters == 0)
    Iters = 1;

  // The universe of grids: subsets of sizes x both policies, all
  // expanding into one shared key space.
  const std::vector<std::vector<uint64_t>> SizeSets = {
      {1024}, {2048}, {1024, 2048}, {1024, 4096}, {2048, 4096},
      {1024, 2048, 4096}};

  // Serial reference for the whole universe.
  std::vector<SweepPoint> Union =
      referencePoints(mixedRequest({1024, 2048, 4096}));
  std::map<std::string, std::string> Expect;
  for (const SweepPoint &P : Union)
    Expect[P.Cache.str()] = counters(P);

  ResultStore Store;
  std::string Err;
  ASSERT_TRUE(Store.open("", &Err)) << Err;

  // The metrics registry is process-global, so the telemetry
  // assertions below work on snapshot DELTAS across this run. The
  // serial reference above ran in process (no scheduler), so it does
  // not pollute the scheduler.* deltas.
  MetricsDoc MBefore = telemetry::registry().snapshot("test");
  Scheduler Sched(Store, 4);

  const unsigned NumClients = 4;
  std::atomic<uint64_t> InFlightHitsSeen{0};
  std::atomic<unsigned> Failures{0};
  std::vector<std::string> FailWhy(NumClients);
  std::vector<std::thread> Clients;
  for (unsigned C = 0; C < NumClients; ++C)
    Clients.emplace_back([&, C] {
      for (unsigned I = 0; I < Iters; ++I) {
        // Deterministic per-(client, iter) grid pick; clients collide
        // on purpose so hits, subscriptions, and misses all exercise.
        SweepRequest Req =
            mixedRequest(SizeSets[(C * 7 + I * 3) % SizeSets.size()]);
        SweepResponse Resp = Sched.serve(Req, nullptr);
        if (!Resp.Ok) {
          FailWhy[C] = "not ok: " + Resp.Error;
          ++Failures;
          return;
        }
        InFlightHitsSeen += Resp.InFlightHits;
        size_t Total = Resp.Sweep.Points.size();
        if (Resp.StoreHits + Resp.InFlightHits + Resp.StoreMisses !=
            Total) {
          FailWhy[C] = "counters do not partition the grid";
          ++Failures;
          return;
        }
        for (const SweepPoint &P : Resp.Sweep.Points) {
          auto It = Expect.find(P.Cache.str());
          if (It == Expect.end() || counters(P) != It->second) {
            FailWhy[C] = "point diverged from reference: " + P.Cache.str();
            ++Failures;
            return;
          }
        }
      }
    });
  for (std::thread &T : Clients)
    T.join();
  for (unsigned C = 0; C < NumClients; ++C)
    EXPECT_EQ(FailWhy[C], "") << "client " << C;
  EXPECT_EQ(Failures.load(), 0u);

  // Every point was computed at most once ever: the whole run costs no
  // more simulation than the union grid, however the races fell.
  StatusDoc St = Sched.status();
  EXPECT_LE(St.PointsComputed, Union.size());
  EXPECT_EQ(St.StoreEntries, Union.size());
  EXPECT_EQ(St.RequestsServed, NumClients * Iters);

  // The telemetry registry tells the same story as the scheduler's own
  // stats, however the races fell.
  MetricsDoc MAfter = telemetry::registry().snapshot("test");
  auto CounterDelta = [&](const char *Name) {
    return MAfter.counter(Name) - MBefore.counter(Name);
  };
  EXPECT_EQ(CounterDelta("serve.requests"), NumClients * Iters);
  EXPECT_EQ(CounterDelta("scheduler.points_computed"),
            St.PointsComputed);
  // Dedup subscriptions: one registry bump per in-flight hit handed
  // out, exactly what the responses reported.
  EXPECT_EQ(CounterDelta("scheduler.inflight_subscriptions"),
            InFlightHitsSeen.load());
  // Every enqueued job was dequeued (serve() blocks until its request
  // drains, and nothing disconnected), and every dequeue observed its
  // queue wait in the histogram.
  EXPECT_EQ(CounterDelta("scheduler.jobs_cancelled"), 0u);
  EXPECT_EQ(CounterDelta("scheduler.jobs_enqueued"),
            CounterDelta("scheduler.jobs_dequeued"));
  const MetricsDoc::Hist *WaitAfter =
      MAfter.histogram("scheduler.queue_wait_seconds");
  const MetricsDoc::Hist *WaitBefore =
      MBefore.histogram("scheduler.queue_wait_seconds");
  ASSERT_NE(WaitAfter, nullptr);
  EXPECT_EQ(WaitAfter->Count - (WaitBefore ? WaitBefore->Count : 0),
            CounterDelta("scheduler.jobs_dequeued"));
}

// A deadline that fires mid-compute yields a PARTIAL answer: Ok=true
// (this is the answer), Resp.Error names the degradation, every
// finished point is bit-identical to a fresh run, and every cut-off
// point carries an honest per-point error -- no silent gaps.
TEST(Scheduler, DeadlineExpiredMidComputeReturnsPartialResults) {
  ResultStore Store;
  std::string Err;
  ASSERT_TRUE(Store.open("", &Err)) << Err;

  std::map<std::string, std::string> Expect;
  for (const SweepPoint &P : referencePoints(fifoRequest({1024, 2048})))
    Expect[P.Cache.str()] = counters(P);

  MetricsDoc MBefore = telemetry::registry().snapshot("test");
  // ONE worker: the first job is dequeued and held in the observer;
  // the second is still queued when the deadline fires and must be
  // dropped unrun.
  Scheduler Sched(Store, 1);
  Gate Release;
  std::atomic<unsigned> Started{0};
  Sched.setJobObserver([&](uint64_t, size_t) {
    if (Started.fetch_add(1) == 0)
      Release.wait();
  });

  SweepRequest Req = fifoRequest({1024, 2048});
  Req.DeadlineSeconds = 0.2;
  SweepResponse Resp;
  std::thread A([&] { Resp = Sched.serve(Req, nullptr); });
  ASSERT_TRUE(waitFor([&] { return Started.load() == 1; }));
  ASSERT_TRUE(
      waitFor([&] { return Sched.status().DeadlineExpired == 1; }));
  // The running job survives expiry: release it and let it finish.
  Release.open();
  A.join();

  ASSERT_TRUE(Resp.Ok) << Resp.Error;
  EXPECT_EQ(Resp.Error, "deadline exceeded");
  ASSERT_EQ(Resp.Sweep.Points.size(), 2u);
  size_t OkPoints = 0, Expired = 0;
  for (const SweepPoint &P : Resp.Sweep.Points) {
    if (P.Ok) {
      ++OkPoints;
      auto It = Expect.find(P.Cache.str());
      ASSERT_NE(It, Expect.end()) << P.Cache.str();
      EXPECT_EQ(counters(P), It->second) << P.Cache.str();
    } else {
      ++Expired;
      EXPECT_EQ(P.Error, "deadline exceeded");
      EXPECT_FALSE(P.Cache.str().empty()) << "cut-off point lost its config";
    }
  }
  EXPECT_EQ(OkPoints, 1u); // The job that was already running landed...
  EXPECT_EQ(Expired, 1u);  // ...the queued one was cut off, honestly.

  StatusDoc St = Sched.status();
  EXPECT_EQ(St.DeadlineExpired, 1u);
  EXPECT_EQ(St.CancelledJobs, 1u);
  EXPECT_EQ(St.PointsComputed, 1u);
  MetricsDoc MAfter = telemetry::registry().snapshot("test");
  EXPECT_EQ(MAfter.counter("serve.deadline_expired") -
                MBefore.counter("serve.deadline_expired"),
            1u);
}

/// Serves three FIFO points (one job each) on a one-worker scheduler
/// that holds the first job until the two queued behind it are dropped:
/// by the client going away when \p Disconnect, else by the request's
/// deadline. \p Computed receives what scheduler.points_computed
/// counted for the request.
SweepResponse cutAfterFirstJob(bool Disconnect, uint64_t &Computed) {
  ResultStore Store;
  std::string Err;
  EXPECT_TRUE(Store.open("", &Err)) << Err;
  telemetry::Counter &Points =
      telemetry::registry().counter("scheduler.points_computed");
  uint64_t Before = Points.value();
  Scheduler Sched(Store, 1);
  Gate Release;
  std::atomic<unsigned> Started{0};
  Sched.setJobObserver([&](uint64_t, size_t) {
    if (Started.fetch_add(1) == 0)
      Release.wait();
  });

  SweepRequest Req = fifoRequest({1024, 2048, 4096});
  if (!Disconnect)
    Req.DeadlineSeconds = 0.2;
  std::atomic<bool> Gone{false};
  SweepResponse Resp;
  std::thread A([&] {
    Resp = Sched.serve(Req, nullptr, [&] { return Gone.load(); });
  });
  EXPECT_TRUE(waitFor([&] { return Started.load() == 1; }));
  Gone.store(Disconnect);
  EXPECT_TRUE(waitFor([&] { return Sched.status().CancelledJobs == 2; }));
  Release.open();
  A.join();
  Computed = Points.value() - Before;
  return Resp;
}

// store_misses counts the points a request computed, not the points it
// owned at admission: a client gone while one of its three jobs runs is
// charged that one point.
TEST(Scheduler, DisconnectChargesOnlyComputedPointsAsMisses) {
  uint64_t Computed = 0;
  SweepResponse Resp = cutAfterFirstJob(/*Disconnect=*/true, Computed);
  EXPECT_FALSE(Resp.Ok);
  EXPECT_EQ(Computed, 1u);
  EXPECT_EQ(Resp.StoreMisses, Computed);
}

TEST(Scheduler, DeadlineChargesOnlyComputedPointsAsMisses) {
  uint64_t Computed = 0;
  SweepResponse Resp = cutAfterFirstJob(/*Disconnect=*/false, Computed);
  ASSERT_TRUE(Resp.Ok) << Resp.Error;
  EXPECT_EQ(Resp.Error, "deadline exceeded");
  EXPECT_EQ(Computed, 1u);
  EXPECT_EQ(Resp.StoreMisses, Computed);
}

// A hostile inline source -- 100,000 nested parentheses in a subscript,
// about 200 KB on the wire -- is refused at parse time with a located
// diagnostic, and the scheduler goes on serving the next request.
TEST(Scheduler, DeeplyNestedSourceIsRefusedAndServingContinues) {
  ResultStore Store;
  std::string Err;
  ASSERT_TRUE(Store.open("", &Err)) << Err;
  Scheduler Sched(Store, 1);

  SweepRequest Bomb = fifoRequest({1024});
  Bomb.Source = "int A[512];\nA[" + std::string(100000, '(') + "0" +
                std::string(100000, ')') + "] = 0;\n";
  SweepResponse Refused = Sched.serve(Bomb, nullptr);
  EXPECT_FALSE(Refused.Ok);
  EXPECT_NE(Refused.Error.find("line 2, column"), std::string::npos)
      << Refused.Error;
  EXPECT_NE(Refused.Error.find("nesting deeper than"), std::string::npos)
      << Refused.Error;

  SweepResponse Next = Sched.serve(fifoRequest({1024}), nullptr);
  ASSERT_TRUE(Next.Ok) << Next.Error;
  EXPECT_EQ(Next.StoreMisses, 1u);
  EXPECT_EQ(Sched.status().RequestsServed, 2u);
}

// A 30 KB request whose L1 and L2 grids each list one capacity 1,000
// times would expand to a million points; it is refused before anything
// is expanded, and the next request is served.
TEST(Scheduler, OversizedGridIsRefusedAndServingContinues) {
  ResultStore Store;
  std::string Err;
  ASSERT_TRUE(Store.open("", &Err)) << Err;
  Scheduler Sched(Store, 1);

  SweepRequest Huge = fifoRequest(std::vector<uint64_t>(1000, 1024));
  Huge.HasL2 = true;
  Huge.L2.SizesBytes.assign(1000, 8192);
  SweepResponse Refused = Sched.serve(Huge, nullptr);
  EXPECT_FALSE(Refused.Ok);
  EXPECT_NE(Refused.Error.find("grid expands to 1000000 points, over the "
                               "cap of 65536"),
            std::string::npos)
      << Refused.Error;
  EXPECT_EQ(Refused.StoreHits + Refused.StoreMisses + Refused.InFlightHits,
            0u);

  SweepResponse Next = Sched.serve(fifoRequest({1024}), nullptr);
  ASSERT_TRUE(Next.Ok) << Next.Error;
  EXPECT_EQ(Next.StoreMisses, 1u);
  EXPECT_EQ(Sched.status().RequestsServed, 2u);
}

// The admission cap refuses requests that would grow the compute queue
// past --max-queued-points -- immediately, with a retry hint, and
// without leaving any in-flight registration behind.
TEST(Scheduler, AdmissionCapShedsOverloadedRequests) {
  ResultStore Store;
  std::string Err;
  ASSERT_TRUE(Store.open("", &Err)) << Err;

  MetricsDoc MBefore = telemetry::registry().snapshot("test");
  Scheduler Sched(Store, 1, /*MaxQueuedPoints=*/4);
  Gate Release;
  std::atomic<unsigned> Started{0};
  Sched.setJobObserver([&](uint64_t, size_t) {
    if (Started.fetch_add(1) == 0)
      Release.wait();
  });

  // A owns 4 points; the worker holds the first job, so 3 stay queued.
  SweepResponse Big;
  std::thread A([&] {
    Big = Sched.serve(fifoRequest({1024, 2048, 4096, 8192}), nullptr);
  });
  ASSERT_TRUE(waitFor([&] { return Started.load() == 1; }));

  // B would add 2 fresh points: 3 queued + 2 > 4, so it is shed.
  SweepRequest Small = fifoRequest({512, 16384});
  SweepResponse Resp = Sched.serve(Small, nullptr);
  EXPECT_FALSE(Resp.Ok);
  EXPECT_EQ(Resp.Error, "overloaded");
  EXPECT_GT(Resp.RetryAfterSeconds, 0.0);
  // Shed means NOTHING was answered, store hits included.
  EXPECT_EQ(Resp.StoreHits + Resp.StoreMisses + Resp.InFlightHits, 0u);

  // The overloaded response survives the wire format, hint and all.
  SweepResponse Round;
  ASSERT_TRUE(fromJson(toJson(Resp), Round, &Err)) << Err;
  EXPECT_FALSE(Round.Ok);
  EXPECT_EQ(Round.Error, "overloaded");
  EXPECT_EQ(Round.RetryAfterSeconds, Resp.RetryAfterSeconds);

  Release.open();
  A.join();
  ASSERT_TRUE(Big.Ok) << Big.Error;

  // Capacity freed: the same request is admitted now -- the shed
  // attempt leaked no InFlight state that could block or dedup it.
  SweepResponse Again = Sched.serve(Small, nullptr);
  ASSERT_TRUE(Again.Ok) << Again.Error;
  EXPECT_EQ(Again.StoreMisses, 2u);

  StatusDoc St = Sched.status();
  EXPECT_EQ(St.ShedRequests, 1u);
  EXPECT_EQ(St.QueuedPoints, 0u);
  MetricsDoc MAfter = telemetry::registry().snapshot("test");
  EXPECT_EQ(MAfter.counter("serve.shed") - MBefore.counter("serve.shed"),
            1u);
}

} // namespace
