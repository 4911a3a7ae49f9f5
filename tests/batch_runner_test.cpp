//===- tests/batch_runner_test.cpp - Parallel batch determinism -----------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
// The contract of the batch driver: per-job counters are bit-identical
// for any worker-thread count and schedule, results arrive in job order,
// the three backends agree on hit/miss classification, and job-level
// failures are reported without poisoning the batch.
//
//===----------------------------------------------------------------------===//

#include "RandomProgram.h"
#include "wcs/driver/BatchRunner.h"
#include "wcs/frontend/Frontend.h"
#include "wcs/polybench/Polybench.h"
#include "wcs/sim/ConcreteSimulator.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <random>
#include <stdexcept>

using namespace wcs;
using testutil::generateProgram;
using testutil::randomHierarchy;

namespace {

/// A randomized work list over all policies, both hierarchy depths and
/// all three backends. Programs are owned by the fixture and shared by
/// pointer, as in production use.
struct RandomBatch {
  std::vector<ScopProgram> Programs;
  std::vector<BatchJob> Jobs;

  explicit RandomBatch(unsigned Seed, unsigned NumJobs) {
    std::mt19937 Rng(Seed);
    auto Rand = [&](int Lo, int Hi) {
      return std::uniform_int_distribution<int>(Lo, Hi)(Rng);
    };
    const PolicyKind Policies[] = {PolicyKind::Lru, PolicyKind::Fifo,
                                   PolicyKind::Plru, PolicyKind::QuadAgeLru};
    Programs.reserve(NumJobs); // Stable addresses for Job.Program.
    for (unsigned I = 0; I < NumJobs; ++I) {
      Programs.push_back(generateProgram(Rng));
      BatchJob J;
      J.Program = &Programs.back();
      J.Cache = randomHierarchy(Rng, Policies[Rand(0, 3)], Rand(0, 1) == 1);
      J.Backend = static_cast<SimBackend>(Rand(0, 2));
      J.Tag = "job" + std::to_string(I);
      Jobs.push_back(std::move(J));
    }
  }
};

/// Strips the fields that legitimately vary between runs (wall-clock)
/// down to the deterministic counter tuple.
std::vector<uint64_t> counterKey(const BatchReport &Rep) {
  std::vector<uint64_t> Key;
  for (const BatchResult &R : Rep.Results) {
    Key.push_back(R.Ok);
    Key.push_back(R.JobIndex);
    const SimStats &S = R.Stats;
    Key.push_back(S.NumLevels);
    for (unsigned L = 0; L < S.NumLevels; ++L) {
      Key.push_back(S.Level[L].Accesses);
      Key.push_back(S.Level[L].Misses);
    }
    Key.push_back(S.SimulatedAccesses);
    Key.push_back(S.WarpedAccesses);
  }
  return Key;
}

TEST(BatchRunner, DeterministicAcrossThreadCounts) {
  RandomBatch Batch(/*Seed=*/20220613, /*NumJobs=*/24);

  BatchReport Serial = BatchRunner(1).run(Batch.Jobs);
  ASSERT_TRUE(Serial.allOk());
  std::vector<uint64_t> Expected = counterKey(Serial);

  for (unsigned Threads : {2u, 8u}) {
    BatchReport Par = BatchRunner(Threads).run(Batch.Jobs);
    ASSERT_TRUE(Par.allOk()) << Threads << " threads";
    EXPECT_EQ(counterKey(Par), Expected)
        << "counters depend on thread count " << Threads;
  }
}

TEST(BatchRunner, ResultsStayInJobOrder) {
  RandomBatch Batch(/*Seed=*/42, /*NumJobs=*/16);
  BatchReport Rep = BatchRunner(8).run(Batch.Jobs);
  ASSERT_EQ(Rep.Results.size(), Batch.Jobs.size());
  for (size_t I = 0; I < Rep.Results.size(); ++I) {
    EXPECT_EQ(Rep.Results[I].JobIndex, I);
    EXPECT_EQ(Rep.Results[I].Tag, Batch.Jobs[I].Tag);
  }
}

TEST(BatchRunner, BackendsAgreeOnMissCounts) {
  std::mt19937 Rng(7);
  for (int Trial = 0; Trial < 6; ++Trial) {
    ScopProgram P = generateProgram(Rng);
    HierarchyConfig H = randomHierarchy(Rng, PolicyKind::Lru, true);

    std::vector<BatchJob> Jobs(3);
    for (auto &J : Jobs) {
      J.Program = &P;
      J.Cache = H;
    }
    Jobs[0].Backend = SimBackend::Warping;
    Jobs[1].Backend = SimBackend::Concrete;
    Jobs[2].Backend = SimBackend::Trace;

    BatchReport Rep = BatchRunner(3).run(Jobs);
    ASSERT_TRUE(Rep.allOk());
    const SimStats &W = Rep.Results[0].Stats;
    const SimStats &C = Rep.Results[1].Stats;
    const SimStats &T = Rep.Results[2].Stats;
    for (const SimStats *S : {&C, &T}) {
      ASSERT_EQ(S->totalAccesses(), W.totalAccesses()) << "trial " << Trial;
      for (unsigned L = 0; L < W.NumLevels; ++L)
        ASSERT_EQ(S->Level[L].Misses, W.Level[L].Misses)
            << "trial " << Trial << " level " << L;
    }
  }
}

TEST(BatchRunner, SingleJobMatchesDirectSimulation) {
  std::mt19937 Rng(99);
  ScopProgram P = generateProgram(Rng);
  HierarchyConfig H = randomHierarchy(Rng, PolicyKind::Plru, false);

  ConcreteSimulator Direct(P, H);
  SimStats Ref = Direct.run();

  BatchJob J;
  J.Program = &P;
  J.Cache = H;
  J.Backend = SimBackend::Concrete;
  BatchResult R = BatchRunner::runJob(J);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Stats.totalAccesses(), Ref.totalAccesses());
  EXPECT_EQ(R.Stats.Level[0].Misses, Ref.Level[0].Misses);
}

TEST(BatchRunner, InvalidJobsFailIndividually) {
  std::mt19937 Rng(5);
  ScopProgram P = generateProgram(Rng);

  std::vector<BatchJob> Jobs(3);
  Jobs[0].Program = &P;
  Jobs[0].Cache = HierarchyConfig::singleLevel(CacheConfig());
  Jobs[1].Program = nullptr; // Missing program.
  Jobs[1].Cache = Jobs[0].Cache;
  CacheConfig Bad;
  Bad.SizeBytes = 100; // Not set-aligned: validate() rejects it.
  Jobs[2].Program = &P;
  Jobs[2].Cache = HierarchyConfig::singleLevel(Bad);

  BatchReport Rep = BatchRunner(2).run(Jobs);
  EXPECT_TRUE(Rep.Results[0].Ok) << Rep.Results[0].Error;
  EXPECT_FALSE(Rep.Results[1].Ok);
  EXPECT_FALSE(Rep.Results[2].Ok);
  EXPECT_FALSE(Rep.allOk());
  EXPECT_NE(Rep.Results[1].Error, "");
  EXPECT_NE(Rep.Results[2].Error, "");
}

/// An element that does not divide the block size could straddle two
/// blocks, which the trace backend would count twice: every backend
/// refuses the pair, naming the array. A scalar counts only when the
/// walk visits scalars.
TEST(BatchRunner, ElementsStraddlingBlocksAreRefused) {
  ParseResult PR = parseScop(R"(
    double d; float A[64];
    for (i = 0; i < 64; i++)
      A[i] = d;
  )");
  ASSERT_TRUE(PR.ok()) << PR.message();
  const CacheConfig Block4{64, 4, 4, PolicyKind::Lru, WriteAllocate::Yes};
  const CacheConfig Block8{128, 4, 8, PolicyKind::Lru, WriteAllocate::Yes};
  for (SimBackend B : {SimBackend::Warping, SimBackend::Concrete,
                       SimBackend::Trace, SimBackend::StackDistance})
    for (bool Scalars : {false, true}) {
      SCOPED_TRACE(std::string(backendName(B)) +
                   (Scalars ? " with scalars" : ""));
      BatchJob J;
      J.Program = &PR.Program;
      J.Backend = B;
      J.Options.IncludeScalars = Scalars;
      J.Cache = HierarchyConfig::singleLevel(Block4);
      BatchResult R = BatchRunner::runJob(J);
      EXPECT_EQ(R.Ok, !Scalars) << R.Error;
      if (Scalars) {
        EXPECT_NE(R.Error.find("'d' (8 B) straddle 4 B blocks"),
                  std::string::npos)
            << R.Error;
      }
      J.Cache = HierarchyConfig::singleLevel(Block8);
      R = BatchRunner::runJob(J);
      EXPECT_TRUE(R.Ok) << R.Error;
      EXPECT_EQ(R.Stats.totalAccesses(), Scalars ? 128u : 64u);
    }
}

TEST(BatchRunner, ThrowingTasksAreCapturedAndRethrown) {
  // A task that throws must neither terminate the process (an exception
  // escaping a worker thread would) nor starve the remaining tasks; the
  // first exception resurfaces on the calling thread after the join.
  for (unsigned Threads : {1u, 4u}) {
    std::atomic<unsigned> Ran{0};
    std::vector<std::function<void()>> Tasks;
    for (int I = 0; I < 16; ++I) {
      if (I % 4 == 1)
        Tasks.push_back([] { throw std::runtime_error("injected"); });
      else
        Tasks.push_back([&Ran] { ++Ran; });
    }
    BatchRunner Runner(Threads);
    EXPECT_THROW(Runner.runTasks(Tasks), std::runtime_error)
        << Threads << " threads";
    EXPECT_EQ(Ran.load(), 12u) << Threads << " threads";
  }
}

/// Runs \p Source with parameter N bound to \p N on \p Backend, over
/// wcs-sim's default L1.
BatchResult runSource(const char *Source, int64_t N, SimBackend Backend) {
  ParseResult P = parseScop(Source, {{"N", N}}, "overflow");
  EXPECT_TRUE(P.ok()) << P.message();
  BatchJob J;
  J.Program = &P.Program;
  J.Cache = HierarchyConfig::singleLevel(
      CacheConfig{4096, 8, 64, PolicyKind::Plru, WriteAllocate::Yes});
  J.Backend = Backend;
  return BatchRunner::runJob(J);
}

/// Counts past 2^64 fail the job with "counter overflow" instead of
/// wrapping into a plausible result. Four writes per iteration for 2^62
/// iterations make exactly 2^64 accesses: the concrete walk skips the
/// repeats of the one all-hit iteration, and warping fast-forwards them,
/// so both get there in milliseconds.
TEST(BatchRunner, CounterOverflowFailsTheJob) {
  const char *Repeat = R"(
    param N;
    double A[1];
    for (i = 0; i < N; i++) {
      A[0] = 0.0; A[0] = 0.0; A[0] = 0.0; A[0] = 0.0;
    }
  )";
  for (SimBackend BE : {SimBackend::Concrete, SimBackend::Warping}) {
    BatchResult R = runSource(Repeat, int64_t(1) << 62, BE);
    EXPECT_FALSE(R.Ok) << backendName(BE);
    EXPECT_EQ(R.Error, "counter overflow") << backendName(BE);
    // One iteration fewer fits: 2^64 - 4 accesses, all but one hits.
    R = runSource(Repeat, (int64_t(1) << 62) - 1, BE);
    ASSERT_TRUE(R.Ok) << backendName(BE) << ": " << R.Error;
    EXPECT_EQ(R.Stats.totalAccesses(), ~uint64_t(0) - 3) << backendName(BE);
    EXPECT_EQ(R.Stats.Level[0].Misses, 1u) << backendName(BE);
  }
  // N^2 = 1.6e25 accesses: warping fast-forwards the outer loop by
  // N * (accesses of one inner activation), which overflows.
  BatchResult R = runSource(R"(
    param N;
    double A[N];
    for (i = 0; i < N; i++)
      for (j = 0; j < N; j++)
        A[j] = 0.0;
  )",
                            4000000000000, SimBackend::Warping);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Error, "counter overflow");
}

TEST(BatchRunner, ParseJobCountIsStrict) {
  unsigned N = 77;
  EXPECT_TRUE(parseJobCount("0", N));
  EXPECT_EQ(N, 0u);
  EXPECT_TRUE(parseJobCount("16", N));
  EXPECT_EQ(N, 16u);
  for (const char *Bad :
       {"", "-1", "+4", " 8", "8 ", "abc", "1O", "4294967296"}) {
    N = 77;
    EXPECT_FALSE(parseJobCount(Bad, N)) << "'" << Bad << "'";
    EXPECT_EQ(N, 77u) << "out param clobbered on '" << Bad << "'";
  }
  EXPECT_FALSE(parseJobCount(nullptr, N));
}

TEST(BatchRunner, PersistentPoolDrainsASharedQueue) {
  // The scheduler-style use: workers loop a caller-owned Next until it
  // says retire. Every queued task runs exactly once, on some worker,
  // and stopPool() returns only after all of them did.
  std::mutex Mu;
  std::condition_variable Cv;
  std::deque<int> Queue;
  bool Stop = false;
  std::atomic<unsigned> Ran{0};
  std::atomic<unsigned> MaxSeen{0};

  BatchRunner Runner(4);
  Runner.startPool([&](std::function<void()> &Task) {
    std::unique_lock<std::mutex> L(Mu);
    Cv.wait(L, [&] { return Stop || !Queue.empty(); });
    if (Queue.empty())
      return false;
    int V = Queue.front();
    Queue.pop_front();
    Task = [&, V] {
      ++Ran;
      unsigned Cur = static_cast<unsigned>(V);
      unsigned Prev = MaxSeen.load();
      while (Prev < Cur && !MaxSeen.compare_exchange_weak(Prev, Cur))
        ;
    };
    return true;
  });

  {
    std::lock_guard<std::mutex> L(Mu);
    for (int I = 0; I < 64; ++I)
      Queue.push_back(I);
  }
  Cv.notify_all();
  // Retire: workers drain the queue first (Next only returns false on
  // empty), then see Stop.
  {
    std::lock_guard<std::mutex> L(Mu);
    Stop = true;
  }
  Cv.notify_all();
  Runner.stopPool();
  EXPECT_EQ(Ran.load(), 64u);
  EXPECT_EQ(MaxSeen.load(), 63u);
  EXPECT_TRUE(Queue.empty());

  // A stopped pool restarts cleanly on the same runner.
  std::atomic<unsigned> Again{0};
  std::atomic<bool> Once{true};
  Runner.startPool([&](std::function<void()> &Task) {
    if (!Once.exchange(false))
      return false;
    Task = [&] { ++Again; };
    return true;
  });
  Runner.stopPool();
  EXPECT_EQ(Again.load(), 1u);
}

TEST(BatchRunner, PoolDestructorJoinsRetiredWorkers) {
  // A runner whose Next immediately retires every worker must be safe
  // to destroy without an explicit stopPool().
  std::atomic<unsigned> Polled{0};
  {
    BatchRunner Runner(3);
    Runner.startPool([&](std::function<void()> &) {
      ++Polled;
      return false;
    });
  }
  EXPECT_EQ(Polled.load(), 3u);
}

TEST(BatchRunner, PolybenchKernelAcrossThreadCounts) {
  // One real kernel at a small size, swept over configs, as wcs-sim does.
  std::string Err;
  ScopProgram P = buildKernel("gemm", ProblemSize::Mini, &Err);
  ASSERT_EQ(Err, "");

  std::vector<BatchJob> Jobs;
  for (PolicyKind K : {PolicyKind::Lru, PolicyKind::Plru}) {
    CacheConfig L1 = CacheConfig::scaledL1();
    L1.Policy = K;
    for (SimBackend B : {SimBackend::Warping, SimBackend::Concrete}) {
      BatchJob J;
      J.Program = &P;
      J.Cache = HierarchyConfig::singleLevel(L1);
      J.Backend = B;
      Jobs.push_back(std::move(J));
    }
  }

  BatchReport One = BatchRunner(1).run(Jobs);
  BatchReport Eight = BatchRunner(8).run(Jobs);
  ASSERT_TRUE(One.allOk() && Eight.allOk());
  EXPECT_EQ(counterKey(One), counterKey(Eight));
  // Warping and concrete agree per config.
  EXPECT_EQ(One.Results[0].Stats.Level[0].Misses,
            One.Results[1].Stats.Level[0].Misses);
  EXPECT_EQ(One.Results[2].Stats.Level[0].Misses,
            One.Results[3].Stats.Level[0].Misses);
}

} // namespace
