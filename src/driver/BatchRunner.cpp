//===- src/driver/BatchRunner.cpp - Parallel batch simulation -------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "wcs/driver/BatchRunner.h"

#include "wcs/sim/BatchWalk.h"
#include "wcs/sim/ConcreteSimulator.h"
#include "wcs/sim/WarpingSimulator.h"
#include "wcs/support/StringUtil.h"
#include "wcs/support/Telemetry.h"
#include "wcs/trace/FilteredStream.h"
#include "wcs/trace/StackDistance.h"
#include "wcs/trace/TraceSimulator.h"

#include <atomic>
#include <cstdio>
#include <exception>
#include <mutex>
#include <thread>

using namespace wcs;

const char *wcs::backendName(SimBackend B) {
  switch (B) {
  case SimBackend::Warping:
    return "warping";
  case SimBackend::Concrete:
    return "concrete";
  case SimBackend::Trace:
    return "trace";
  case SimBackend::StackDistance:
    return "stack-distance";
  }
  return "?";
}

bool wcs::parseBackendName(const std::string &Name, SimBackend &Out) {
  std::string L = toLowerAscii(Name);
  if (L == "warping" || L == "warp")
    Out = SimBackend::Warping;
  else if (L == "concrete")
    Out = SimBackend::Concrete;
  else if (L == "trace")
    Out = SimBackend::Trace;
  else if (L == "stack-distance" || L == "stackdistance")
    Out = SimBackend::StackDistance;
  else
    return false;
  return true;
}

bool BatchReport::allOk() const {
  for (const BatchResult &R : Results)
    if (!R.Ok)
      return false;
  return true;
}

uint64_t BatchReport::totalAccesses() const {
  uint64_t N = 0;
  for (const BatchResult &R : Results)
    if (R.Ok)
      N += R.Stats.totalAccesses();
  return N;
}

double BatchReport::cpuSeconds() const {
  double S = 0.0;
  for (const BatchResult &R : Results)
    if (R.Ok)
      S += R.Stats.Seconds;
  return S;
}

double BatchReport::jobsPerSecond() const {
  return WallSeconds > 0.0 ? Results.size() / WallSeconds : 0.0;
}

double BatchReport::accessesPerSecond() const {
  return WallSeconds > 0.0 ? totalAccesses() / WallSeconds : 0.0;
}

std::string BatchReport::summary() const {
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "%zu jobs on %u threads in %.3f s  (%.1f jobs/s, %.2e "
                "accesses/s, %.2fx vs serial)",
                Results.size(), Threads, WallSeconds, jobsPerSecond(),
                accessesPerSecond(),
                WallSeconds > 0.0 ? cpuSeconds() / WallSeconds : 0.0);
  return Buf;
}

BatchRunner::BatchRunner(unsigned NumThreads) : NumThreads(NumThreads) {
  if (this->NumThreads == 0) {
    unsigned HW = std::thread::hardware_concurrency();
    this->NumThreads = HW == 0 ? 1 : HW;
  }
}

std::string wcs::validateBlockSize(const ScopProgram &Program,
                                   unsigned BlockBytes,
                                   bool IncludeScalars) {
  for (const AccessNode *A : Program.accesses()) {
    const ArrayInfo &Arr = Program.array(A->ArrayId);
    if (walkVisits(Program, *A, IncludeScalars) && Arr.ElemBytes != 0 &&
        BlockBytes % Arr.ElemBytes != 0)
      return "elements of '" + Arr.Name + "' (" +
             std::to_string(Arr.ElemBytes) + " B) straddle " +
             std::to_string(BlockBytes) +
             " B blocks: the element size must divide the block size";
  }
  return "";
}

BatchResult BatchRunner::runJob(const BatchJob &Job, size_t JobIndex) {
  telemetry::Span JobSpan("batch.job");
  JobSpan.arg("tag", Job.Tag);
  JobSpan.arg("backend",
              Job.Filtered ? "replay" : backendName(Job.Backend));
  BatchResult R;
  R.JobIndex = JobIndex;
  R.Tag = Job.Tag;
  if (!Job.Program && !Job.Filtered) {
    R.Error = "job has no program";
    return R;
  }
  std::string CfgErr = Job.Cache.validate();
  if (CfgErr.empty() && Job.Program)
    CfgErr = validateBlockSize(*Job.Program, Job.Cache.blockBytes(),
                               Job.Options.IncludeScalars);
  if (!CfgErr.empty()) {
    R.Error = CfgErr;
    return R;
  }
  // Exception barrier: a throwing job (e.g. bad_alloc materializing a
  // trace) must become a per-job failure, not escape a worker thread
  // and terminate the whole batch.
  try {
    if (Job.Filtered) {
      // Filtered-stream replay: the recorded L1-miss stream drives the
      // L2 directly (NINE fast path of the sweep driver).
      std::string Why;
      if (!Job.Filtered->answersHierarchy(Job.Cache, &Why)) {
        R.Error = Why;
        return R;
      }
      R.Stats = Job.Filtered->replay(Job.Cache.Levels[1]);
      R.Ok = true;
      return R;
    }
    switch (Job.Backend) {
    case SimBackend::Warping: {
      WarpingSimulator Sim(*Job.Program, Job.Cache, Job.Options);
      R.Stats = Sim.run();
      break;
    }
    case SimBackend::Concrete: {
      ConcreteSimulator Sim(*Job.Program, Job.Cache, Job.Options);
      R.Stats = Sim.run();
      break;
    }
    case SimBackend::Trace:
      // Every backend counts an access once, at the block of its
      // address: validateBlockSize above refused the programs whose
      // elements could straddle two blocks.
      R.Stats =
          simulateTrace(*Job.Program, Job.Cache, Job.Options.IncludeScalars);
      break;
    case SimBackend::StackDistance: {
      const CacheConfig &C = Job.Cache.Levels.front();
      if (Job.Cache.numLevels() != 1 || !C.answeredByStackDistance()) {
        R.Error = "the stack-distance backend models single-level "
                  "write-allocate LRU only";
        return R;
      }
      double Seconds = 0.0;
      SetDistanceBank Bank =
          profileProgramSets(*Job.Program, C.BlockBytes, C.numSets(),
                             C.Assoc, Job.Options.IncludeScalars, &Seconds);
      R.Stats.NumLevels = 1;
      R.Stats.Level[0].Accesses = Bank.totalAccesses();
      R.Stats.Level[0].Misses = Bank.missesForCache(C);
      // The analytical model walks the trace instead of a cache: every
      // access is "simulated" in the explicit-work sense, none warped.
      R.Stats.SimulatedAccesses = Bank.totalAccesses();
      R.Stats.Seconds = Seconds;
      break;
    }
    }
  } catch (const std::exception &E) {
    R.Error = E.what();
    return R;
  } catch (...) {
    R.Error = "unknown exception";
    return R;
  }
  R.Ok = true;
  return R;
}

bool wcs::parseJobCount(const char *Text, unsigned &Out) {
  uint64_t V;
  if (!Text || !parseUInt64(Text, V, 0xFFFFFFFFu))
    return false;
  Out = static_cast<unsigned>(V);
  return true;
}

void BatchRunner::startPool(
    std::function<bool(std::function<void()> &)> Next,
    const std::string &NamePrefix) {
  stopPool();
  PoolNext = std::move(Next);
  Pool.reserve(NumThreads);
  for (unsigned T = 0; T < NumThreads; ++T)
    Pool.emplace_back([this, Name = NamePrefix + "-" + std::to_string(T)] {
      telemetry::setThreadName(Name);
      std::function<void()> Task;
      while (PoolNext(Task)) {
        Task();
        // Drop captured state promptly: a task may pin large request
        // state (program, configs) that must not outlive its run by a
        // whole blocking Next call.
        Task = nullptr;
      }
    });
}

void BatchRunner::stopPool() {
  for (std::thread &T : Pool)
    T.join();
  Pool.clear();
  PoolNext = nullptr;
}

void BatchRunner::runTasks(const std::vector<std::function<void()>> &Tasks) {
  unsigned Threads = static_cast<unsigned>(std::min<size_t>(
      NumThreads, std::max<size_t>(1, Tasks.size())));
  std::atomic<size_t> Cursor{0};
  // An exception escaping a worker thread would terminate the process,
  // so the pool captures the first one, keeps draining the remaining
  // tasks (they own independent result slots), and rethrows on the
  // caller's thread after the join. Callers that want per-task failure
  // handling must catch inside the task body.
  std::mutex ErrorMutex;
  std::exception_ptr FirstError;
  auto Worker = [&]() {
    for (;;) {
      size_t I = Cursor.fetch_add(1, std::memory_order_relaxed);
      if (I >= Tasks.size())
        return;
      try {
        Tasks[I]();
      } catch (...) {
        std::lock_guard<std::mutex> Lock(ErrorMutex);
        if (!FirstError)
          FirstError = std::current_exception();
      }
    }
  };
  if (Threads <= 1) {
    Worker();
  } else {
    std::vector<std::thread> Pool;
    Pool.reserve(Threads);
    for (unsigned T = 0; T < Threads; ++T)
      Pool.emplace_back(Worker);
    for (std::thread &T : Pool)
      T.join();
  }
  if (FirstError)
    std::rethrow_exception(FirstError);
}

BatchReport BatchRunner::run(const std::vector<BatchJob> &Jobs) {
  BatchReport Report;
  Report.Results.resize(Jobs.size());
  Report.Threads = static_cast<unsigned>(
      std::min<size_t>(NumThreads, std::max<size_t>(1, Jobs.size())));

  telemetry::Span RunSpan("batch.run");
  RunSpan.arg("jobs", static_cast<uint64_t>(Jobs.size()));
  RunSpan.arg("threads", static_cast<uint64_t>(Report.Threads));
  telemetry::TimePoint T0 = telemetry::now();

  // One thunk per job over the shared fan-out: each task owns its
  // preallocated result slot, so no lock is needed.
  std::vector<std::function<void()>> Tasks;
  Tasks.reserve(Jobs.size());
  for (size_t I = 0; I < Jobs.size(); ++I)
    Tasks.push_back(
        [&Jobs, &Report, I] { Report.Results[I] = runJob(Jobs[I], I); });
  runTasks(Tasks);

  Report.WallSeconds = telemetry::secondsSince(T0);
  return Report;
}
