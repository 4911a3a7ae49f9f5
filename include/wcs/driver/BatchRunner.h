//===- wcs/driver/BatchRunner.h - Parallel batch simulation -----*- C++ -*-===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parallel batch driver: fans a work list of (program, cache config)
/// simulation jobs across N worker threads and collects per-job results.
/// Jobs are independent (every simulator owns its entire state), so the
/// counters of each job are bit-identical regardless of thread count and
/// schedule; only wall-clock fields vary. The driver exposes the three
/// simulation backends -- warping (Algorithm 2), concrete (Algorithm 1)
/// and trace-driven (Dinero-style) -- behind one job interface, which is
/// what the command-line tool and the bench driver drive.
///
//===----------------------------------------------------------------------===//

#ifndef WCS_DRIVER_BATCHRUNNER_H
#define WCS_DRIVER_BATCHRUNNER_H

#include "wcs/cache/CacheConfig.h"
#include "wcs/scop/Program.h"
#include "wcs/sim/SimConfig.h"
#include "wcs/sim/SimStats.h"

#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

namespace wcs {

class FilteredStream;

/// The simulation engine a job runs on.
enum class SimBackend {
  Warping,  ///< Warping symbolic simulation (paper Algorithm 2).
  Concrete, ///< Non-warping simulation (paper Algorithm 1).
  Trace,    ///< Trace-driven simulation (materialized address trace).
  /// Analytical LRU model: one trace pass into per-set stack-distance
  /// histograms (the HayStack approach generalized to set-associative
  /// geometries). Exact for single-level write-allocate LRU; any other
  /// configuration fails the job with a diagnostic.
  StackDistance,
};

const char *backendName(SimBackend B);

/// Inverse of backendName. Also accepts the wcs-sim spelling "warp".
/// Returns false on an unknown name, leaving \p Out untouched.
bool parseBackendName(const std::string &Name, SimBackend &Out);

/// Strictly parses a worker-thread count (digits only, fits unsigned):
/// the one parser behind every --jobs, so the tools and wcs-bench
/// accept exactly the same inputs. Returns false on malformed input,
/// leaving \p Out untouched.
bool parseJobCount(const char *Text, unsigned &Out);

/// Refuses \p Program on \p BlockBytes-byte blocks when its walk visits
/// an array (scalars only with \p IncludeScalars) whose element size does
/// not divide the block size: such an element may straddle two blocks,
/// and every backend counts an access once, at the block of its address.
/// Returns a diagnostic naming the array, or "".
std::string validateBlockSize(const ScopProgram &Program, unsigned BlockBytes,
                              bool IncludeScalars);

/// One unit of batch work: simulate \p Program on \p Cache with \p Backend.
struct BatchJob {
  /// Non-owning; the program must outlive BatchRunner::run(). Programs are
  /// shared freely between jobs: simulation never mutates them.
  const ScopProgram *Program = nullptr;
  HierarchyConfig Cache;
  SimOptions Options;
  SimBackend Backend = SimBackend::Warping;
  /// Non-owning; must outlive run(). When set, the job answers \p Cache
  /// -- a two-level NINE hierarchy whose L1 equals the stream's -- by
  /// replaying the recorded L1-miss-filtered stream through the L2
  /// instead of simulating \p Program (which may then be null). Streams
  /// are shared freely between jobs: replay never mutates them.
  const FilteredStream *Filtered = nullptr;
  /// Label carried through to the result (e.g. "gemm/large/L1+L2").
  std::string Tag;
};

/// Outcome of one job.
struct BatchResult {
  size_t JobIndex = 0;
  std::string Tag;
  SimStats Stats;
  bool Ok = false;
  std::string Error; ///< Set when Ok is false (e.g. invalid config).
};

/// Everything run() returns: per-job results in job order plus batch-level
/// wall-clock and throughput figures.
struct BatchReport {
  std::vector<BatchResult> Results; ///< Indexed by job order.
  unsigned Threads = 1;
  double WallSeconds = 0.0;

  bool allOk() const;
  uint64_t totalAccesses() const;
  /// Sum of per-job simulation seconds (the serial-execution estimate).
  double cpuSeconds() const;
  double jobsPerSecond() const;
  double accessesPerSecond() const;

  /// One-line throughput summary for tools and benches.
  std::string summary() const;
};

/// Thread-pool batch scheduler. Worker threads pull jobs from a shared
/// atomic cursor (dynamic scheduling: long jobs do not convoy short ones)
/// and write results into a preallocated slot per job, so the result
/// vector is deterministic in content and order for any thread count.
class BatchRunner {
public:
  /// \p NumThreads = 0 selects std::thread::hardware_concurrency().
  explicit BatchRunner(unsigned NumThreads = 0);

  unsigned threads() const { return NumThreads; }

  /// Runs all jobs and blocks until completion.
  BatchReport run(const std::vector<BatchJob> &Jobs);

  /// Fans a list of independent thunks across the pool and blocks until
  /// all have run (same dynamic scheduling as run(), minus the
  /// simulation plumbing). Used by the sweep driver for work that is
  /// not a simulation job -- filtered-stream recordings, periodic
  /// passes -- but parallelizes the same way. Each task owns its slot's
  /// data, so no locking is needed as long as tasks touch disjoint
  /// state. A throwing task does not take down the process: remaining
  /// tasks still run, and the first captured exception is rethrown here
  /// after the pool joins. Callers wanting per-task failure semantics
  /// catch inside the task body.
  void runTasks(const std::vector<std::function<void()>> &Tasks);

  /// Executes a single job synchronously on the calling thread (the unit
  /// of work the pool dispatches; exposed for tests and single-job
  /// callers).
  static BatchResult runJob(const BatchJob &Job, size_t JobIndex = 0);

  /// Shared-pool admission: spawns threads() persistent workers that
  /// repeatedly pull work through \p Next. A worker calls Next with an
  /// empty task slot; Next blocks until work is available (filling the
  /// slot and returning true) or the pool is being retired (returning
  /// false, which ends that worker). The scheduling POLICY therefore
  /// lives entirely in the caller's Next -- the wcs-serve scheduler
  /// uses it for fair round-robin across requests, the daemon's
  /// connection pool blocks in accept() -- while this class keeps
  /// owning the threads. Worker T is named "<NamePrefix>-T" in traces.
  /// Tasks must not throw (there is no batch to attribute a failure
  /// to; callers catch inside the task). run()/runTasks() remain usable
  /// on a separate BatchRunner while a pool runs, but not on this one.
  void startPool(std::function<bool(std::function<void()> &)> Next,
                 const std::string &NamePrefix = "worker");

  /// Joins every pool worker. The caller must first make Next return
  /// false for all workers (e.g. flip a stop flag and wake them), or
  /// this blocks forever. No-op when no pool is running.
  void stopPool();

  ~BatchRunner() { stopPool(); }
  BatchRunner(const BatchRunner &) = delete;
  BatchRunner &operator=(const BatchRunner &) = delete;

private:
  unsigned NumThreads;
  std::vector<std::thread> Pool;
  std::function<bool(std::function<void()> &)> PoolNext;
};

} // namespace wcs

#endif // WCS_DRIVER_BATCHRUNNER_H
