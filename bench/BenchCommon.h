//===- bench/BenchCommon.h - Shared benchmark-harness helpers --*- C++ -*-===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the per-figure benchmark binaries: cache-config
/// presets (the scaled PolyCache setup and fully-associative twins),
/// problem-size selection via the WCS_SIZE environment variable, kernel
/// iteration, and result verification.
///
//===----------------------------------------------------------------------===//

#ifndef WCS_BENCH_BENCHCOMMON_H
#define WCS_BENCH_BENCHCOMMON_H

#include "wcs/cache/CacheConfig.h"
#include "wcs/driver/BatchRunner.h"
#include "wcs/polybench/Polybench.h"
#include "wcs/sim/SimStats.h"
#include "wcs/support/Stats.h"

#include <string>
#include <vector>

namespace wcs {
namespace bench {

/// Problem size from $WCS_SIZE (mini/small/medium/large/xlarge), or
/// \p Default.
ProblemSize sizeFromEnv(ProblemSize Default);

/// The scaled PolyCache comparison configuration (paper Sec. 6.3):
/// two-level LRU, write-back write-allocate; 4 KiB 4-way + 32 KiB 4-way.
HierarchyConfig scaledPolyCacheConfig();

/// The fully-associative LRU twin of \p C (HayStack's cache model).
CacheConfig fullyAssociativeTwin(const CacheConfig &C);

/// Builds a kernel or dies with a message.
ScopProgram mustBuild(const KernelInfo &K, ProblemSize S);

/// Worker-thread count from $WCS_JOBS, or \p Default when unset or
/// malformed (malformed values warn). 0 means every hardware thread.
unsigned jobsFromEnv(unsigned Default);

/// Runs \p Jobs on a BatchRunner with exactly \p Threads workers, dies
/// if any job failed, and prints the batch throughput summary to stderr
/// (kept off stdout so result lines stay machine-readable).
BatchReport runBatchOn(const std::vector<BatchJob> &Jobs, unsigned Threads);

/// Aborts the benchmark if two simulators disagree (soundness check that
/// runs inside every figure harness).
void requireEqualMisses(const char *Kernel, const SimStats &A,
                        const SimStats &B);

/// The geometric-mean helper now lives in wcs/support/Stats.h (shared
/// with wcs-report); re-exported here for the figure harnesses.
using wcs::GeoMean;

} // namespace bench
} // namespace wcs

#endif // WCS_BENCH_BENCHCOMMON_H
