//===- bench/BenchCommon.cpp ----------------------------------------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace wcs;
using namespace wcs::bench;

ProblemSize wcs::bench::sizeFromEnv(ProblemSize Default) {
  const char *E = std::getenv("WCS_SIZE");
  if (!E)
    return Default;
  ProblemSize S = Default;
  if (!parseProblemSize(E, S))
    std::fprintf(stderr, "warning: unknown WCS_SIZE '%s' ignored\n", E);
  return S;
}

HierarchyConfig wcs::bench::scaledPolyCacheConfig() {
  CacheConfig L1{4 * 1024, 4, 64, PolicyKind::Lru, WriteAllocate::Yes};
  CacheConfig L2{32 * 1024, 4, 64, PolicyKind::Lru, WriteAllocate::Yes};
  return HierarchyConfig::twoLevel(L1, L2);
}

CacheConfig wcs::bench::fullyAssociativeTwin(const CacheConfig &C) {
  CacheConfig F = C;
  F.Assoc = C.numLines();
  F.Policy = PolicyKind::Lru;
  return F;
}

ScopProgram wcs::bench::mustBuild(const KernelInfo &K, ProblemSize S) {
  std::string Err;
  ScopProgram P = buildKernel(K, S, &Err);
  if (!Err.empty()) {
    std::fprintf(stderr, "fatal: cannot build %s at %s: %s\n", K.Name,
                 problemSizeName(S), Err.c_str());
    std::exit(1);
  }
  return P;
}

unsigned wcs::bench::jobsFromEnv(unsigned Default) {
  const char *E = std::getenv("WCS_JOBS");
  if (!E)
    return Default;
  unsigned N = Default;
  if (!parseJobCount(E, N))
    std::fprintf(stderr, "warning: ignoring malformed WCS_JOBS '%s'\n", E);
  return N;
}

BatchReport wcs::bench::runBatchOn(const std::vector<BatchJob> &Jobs,
                                   unsigned Threads) {
  BatchRunner Runner(Threads);
  BatchReport Rep = Runner.run(Jobs);
  for (const BatchResult &R : Rep.Results)
    if (!R.Ok) {
      std::fprintf(stderr, "fatal: job %zu (%s) failed: %s\n", R.JobIndex,
                   R.Tag.c_str(), R.Error.c_str());
      std::exit(1);
    }
  std::fprintf(stderr, "batch: %s\n", Rep.summary().c_str());
  return Rep;
}

void wcs::bench::requireEqualMisses(const char *Kernel, const SimStats &A,
                                    const SimStats &B) {
  bool Ok = A.totalAccesses() == B.totalAccesses();
  for (unsigned L = 0; Ok && L < A.NumLevels && L < B.NumLevels; ++L)
    Ok = A.Level[L].Misses == B.Level[L].Misses &&
         A.Level[L].Accesses == B.Level[L].Accesses;
  if (Ok)
    return;
  std::fprintf(stderr,
               "fatal: simulator disagreement on %s:\n  A: %s\n  B: %s\n",
               Kernel, A.str().c_str(), B.str().c_str());
  std::exit(1);
}

