//===- trace/TraceSimulator.cpp -------------------------------------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "wcs/trace/TraceSimulator.h"

#include "wcs/cache/ConcreteCache.h"
#include "wcs/support/MathUtil.h"
#include "wcs/support/Telemetry.h"

#include <vector>

using namespace wcs;

SimStats wcs::simulateTrace(const ScopProgram &Program,
                            const HierarchyConfig &Cache,
                            bool IncludeScalars) {
  ConcreteHierarchy H(Cache);
  const unsigned BlockShift = log2Exact(Cache.blockBytes());
  SimStats Stats;
  Stats.NumLevels = Cache.numLevels();
  telemetry::TimePoint Start = telemetry::now();
  // The trace is materialized into a buffer that is drained whenever it
  // fills, so the baseline pays for trace transport like a real
  // trace-driven pipeline (Dinero IV fed by QEMU in appendix B).
  constexpr size_t ChunkRecords = 1 << 20;
  std::vector<TraceRecord> Chunk;
  Chunk.reserve(ChunkRecords);
  auto Drain = [&] {
    for (const TraceRecord &R : Chunk) {
      HierarchyOutcome O = H.access(R.Addr >> BlockShift, R.IsWrite);
      Stats.countAccess(O.L1Hit, O.L2Accessed, O.L2Hit);
    }
    Chunk.clear();
  };
  generateTrace(Program, IncludeScalars, [&](const TraceRecord &R) {
    Chunk.push_back(R);
    if (Chunk.size() == ChunkRecords)
      Drain();
  });
  Drain();
  Stats.Seconds = telemetry::secondsSince(Start);
  return Stats;
}
