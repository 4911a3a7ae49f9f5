//===- trace/TraceSimulator.cpp -------------------------------------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "wcs/trace/TraceSimulator.h"

#include "wcs/support/MathUtil.h"
#include "wcs/support/Telemetry.h"

#include <vector>

using namespace wcs;

TraceSimulator::TraceSimulator(const HierarchyConfig &CacheCfg,
                               TraceSimOptions Options)
    : Cache(CacheCfg, Options.PropagateWritebacks), Options(Options),
      BlockShift(log2Exact(CacheCfg.blockBytes())),
      BlockBytes(CacheCfg.blockBytes()) {
  Result.Stats.NumLevels = CacheCfg.numLevels();
}

void TraceSimulator::access(const TraceRecord &R) {
  // An access may straddle a block boundary; real trace simulators split
  // it into one access per touched block.
  BlockId First = R.Addr >> BlockShift;
  BlockId Last = (R.Addr + R.Size - 1) >> BlockShift;
  for (BlockId B = First; B <= Last; ++B) {
    HierarchyOutcome O = Cache.access(B, R.IsWrite);
    Result.Stats.countAccess(O.L1Hit, O.L2Accessed, O.L2Hit);
    Result.Writebacks += O.L2Writebacks;
    Result.WritebackMisses += O.L2WritebackMisses;
  }
}

TraceSimResult TraceSimulator::runOnProgram(const ScopProgram &Program) {
  telemetry::TimePoint Start = telemetry::now();
  TraceOptions TO;
  TO.IncludeScalars = Options.IncludeScalars;
  // The trace is materialized into a buffer that is drained whenever it
  // fills, so the baseline pays for trace transport like a real
  // trace-driven pipeline (Dinero IV fed by QEMU in appendix B).
  constexpr size_t ChunkRecords = 1 << 20;
  std::vector<TraceRecord> Chunk;
  Chunk.reserve(ChunkRecords);
  auto Drain = [&] {
    for (const TraceRecord &R : Chunk)
      access(R);
    Chunk.clear();
  };
  generateTrace(Program, TO, [&](const TraceRecord &R) {
    Chunk.push_back(R);
    if (Chunk.size() == ChunkRecords)
      Drain();
  });
  Drain();
  Result.Stats.Seconds = telemetry::secondsSince(Start);
  return Result;
}
