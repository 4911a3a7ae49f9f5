//===- sim/ConcreteSimulator.cpp ------------------------------------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "wcs/sim/ConcreteSimulator.h"

#include "wcs/support/MathUtil.h"
#include "wcs/support/Telemetry.h"

#include <sstream>

using namespace wcs;

std::string SimStats::str() const {
  std::ostringstream OS;
  OS << "accesses=" << totalAccesses();
  for (unsigned L = 0; L < NumLevels; ++L)
    OS << " L" << L + 1 << "-misses=" << Level[L].Misses;
  OS << " simulated=" << SimulatedAccesses << " warped=" << WarpedAccesses
     << " warps=" << Warps;
  return OS.str();
}

ConcreteSimulator::ConcreteSimulator(const ScopProgram &Program,
                                     const HierarchyConfig &CacheCfg,
                                     SimOptions Options)
    : Program(Program), Cache(CacheCfg), Options(Options),
      BlockShift(log2Exact(CacheCfg.blockBytes())) {
  Stats.NumLevels = CacheCfg.numLevels();
}

SimStats ConcreteSimulator::run() {
  telemetry::TimePoint Start = telemetry::now();
  HierarchyStepper<ConcreteLine> Step(Cache, Stats, BlockShift);
  if (MissTapFn)
    Step.Sink = &MissTapFn;
  ScopWalk(Program, Options.IncludeScalars, Options.BatchConcrete, Step)
      .run();
  Stats.Seconds = telemetry::secondsSince(Start);
  return Stats;
}
