//===- trace/PeriodicPass.cpp ---------------------------------------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "wcs/trace/PeriodicPass.h"

#include "wcs/sim/WarpingSimulator.h"

#include <cassert>

using namespace wcs;

PeriodicPassResult wcs::runPeriodicPass(const ScopProgram &Program,
                                        unsigned BlockBytes,
                                        unsigned NumSets, unsigned MaxAssoc,
                                        const SimOptions &Opts,
                                        uint64_t PilotAccesses) {
  CacheConfig C;
  C.SizeBytes =
      static_cast<uint64_t>(BlockBytes) * NumSets * MaxAssoc;
  C.BlockBytes = BlockBytes;
  C.Assoc = MaxAssoc;
  C.Policy = PolicyKind::Lru;
  C.WriteAlloc = WriteAllocate::Yes;
  assert(C.validate().empty() && "invalid periodic-pass geometry");

  WarpingSimulator Sim(Program, HierarchyConfig::singleLevel(C), Opts);
  Sim.enableDepthProfile();
  Sim.setWarpPilot(PilotAccesses);

  PeriodicPassResult R;
  R.MaxAssoc = MaxAssoc;
  R.Stats = Sim.run();
  R.Histogram.Hist = Sim.depthHist();
  // Trim trailing zero bins so bulk updates touch only populated depths.
  while (!R.Histogram.Hist.empty() && R.Histogram.Hist.back() == 0)
    R.Histogram.Hist.pop_back();
  // Everything that was not a hit below MaxAssoc -- colds and distances
  // at or beyond it -- misses at every answerable associativity. The
  // run cannot tell the two apart, nor does any consumer need it.
  R.Histogram.Beyond = R.Stats.Level[0].Misses;
  R.Histogram.Accesses = R.Stats.Level[0].Accesses;
  return R;
}
