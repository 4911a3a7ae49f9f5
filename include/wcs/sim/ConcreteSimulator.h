//===- wcs/sim/ConcreteSimulator.h - Algorithm 1 ---------------*- C++ -*-===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Non-warping cache simulation of polyhedral programs (paper
/// Algorithm 1): walk the SCoP tree, enumerate every iteration point in
/// lexicographic order, and update a concrete cache hierarchy per access.
/// This is both the baseline that warping is measured against (Fig. 6)
/// and the golden model the warping simulator is validated against.
///
//===----------------------------------------------------------------------===//

#ifndef WCS_SIM_CONCRETESIMULATOR_H
#define WCS_SIM_CONCRETESIMULATOR_H

#include "wcs/cache/ConcreteCache.h"
#include "wcs/scop/Program.h"
#include "wcs/sim/BatchWalk.h"
#include "wcs/sim/SimConfig.h"
#include "wcs/sim/SimStats.h"

namespace wcs {

/// Non-warping simulator (paper Algorithm 1).
class ConcreteSimulator {
public:
  ConcreteSimulator(const ScopProgram &Program, const HierarchyConfig &Cache,
                    SimOptions Options = SimOptions());

  /// Simulates the whole program on an initially empty hierarchy.
  SimStats run();

  /// Observer invoked only on L1 misses, in program order, with the
  /// block and the write flag: exactly the stream a NINE L2 sees. Hits
  /// never reach it, so the batched hot loop keeps running and calls it
  /// from the (rare) miss branch. This is how trace/FilteredStream
  /// records the L1-filtered stream at batched speed. Must be set before
  /// run(); may throw to abort the simulation (the exception propagates
  /// out of run()).
  using MissTap = L1MissSink;
  void setMissTap(MissTap T) { MissTapFn = std::move(T); }

private:
  void simulateNode(const Node *N, IterVec &Iter);
  void simulateLoop(const LoopNode *L, IterVec &Iter);
  void simulateAccess(const AccessNode *A, const IterVec &Iter);

  const ScopProgram &Program;
  ConcreteHierarchy Cache;
  SimOptions Options;
  SimStats Stats;
  unsigned BlockShift;
  MissTap MissTapFn;
  BatchWalker Walker; ///< The batched walk (BatchConcrete).
};

} // namespace wcs

#endif // WCS_SIM_CONCRETESIMULATOR_H
