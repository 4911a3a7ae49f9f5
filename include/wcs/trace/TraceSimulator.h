//===- wcs/trace/TraceSimulator.h - Trace-driven simulation -----*- C++ -*-===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A traditional trace-driven cache simulator in the style of Dinero IV
/// (the paper's baseline in appendix B and the accuracy experiments of
/// Sec. 6.4). It consumes an explicit address trace, optionally includes
/// scalar accesses and optionally propagates dirty write-backs to the L2
/// (the richer "reference" model used as measured ground truth in the
/// accuracy experiments, Figs. 11/13/14).
///
//===----------------------------------------------------------------------===//

#ifndef WCS_TRACE_TRACESIMULATOR_H
#define WCS_TRACE_TRACESIMULATOR_H

#include "wcs/cache/ConcreteCache.h"
#include "wcs/sim/SimStats.h"
#include "wcs/trace/TraceGenerator.h"

namespace wcs {

/// Options of trace-driven simulation.
struct TraceSimOptions {
  bool IncludeScalars = true;      ///< Dinero counts every access.
  bool PropagateWritebacks = true; ///< Dirty L1 victims access the L2.
};

/// Result of a trace-driven run.
struct TraceSimResult {
  SimStats Stats;
  uint64_t Writebacks = 0;       ///< L1 victim writes issued to the L2.
  uint64_t WritebackMisses = 0;  ///< Of those, L2 misses.
};

/// Trace-driven simulator over a concrete hierarchy.
class TraceSimulator {
public:
  TraceSimulator(const HierarchyConfig &Cache, TraceSimOptions Options);

  /// Feeds one record: one access, to the block of its address, as the
  /// symbolic simulators count it (BatchRunner refuses programs whose
  /// elements could straddle a block; see validateBlockSize).
  void access(const TraceRecord &R);

  /// Runs the full trace of \p Program, materialized in 1<<20-record
  /// chunks (paying for trace transport, like a real trace-driven
  /// pipeline), and returns the counters. Timing covers generation plus
  /// consumption.
  TraceSimResult runOnProgram(const ScopProgram &Program);

  const TraceSimResult &result() const { return Result; }

private:
  ConcreteHierarchy Cache;
  TraceSimOptions Options;
  TraceSimResult Result;
  unsigned BlockShift;
};

} // namespace wcs

#endif // WCS_TRACE_TRACESIMULATOR_H
