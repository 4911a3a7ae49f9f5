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
/// Sec. 6.4): it consumes an explicit address trace, optionally with the
/// scalar accesses, through a concrete hierarchy of the same Eq. (24)
/// model as the other backends.
///
//===----------------------------------------------------------------------===//

#ifndef WCS_TRACE_TRACESIMULATOR_H
#define WCS_TRACE_TRACESIMULATOR_H

#include "wcs/cache/CacheConfig.h"
#include "wcs/sim/SimStats.h"
#include "wcs/trace/TraceGenerator.h"

namespace wcs {

/// Runs the full trace of \p Program (scalar accesses only with
/// \p IncludeScalars) through a concrete \p Cache, materialized in
/// 1<<20-record chunks (paying for trace transport, like a real
/// trace-driven pipeline), and returns the counters. Each record
/// is one access, to the block of its address, as the symbolic
/// simulators count it (BatchRunner refuses programs whose elements
/// could straddle a block; see validateBlockSize). Timing covers
/// generation plus consumption.
SimStats simulateTrace(const ScopProgram &Program, const HierarchyConfig &Cache,
                       bool IncludeScalars);

} // namespace wcs

#endif // WCS_TRACE_TRACESIMULATOR_H
