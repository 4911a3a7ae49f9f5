//===- wcs/trace/TraceGenerator.h - Memory-trace generation -----*- C++ -*-===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generates the explicit memory-access trace of a ScopProgram, streamed
/// record by record in execution order: a visitor of the program-order
/// walk (sim/BatchWalk.h) in its per-access reference mode -- the
/// independent program-order reference of the tests, and the per-record
/// cost the trace-driven baseline of Fig. 12 must pay. The walk's
/// countAccesses counts the same records without generating them.
///
//===----------------------------------------------------------------------===//

#ifndef WCS_TRACE_TRACEGENERATOR_H
#define WCS_TRACE_TRACEGENERATOR_H

#include "wcs/scop/Program.h"

#include <cstdint>
#include <functional>

namespace wcs {

/// One memory access of the trace.
struct TraceRecord {
  int64_t Addr;
  uint32_t Size;
  bool IsWrite;
};

/// Streams the full access trace of \p Program into \p Sink, in execution
/// order, scalar accesses only with \p IncludeScalars (Dinero sees
/// them). Returns the number of records emitted.
uint64_t generateTrace(const ScopProgram &Program, bool IncludeScalars,
                       const std::function<void(const TraceRecord &)> &Sink);

} // namespace wcs

#endif // WCS_TRACE_TRACEGENERATOR_H
