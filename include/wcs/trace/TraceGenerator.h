//===- wcs/trace/TraceGenerator.h - Memory-trace generation -----*- C++ -*-===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generates the explicit memory-access trace of a ScopProgram, streamed
/// record by record in execution order.
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

/// Options of trace generation.
struct TraceOptions {
  bool IncludeScalars = false; ///< Emit scalar accesses (Dinero sees them).
};

/// Streams the full access trace of \p Program into \p Sink, in execution
/// order. Returns the number of records emitted.
uint64_t generateTrace(const ScopProgram &Program, const TraceOptions &Opts,
                       const std::function<void(const TraceRecord &)> &Sink);

} // namespace wcs

#endif // WCS_TRACE_TRACEGENERATOR_H
