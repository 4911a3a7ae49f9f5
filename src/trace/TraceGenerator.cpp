//===- trace/TraceGenerator.cpp -------------------------------------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "wcs/trace/TraceGenerator.h"

#include "wcs/sim/BatchWalk.h"

using namespace wcs;

uint64_t
wcs::generateTrace(const ScopProgram &Program, bool IncludeScalars,
                   const std::function<void(const TraceRecord &)> &Sink) {
  // No lanes event: the walk reports every access on its own.
  struct Records {
    const ScopProgram &P;
    const std::function<void(const TraceRecord &)> &Sink;
    uint64_t Count = 0;

    void access(const AccessNode &A, const IterVec &, int64_t Addr) {
      Sink(TraceRecord{Addr, P.array(A.ArrayId).ElemBytes, A.isWrite()});
      ++Count;
    }
  } V{Program, Sink};
  ScopWalk(Program, IncludeScalars, /*Batch=*/false, V).run();
  return V.Count;
}
