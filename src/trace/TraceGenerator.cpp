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

namespace {

/// Counts accesses per activation: a lanes event counts trip count x
/// lanes. Throws Capped once the count reaches the cap.
struct AccessCounter {
  struct Capped {};
  uint64_t Cap;
  uint64_t Count = 0;

  void add(uint64_t N) {
    if (__builtin_add_overflow(Count, N, &Count) || Count >= Cap)
      throw Capped{};
  }
  void access(const AccessNode &, const IterVec &, int64_t) { add(1); }
  void lanes(const LoopNode &, int64_t Lo, int64_t Hi,
             std::span<WalkLane> Lanes) {
    uint64_t N;
    if (__builtin_mul_overflow(static_cast<uint64_t>(Hi - Lo) + 1,
                               Lanes.size(), &N))
      throw Capped{};
    add(N);
  }
};

} // namespace

uint64_t wcs::countAccesses(const ScopProgram &Program, bool IncludeScalars,
                            uint64_t Cap) {
  AccessCounter V{Cap};
  try {
    ScopWalk(Program, IncludeScalars, /*Batch=*/true, V).run();
  } catch (const AccessCounter::Capped &) {
    return Cap;
  }
  return V.Count;
}
