//===- sim/ConcreteSimulator.cpp ------------------------------------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "wcs/sim/ConcreteSimulator.h"

#include "wcs/support/MathUtil.h"
#include "wcs/support/Telemetry.h"

#include <cassert>
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
      BlockShift(log2Exact(CacheCfg.blockBytes())),
      Walker(Program, Options.IncludeScalars, BlockShift) {
  Stats.NumLevels = CacheCfg.numLevels();
}

SimStats ConcreteSimulator::run() {
  telemetry::TimePoint Start = telemetry::now();
  IterVec Iter;
  for (const std::unique_ptr<Node> &R : Program.roots())
    simulateNode(R.get(), Iter);
  Stats.Seconds = telemetry::secondsSince(Start);
  return Stats;
}

void ConcreteSimulator::simulateNode(const Node *N, IterVec &Iter) {
  if (const LoopNode *L = asLoop(N))
    simulateLoop(L, Iter);
  else
    simulateAccess(asAccess(N), Iter);
}

void ConcreteSimulator::simulateLoop(const LoopNode *L, IterVec &Iter) {
  std::optional<VarBounds> B = L->Domain.lastDimBounds(Iter);
  assert(B && "loop domain must be bounded");
  if (B->empty())
    return;
  if (Options.BatchConcrete && BatchWalker::batchable(L)) {
    Walker.walk(L, Iter, B->Lo, B->Hi, Cache, Stats, /*Epoch=*/0,
                MissTapFn ? &MissTapFn : nullptr);
    return;
  }
  // Domains with several disjuncts may have holes inside the hull; test
  // membership per iteration in that case (Algorithm 1 line 5).
  bool NeedMembership = !L->Domain.isSingleDisjunct();
  Iter.push(0);
  for (int64_t X = B->Lo; X <= B->Hi; ++X) {
    Iter.back() = X;
    if (NeedMembership && !L->Domain.contains(Iter))
      continue;
    for (const std::unique_ptr<Node> &C : L->Children)
      simulateNode(C.get(), Iter);
  }
  Iter.pop();
}

void ConcreteSimulator::simulateAccess(const AccessNode *A,
                                       const IterVec &Iter) {
  if (!Options.IncludeScalars && Program.array(A->ArrayId).isScalar())
    return;
  if (A->Guarded && !A->Domain.contains(Iter))
    return;
  BlockId B = A->Address.eval(Iter) >> BlockShift;
  HierarchyOutcome O = Cache.access(B, A->isWrite());
  if (MissTapFn && !O.L1Hit)
    MissTapFn(B, A->isWrite());
  ++Stats.SimulatedAccesses;
  ++Stats.Level[0].Accesses;
  if (!O.L1Hit)
    ++Stats.Level[0].Misses;
  if (O.L2Accessed) {
    ++Stats.Level[1].Accesses;
    if (!O.L2Hit)
      ++Stats.Level[1].Misses;
  }
}
