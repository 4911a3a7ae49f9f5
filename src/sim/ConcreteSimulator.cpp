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
      BlockShift(log2Exact(CacheCfg.blockBytes())) {
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
  // Domains with several disjuncts may have holes inside the hull; test
  // membership per iteration in that case (Algorithm 1 line 5).
  bool NeedMembership = !L->Domain.isSingleDisjunct();
  if (Options.BatchConcrete && !NeedMembership && loopIsBatchable(L)) {
    simulateLoopBatched(L, Iter, B->Lo, B->Hi);
    return;
  }
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

bool ConcreteSimulator::loopIsBatchable(const LoopNode *L) const {
  for (const std::unique_ptr<Node> &C : L->Children) {
    const AccessNode *A = asAccess(C.get());
    if (!A || A->Guarded)
      return false;
  }
  return true;
}

void ConcreteSimulator::simulateLoopBatched(const LoopNode *L, IterVec &Iter,
                                            int64_t Lo, int64_t Hi) {
  // Per included child: start address at X = Lo, plus the constant
  // stride its affine address takes along the innermost iterator. From
  // there the whole activation is add/shift address generation.
  Lanes.clear();
  Iter.push(Lo);
  for (const std::unique_ptr<Node> &C : L->Children) {
    const AccessNode *A = asAccess(C.get());
    if (!Options.IncludeScalars && Program.array(A->ArrayId).isScalar())
      continue;
    int64_t Stride =
        A->Address.numDims() > L->Depth ? A->Address.coeff(L->Depth) : 0;
    Lanes.push_back(BatchLane{A->Address.eval(Iter), Stride, A->isWrite()});
  }
  Iter.pop();
  if (Lanes.empty())
    return;

  // Chunks are flushed at iteration boundaries, so accessBatch always
  // sees whole iterations in program order. 1024 entries = 8 KiB keeps
  // the buffer L1-resident between the two loops; raw-pointer writes
  // keep the generating loop free of per-element size bookkeeping.
  constexpr size_t ChunkCap = 1024;
  BatchBuf.resize(ChunkCap + Lanes.size());
  BatchedAccess *const Begin = BatchBuf.data();
  BatchedAccess *const Flush = Begin + ChunkCap;
  BatchedAccess *Out = Begin;
  BatchCounters C;
  const ConcreteHierarchy::L1MissSink *Sink =
      MissTapFn ? &MissTapFn : nullptr;
  for (int64_t X = Lo; X <= Hi; ++X) {
    for (BatchLane &Ln : Lanes) {
      *Out++ = BatchedAccess::make(Ln.Addr >> BlockShift, Ln.IsWrite);
      Ln.Addr += Ln.Stride;
    }
    if (Out >= Flush) {
      Cache.accessBatch(Begin, static_cast<size_t>(Out - Begin), C, Sink);
      Out = Begin;
    }
  }
  if (Out != Begin)
    Cache.accessBatch(Begin, static_cast<size_t>(Out - Begin), C, Sink);
  Stats.SimulatedAccesses += C.L1Accesses;
  Stats.Level[0].Accesses += C.L1Accesses;
  Stats.Level[0].Misses += C.L1Misses;
  if (Stats.NumLevels > 1) {
    Stats.Level[1].Accesses += C.L2Accesses;
    Stats.Level[1].Misses += C.L2Misses;
  }
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
