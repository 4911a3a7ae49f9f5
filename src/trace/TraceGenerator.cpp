//===- trace/TraceGenerator.cpp -------------------------------------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "wcs/trace/TraceGenerator.h"

#include <cassert>

using namespace wcs;

namespace {

/// Recursive streaming walk behind generateTrace.
class StreamWalk {
public:
  StreamWalk(const ScopProgram &P, const TraceOptions &Opts,
             const std::function<void(const TraceRecord &)> &Sink)
      : P(P), Opts(Opts), Sink(Sink) {}

  uint64_t run() {
    IterVec Iter;
    for (const std::unique_ptr<Node> &R : P.roots())
      visit(R.get(), Iter);
    return Count;
  }

private:
  void visit(const Node *N, IterVec &Iter) {
    if (const LoopNode *L = asLoop(N)) {
      std::optional<VarBounds> B = L->Domain.lastDimBounds(Iter);
      assert(B && "loop domain must be bounded");
      if (B->empty())
        return;
      bool NeedMembership = !L->Domain.isSingleDisjunct();
      Iter.push(0);
      for (int64_t X = B->Lo; X <= B->Hi; ++X) {
        Iter.back() = X;
        if (NeedMembership && !L->Domain.contains(Iter))
          continue;
        for (const std::unique_ptr<Node> &C : L->Children)
          visit(C.get(), Iter);
      }
      Iter.pop();
      return;
    }
    const AccessNode *A = asAccess(N);
    const ArrayInfo &Arr = P.array(A->ArrayId);
    if (!Opts.IncludeScalars && Arr.isScalar())
      return;
    if (A->Guarded && !A->Domain.contains(Iter))
      return;
    Sink(TraceRecord{A->Address.eval(Iter), Arr.ElemBytes, A->isWrite()});
    ++Count;
  }

  const ScopProgram &P;
  const TraceOptions &Opts;
  const std::function<void(const TraceRecord &)> &Sink;
  uint64_t Count = 0;
};

} // namespace

uint64_t
wcs::generateTrace(const ScopProgram &Program, const TraceOptions &Opts,
                   const std::function<void(const TraceRecord &)> &Sink) {
  StreamWalk W(Program, Opts, Sink);
  return W.run();
}
