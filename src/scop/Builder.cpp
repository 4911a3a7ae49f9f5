//===- scop/Builder.cpp ---------------------------------------------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "wcs/scop/Builder.h"

#include <cassert>

using namespace wcs;

ScopBuilder::ScopBuilder(std::string Name) { P.Name = std::move(Name); }

unsigned ScopBuilder::addArray(std::string Name, unsigned ElemBytes,
                               std::vector<int64_t> DimSizes) {
  ArrayInfo A;
  A.Name = std::move(Name);
  A.ElemBytes = ElemBytes;
  A.DimSizes = std::move(DimSizes);
  P.mutableArrays().push_back(std::move(A));
  return static_cast<unsigned>(P.mutableArrays().size() - 1);
}

unsigned ScopBuilder::addScalar(std::string Name, unsigned ElemBytes) {
  return addArray(std::move(Name), ElemBytes, {});
}

AffineExpr ScopBuilder::iter(const std::string &Name) const {
  for (unsigned I = 0; I < IterNames.size(); ++I)
    if (IterNames[I] == Name)
      return AffineExpr::dim(depth(), I);
  assert(false && "unknown iterator name");
  return AffineExpr(depth());
}

AffineExpr ScopBuilder::iterAt(unsigned Level) const {
  assert(Level < depth() && "iterator level out of range");
  return AffineExpr::dim(depth(), Level);
}

AffineExpr ScopBuilder::cst(int64_t C) const {
  return AffineExpr::constant(depth(), C);
}

void ScopBuilder::beginLoop(std::string Name, AffineExpr Lo, AffineExpr Hi) {
  unsigned D = depth();
  auto L = std::make_unique<LoopNode>();
  L->IterName = Name;
  L->Depth = D;

  ConvexSet Dom = CurDomain.extendedTo(D + 1);
  AffineExpr X = AffineExpr::dim(D + 1, D);
  Dom.addConstraint(Constraint::ge(X - Lo.extendedTo(D + 1)));
  Dom.addConstraint(Constraint::ge(Hi.extendedTo(D + 1) - X));
  L->Domain = Dom;

  LoopNode *Raw = L.get();
  appendNode(std::move(L));
  OpenLoops.push_back(Raw);
  IterNames.push_back(std::move(Name));
  DomainStack.push_back(std::move(CurDomain));
  CurDomain = std::move(Dom);
}

void ScopBuilder::endLoop() {
  assert(!OpenLoops.empty() && "endLoop without beginLoop");
  assert(OpenGuards == 0 && "guard still open at endLoop");
  OpenLoops.pop_back();
  IterNames.pop_back();
  CurDomain = std::move(DomainStack.back());
  DomainStack.pop_back();
}

void ScopBuilder::beginGuard(Constraint C) {
  DomainStack.push_back(CurDomain);
  Constraint Ext(C.Expr.extendedTo(depth()), C.K);
  CurDomain.addConstraint(std::move(Ext));
  ++OpenGuards;
}

void ScopBuilder::endGuard() {
  assert(OpenGuards > 0 && "endGuard without beginGuard");
  --OpenGuards;
  CurDomain = std::move(DomainStack.back());
  DomainStack.pop_back();
}

void ScopBuilder::access(unsigned ArrayId, AccessKind K,
                         std::vector<AffineExpr> Subscripts) {
  assert(ArrayId < P.mutableArrays().size() && "unknown array");
  auto A = std::make_unique<AccessNode>();
  A->ArrayId = ArrayId;
  A->AKind = K;
  A->Depth = depth();
  A->Subscripts = std::move(Subscripts);
  A->Domain = CurDomain;
  A->Guarded = OpenGuards > 0;
  appendNode(std::move(A));
}

void ScopBuilder::appendNode(std::unique_ptr<Node> N) {
  if (OpenLoops.empty())
    P.mutableRoots().push_back(std::move(N));
  else
    OpenLoops.back()->Children.push_back(std::move(N));
}

ScopProgram ScopBuilder::finish(std::string *Error, int64_t AlignBytes) {
  assert(OpenLoops.empty() && "finish with open loops");
  assert(OpenGuards == 0 && "finish with open guards");
  std::string E = assignLayout(P, AlignBytes);
  if (E.empty())
    E = P.finalize();
  if (Error)
    *Error = E;
  return std::move(P);
}
