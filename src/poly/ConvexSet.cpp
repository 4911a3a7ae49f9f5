//===- poly/ConvexSet.cpp -------------------------------------------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "wcs/poly/ConvexSet.h"

#include "wcs/support/MathUtil.h"

#include <cassert>
#include <limits>
#include <sstream>

using namespace wcs;

void ConvexSet::addConstraint(Constraint C) {
  assert(C.Expr.numDims() <= Dims && "constraint over too many dimensions");
  if (C.Expr.numDims() < Dims)
    C.Expr = C.Expr.extendedTo(Dims);
  Cons.push_back(std::move(C));
}

ConvexSet ConvexSet::extendedTo(unsigned NumDims) const {
  assert(NumDims >= Dims && "cannot shrink a set");
  ConvexSet S(NumDims);
  for (const Constraint &C : Cons)
    S.addConstraint(Constraint(C.Expr.extendedTo(NumDims), C.K));
  return S;
}

bool ConvexSet::contains(const IterVec &At) const {
  assert(At.size() >= Dims && "point too shallow for membership test");
  for (const Constraint &C : Cons)
    if (!C.holdsAt(At))
      return false;
  return true;
}

std::optional<VarBounds>
ConvexSet::lastDimBounds(const IterVec &Prefix) const {
  assert(Dims >= 1 && "lastDimBounds on zero-dimensional set");
  unsigned Last = Dims - 1;
  assert(Prefix.size() >= Last && "prefix too short");

  int64_t Lo = std::numeric_limits<int64_t>::min();
  int64_t Hi = std::numeric_limits<int64_t>::max();
  bool HasLo = false, HasHi = false;

  for (const Constraint &C : Cons) {
    int64_t A = C.Expr.numDims() > Last ? C.Expr.coeff(Last) : 0;
    // Rest = constant + sum over prefix dims.
    int64_t Rest = C.Expr.constantTerm();
    for (unsigned I = 0; I < Last && I < C.Expr.numDims(); ++I)
      Rest += C.Expr.coeff(I) * Prefix[I];

    if (A == 0) {
      bool Holds = C.K == Constraint::Kind::EQ ? Rest == 0 : Rest >= 0;
      if (!Holds)
        return VarBounds{1, 0}; // Empty for this prefix.
      continue;
    }
    // A*x + Rest >= 0  <=>  x >= ceil(-Rest/A) (A>0) or x <= floor(-Rest/A).
    if (A > 0 || C.K == Constraint::Kind::EQ) {
      int64_t B = A > 0 ? ceilDiv(-Rest, A) : floorDiv(-Rest, A);
      // For EQ with A<0, -Rest/A is both a lower and an upper bound; the
      // branch above computes the lower one (floorDiv == exact or empty).
      if (!HasLo || B > Lo) {
        Lo = B;
        HasLo = true;
      }
    }
    if (A < 0 || C.K == Constraint::Kind::EQ) {
      int64_t B = A < 0 ? floorDiv(Rest, -A) : floorDiv(-Rest, A);
      if (!HasHi || B < Hi) {
        Hi = B;
        HasHi = true;
      }
    }
    if (C.K == Constraint::Kind::EQ && (-Rest) % A != 0)
      return VarBounds{1, 0}; // Equality has no integer solution.
  }
  if (!HasLo || !HasHi)
    return std::nullopt;
  return VarBounds{Lo, Hi};
}

std::string ConvexSet::str(const std::vector<std::string> &DimNames) const {
  std::ostringstream OS;
  OS << "{ ";
  for (size_t I = 0; I < Cons.size(); ++I) {
    if (I != 0)
      OS << " and ";
    OS << Cons[I].Expr.str(DimNames)
       << (Cons[I].K == Constraint::Kind::EQ ? " == 0" : " >= 0");
  }
  if (Cons.empty())
    OS << "true";
  OS << " }";
  return OS.str();
}
