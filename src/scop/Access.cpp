//===- scop/Access.cpp ----------------------------------------------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "wcs/scop/Program.h"

#include "wcs/support/MathUtil.h"

#include <cassert>

using namespace wcs;

std::optional<int64_t> ArrayInfo::byteSize() const {
  std::optional<int64_t> N = ElemBytes;
  for (int64_t D : DimSizes)
    N = N ? checkedMul(*N, D) : N;
  return N;
}

int64_t ArrayInfo::elemStride(unsigned Dim) const {
  assert(Dim < DimSizes.size() && "dimension out of range");
  int64_t S = 1;
  for (unsigned I = Dim + 1; I < DimSizes.size(); ++I)
    S *= DimSizes[I];
  return S;
}
