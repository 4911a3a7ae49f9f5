//===- polybench/Sizes.cpp - Problem-size handling -------------------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
// The five problem-size classes mirror PolyBench's MINI .. EXTRALARGE but
// are scaled down (roughly 1/5 in linear dimension at LARGE) so that
// non-warping baselines finish in seconds on a laptop. The paper's L/XL
// experiments correspond to our Large/ExtraLarge; cache sizes are scaled
// alongside in the benchmark configurations (see "Reproducing the
// paper's figures" in README.md).
//
//===----------------------------------------------------------------------===//

#include "wcs/polybench/Polybench.h"

#include "wcs/support/StringUtil.h"

#include <cassert>

using namespace wcs;

const char *wcs::problemSizeName(ProblemSize S) {
  switch (S) {
  case ProblemSize::Mini:
    return "MINI";
  case ProblemSize::Small:
    return "SMALL";
  case ProblemSize::Medium:
    return "MEDIUM";
  case ProblemSize::Large:
    return "LARGE";
  case ProblemSize::ExtraLarge:
    return "EXTRALARGE";
  }
  return "?";
}

bool wcs::parseProblemSize(const std::string &Name, ProblemSize &Out) {
  std::string L = toLowerAscii(Name);
  if (L == "xlarge") {
    Out = ProblemSize::ExtraLarge;
    return true;
  }
  for (unsigned I = 0; I < NumProblemSizes; ++I) {
    ProblemSize S = static_cast<ProblemSize>(I);
    if (toLowerAscii(problemSizeName(S)) == L) {
      Out = S;
      return true;
    }
  }
  return false;
}

std::map<std::string, int64_t> wcs::paramBinding(const KernelInfo &K,
                                                 ProblemSize S) {
  const std::vector<int64_t> &Vals =
      K.SizeValues[static_cast<unsigned>(S)];
  assert(Vals.size() == K.ParamNames.size() &&
         "size table does not match the parameter list");
  std::map<std::string, int64_t> Binding;
  for (size_t I = 0; I < Vals.size(); ++I)
    Binding[K.ParamNames[I]] = Vals[I];
  return Binding;
}
