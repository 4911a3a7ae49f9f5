//===- sim/SymbolicCache.cpp ----------------------------------------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "wcs/sim/SymbolicCache.h"

#include <algorithm>
#include <cassert>

using namespace wcs;

template class wcs::CacheHierarchy<SymTag>;

EpochTable::EpochTable(size_t MinCollectSize)
    : Prefixes(1), Marked(1, 0), MinLimit(std::max<size_t>(MinCollectSize, 2)),
      Limit(MinLimit) {}

uint32_t EpochTable::add(const IterVec &Prefix) {
  if (!Free.empty()) {
    uint32_t E = Free.back();
    Free.pop_back();
    Prefixes[E] = Prefix;
    return E;
  }
  assert(Prefixes.size() < UINT32_MAX && "epoch table overflow");
  Prefixes.push_back(Prefix);
  Marked.push_back(0);
  return static_cast<uint32_t>(Prefixes.size() - 1);
}

IterVec EpochTable::iterOf(const SymTag &T, unsigned Depth) const {
  if (Depth == 0)
    return IterVec();
  IterVec V = Prefixes[T.Epoch];
  assert(V.size() + 1 == Depth && "tag epoch does not match node depth");
  V.push(T.X);
  return V;
}

void EpochTable::beginMark() {
  std::fill(Marked.begin(), Marked.end(), 0);
  Marked[0] = 1;
}

void EpochTable::markTags(const SymbolicHierarchy &H) {
  for (unsigned Lv = 0; Lv < H.numLevels(); ++Lv) {
    const SymbolicCache &C = H.level(Lv);
    for (unsigned S = 0; S < C.numSets(); ++S)
      for (unsigned W = 0; W < C.assoc(); ++W)
        Marked[C.tagAt(S, W).Epoch] = 1;
  }
}

void EpochTable::sweep() {
  Free.clear();
  size_t Live = 0;
  // Highest index first, so add() hands out the lowest free index.
  for (size_t E = Prefixes.size(); E-- > 0;) {
    if (Marked[E])
      ++Live;
    else
      Free.push_back(static_cast<uint32_t>(E));
  }
  Limit = std::max(MinLimit, 2 * Live);
}
