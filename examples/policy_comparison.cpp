//===- examples/policy_comparison.cpp - Replacement-policy study ----------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
// A miniature of the paper's Fig. 10 experiment: one PolyBench kernel
// simulated under LRU, FIFO, PLRU and Quad-age LRU on the same
// set-associative geometry, plus the fully-associative LRU model
// (HayStack's cache model) computed from exact stack distances. Pass a
// kernel name to study a different one:  ./policy_comparison doitgen
//
//===----------------------------------------------------------------------===//

#include "wcs/polybench/Polybench.h"
#include "wcs/sim/WarpingSimulator.h"
#include "wcs/trace/StackDistance.h"

#include <cstdio>
#include <string>

using namespace wcs;

int main(int argc, char **argv) {
  std::string Name = argc > 1 ? argv[1] : "durbin";
  std::string Err;
  ScopProgram P = buildKernel(Name, ProblemSize::Medium, &Err);
  if (!Err.empty()) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }

  CacheConfig Base = CacheConfig::scaledL1();
  std::printf("kernel %s at %s, cache %s (policy varies)\n\n", Name.c_str(),
              problemSizeName(ProblemSize::Medium), Base.str().c_str());
  std::printf("%-16s %12s %12s %14s\n", "policy", "misses", "miss ratio",
              "vs set-assoc LRU");

  uint64_t LruMisses = 0;
  for (PolicyKind K : {PolicyKind::Lru, PolicyKind::Fifo, PolicyKind::Plru,
                       PolicyKind::QuadAgeLru}) {
    CacheConfig C = Base;
    C.Policy = K;
    WarpingSimulator Sim(P, HierarchyConfig::singleLevel(C));
    SimStats S = Sim.run();
    if (K == PolicyKind::Lru)
      LruMisses = S.Level[0].Misses;
    std::printf("%-16s %12llu %11.2f%% %13.3fx\n", policyName(K),
                static_cast<unsigned long long>(S.Level[0].Misses),
                100.0 * S.Level[0].missRatio(),
                static_cast<double>(S.Level[0].Misses) / LruMisses);
  }

  // HayStack's model: a fully-associative LRU cache of the same capacity,
  // derived from the exact stack-distance histogram of a one-set bank in
  // one pass.
  SetDistanceBank Prof =
      profileProgramSets(P, Base.BlockBytes, 1, Base.numLines());
  uint64_t FA = Prof.missesForAssoc(Base.numLines());
  std::printf("%-16s %12llu %11.2f%% %13.3fx\n", "FA-LRU (model)",
              static_cast<unsigned long long>(FA),
              100.0 * static_cast<double>(FA) / Prof.totalAccesses(),
              static_cast<double>(FA) / LruMisses);

  std::printf("\nThe paper's Fig. 10 finding: most kernels are policy-"
              "insensitive, but kernels like\ndurbin and doitgen separate "
              "the policies (Quad-age LRU's scan resistance helps,\nFIFO "
              "hurts), which is exactly why warping's support for real "
              "policies matters.\n");
  return 0;
}
