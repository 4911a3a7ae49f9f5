//===- examples/hierarchy_explorer.cpp - Two-level hierarchies ------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
// Explores a two-level non-inclusive non-exclusive hierarchy (paper
// Sec. 2.3) on a stencil kernel: per-level miss counts from the warping
// simulator and the effect of a no-write-allocate L1.
//
//===----------------------------------------------------------------------===//

#include "wcs/polybench/Polybench.h"
#include "wcs/sim/WarpingSimulator.h"

#include <cstdio>

using namespace wcs;

int main(int argc, char **argv) {
  std::string Name = argc > 1 ? argv[1] : "jacobi-2d";
  std::string Err;
  ScopProgram P = buildKernel(Name, ProblemSize::Medium, &Err);
  if (!Err.empty()) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }

  HierarchyConfig H = HierarchyConfig::twoLevel(CacheConfig::scaledL1(),
                                                CacheConfig::scaledL2());
  std::printf("kernel %s at %s\nhierarchy %s\n\n", Name.c_str(),
              problemSizeName(ProblemSize::Medium), H.str().c_str());

  WarpingSimulator Warp(P, H);
  SimStats W = Warp.run();
  std::printf("warping simulation (Eq. 24 model, array accesses):\n");
  std::printf("  L1: %llu accesses, %llu misses (%.2f%%)\n",
              static_cast<unsigned long long>(W.Level[0].Accesses),
              static_cast<unsigned long long>(W.Level[0].Misses),
              100.0 * W.Level[0].missRatio());
  std::printf("  L2: %llu accesses, %llu misses (%.2f%%)\n",
              static_cast<unsigned long long>(W.Level[1].Accesses),
              static_cast<unsigned long long>(W.Level[1].Misses),
              100.0 * W.Level[1].missRatio());
  std::printf("  warped %.1f%% of all accesses in %llu warps\n\n",
              100.0 * (1.0 - W.nonWarpedShare()),
              static_cast<unsigned long long>(W.Warps));

  // No-write-allocate L1: write misses bypass the cache.
  HierarchyConfig HN = H;
  HN.Levels[0].WriteAlloc = WriteAllocate::No;
  WarpingSimulator WarpN(P, HN);
  SimStats WN = WarpN.run();
  std::printf("with a no-write-allocate L1: %llu L1 misses (%+.2f%%)\n",
              static_cast<unsigned long long>(WN.Level[0].Misses),
              100.0 * (static_cast<double>(WN.Level[0].Misses) /
                           W.Level[0].Misses -
                       1.0));
  return 0;
}
