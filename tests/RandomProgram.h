//===- tests/RandomProgram.h - Randomized SCoP/cache generators -*- C++ -*-===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Randomized program and cache-geometry generators shared by the
/// property-test suites (simulator equivalence, batch determinism,
/// stack-distance cross-checks). All randomness flows from the caller's
/// seeded engine, so every failure is reproducible from the test name.
///
//===----------------------------------------------------------------------===//

#ifndef WCS_TESTS_RANDOMPROGRAM_H
#define WCS_TESTS_RANDOMPROGRAM_H

#include "wcs/cache/CacheConfig.h"
#include "wcs/scop/Builder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

namespace wcs {
namespace testutil {

/// The loop shapes generateProgram draws.
enum class ProgramShape {
  /// Loop nests of depth 1-3 with constant or triangular bounds.
  Plain,
  /// About half the nests instead end in an innermost loop of 1,025 to
  /// 1,400 iterations, at depth 1 or 2, whose accesses ignore its
  /// iterator: every activation is then one run of repeated iterations
  /// longer than a 1,024-op batch chunk.
  LongRuns,
  /// The Plain program plus one nest: an outer loop of 100 to 400
  /// iterations around 1-3 innermost loops of 1-4 iterations, with
  /// sibling accesses before, between and after them. The inner
  /// accesses move 0 or 1 element per iteration, so most activations
  /// are one or two runs, and a batch chunk fills across many of them:
  /// some activation ends past a chunk's flush mark.
  ShortActivations,
};

/// Generates a random but well-formed SCoP of \p Shape: in-bounds affine
/// accesses (so that the block-aligned layout keeps arrays disjoint),
/// occasional guards.
inline ScopProgram generateProgram(std::mt19937 &Rng,
                                   ProgramShape Shape = ProgramShape::Plain) {
  auto Rand = [&](int Lo, int Hi) {
    return std::uniform_int_distribution<int>(Lo, Hi)(Rng);
  };

  ScopBuilder B("random");
  // Loop extent cap: subscripts stay within MaxIter*2 + 4.
  const int MaxIter = Rand(6, 14);
  struct Arr {
    unsigned Id;
    unsigned Dims;
  };
  std::vector<Arr> Arrays;
  unsigned NumArrays = Rand(1, 3);
  for (unsigned I = 0; I < NumArrays; ++I) {
    unsigned Dims = Rand(1, 2);
    std::vector<int64_t> Ext(Dims, 2 * MaxIter + 6);
    unsigned Elem = Rand(0, 1) ? 8 : 4;
    Arrays.push_back(
        Arr{B.addArray("A" + std::to_string(I), Elem, std::move(Ext)), Dims});
  }

  // A random affine subscript over the current iterators, guaranteed to
  // stay within [0, 2*MaxIter + 5]; inside a long loop, over the
  // iterators around it only.
  bool InLongLoop = false;
  auto Subscript = [&]() {
    unsigned Usable = B.depth() - (InLongLoop ? 1 : 0);
    if (Usable == 0 || Rand(0, 4) == 0)
      return B.cst(Rand(0, 3));
    unsigned Lvl = Rand(0, static_cast<int>(Usable) - 1);
    int Coef = Rand(0, 3) == 0 ? 2 : 1;
    return B.iterAt(Lvl) * Coef + B.cst(Rand(0, 3));
  };
  auto EmitAccess = [&]() {
    const Arr &A = Arrays[Rand(0, static_cast<int>(Arrays.size()) - 1)];
    std::vector<AffineExpr> Subs;
    for (unsigned K = 0; K < A.Dims; ++K)
      Subs.push_back(Subscript());
    B.access(A.Id, Rand(0, 2) == 0 ? AccessKind::Write : AccessKind::Read,
             std::move(Subs));
  };

  unsigned NumNests = Rand(1, 2);
  for (unsigned Nest = 0; Nest < NumNests; ++Nest) {
    unsigned Depth = Rand(1, 3);
    bool Long = Shape == ProgramShape::LongRuns && Rand(0, 1) == 0;
    if (Long)
      Depth = std::min(Depth, 2u);
    for (unsigned D = 0; D < Depth; ++D) {
      AffineExpr Lo = B.cst(Rand(0, 2));
      // Occasionally triangular: lower bound = an outer iterator.
      if (D > 0 && Rand(0, 2) == 0)
        Lo = B.iterAt(Rand(0, static_cast<int>(B.depth()) - 1));
      InLongLoop = Long && D + 1 == Depth;
      B.beginLoop("i" + std::to_string(Nest) + std::to_string(D),
                  std::move(Lo),
                  B.cst(InLongLoop ? Rand(1025, 1400) : MaxIter));
      if (Rand(0, 3) == 0)
        EmitAccess(); // Access between loop levels.
    }
    unsigned Body = Rand(1, 4);
    for (unsigned S = 0; S < Body; ++S) {
      bool Guarded = Rand(0, 3) == 0;
      if (Guarded)
        B.beginGuard(Constraint::ge(
            B.iterAt(static_cast<int>(B.depth()) - 1) - B.cst(Rand(1, 5))));
      EmitAccess();
      if (Guarded)
        B.endGuard();
    }
    for (unsigned D = 0; D < Depth; ++D)
      B.endLoop();
    InLongLoop = false;
  }

  if (Shape == ProgramShape::ShortActivations) {
    // Rows of 8 elements, one per outer iteration, so no access leaves
    // its array.
    const int Outer = Rand(100, 400);
    std::vector<unsigned> Rows;
    for (int I = Rand(1, 2); I > 0; --I)
      Rows.push_back(B.addArray("R" + std::to_string(I), Rand(0, 1) ? 8 : 4,
                                {Outer, 8}));
    auto RowAccess = [&](AffineExpr Col) {
      B.access(Rows[Rand(0, static_cast<int>(Rows.size()) - 1)],
               Rand(0, 2) == 0 ? AccessKind::Write : AccessKind::Read,
               {B.iterAt(0), std::move(Col)});
    };
    auto Siblings = [&] {
      for (int S = Rand(0, 2); S > 0; --S)
        RowAccess(B.cst(Rand(0, 7)));
    };
    B.beginLoop("o", B.cst(0), B.cst(Outer - 1));
    for (int L = Rand(1, 3); L > 0; --L) {
      Siblings();
      B.beginLoop("j" + std::to_string(L), B.cst(0), B.cst(Rand(0, 3)));
      for (int A = Rand(1, 3); A > 0; --A)
        RowAccess(Rand(0, 3) == 0 ? B.cst(Rand(0, 7))
                                  : B.iterAt(1) + B.cst(Rand(0, 4)));
      B.endLoop();
    }
    Siblings();
    B.endLoop();
  }
  std::string Err;
  ScopProgram P = B.finish(&Err);
  EXPECT_EQ(Err, "");
  return P;
}

/// A random one- or two-level hierarchy with policy \p K (the L2 policy
/// is varied for PLRU, whose associativity constraint limits geometries).
inline HierarchyConfig randomHierarchy(std::mt19937 &Rng, PolicyKind K,
                                       bool TwoLevel) {
  auto Rand = [&](int Lo, int Hi) {
    return std::uniform_int_distribution<int>(Lo, Hi)(Rng);
  };
  CacheConfig L1;
  L1.BlockBytes = 64;
  // 1 to 16 ways: 4, 8 and 16 are the batch loop's compile-time
  // associativities, the others its runtime-assoc fallback.
  L1.Assoc = 1u << Rand(0, 4);
  unsigned Sets = 1u << Rand(0, 3);        // 1..8 sets.
  L1.SizeBytes = static_cast<uint64_t>(L1.Assoc) * Sets * 64;
  L1.Policy = K;
  if (!TwoLevel)
    return HierarchyConfig::singleLevel(L1);
  CacheConfig L2 = L1;
  L2.SizeBytes *= 1u << Rand(1, 2); // 2x or 4x the sets.
  L2.Policy = K == PolicyKind::Plru ? PolicyKind::QuadAgeLru : K;
  return HierarchyConfig::twoLevel(L1, L2);
}

} // namespace testutil
} // namespace wcs

#endif // WCS_TESTS_RANDOMPROGRAM_H
