//===- tests/warp_engine_test.cpp - WarpEngine unit tests -----------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
// Direct unit tests of the warp-detection machinery: rotation-invariant
// state keys (Theorem 3 / Sec. 5.3), the per-loop delta unit, the
// rejection behavior of checkWarp on hand-constructed near-matches, and
// the 16-byte symbolic tags: epochs under outer-dimension warps, victim
// migration, and the epoch table's reclamation.
//
//===----------------------------------------------------------------------===//

#include "wcs/frontend/Frontend.h"
#include "wcs/sim/SymbolicCache.h"
#include "wcs/sim/WarpEngine.h"
#include "wcs/sim/WarpingSimulator.h"

#include <gtest/gtest.h>

using namespace wcs;

namespace {

/// A dense 1D sweep reading A[i-1], A[i] and writing B[i].
ScopProgram sweepProgram(unsigned ElemBytes = 8) {
  std::string Elem = ElemBytes == 8 ? "double" : "int";
  std::string Src = "param N = 4096;\n" + Elem + " A[N]; " + Elem +
                    " B[N];\n"
                    "for (i = 1; i < N; i++)\n"
                    "  B[i] = A[i-1] + A[i];\n";
  ParseResult R = parseScop(Src);
  EXPECT_TRUE(R.ok()) << R.message();
  return std::move(R.Program);
}

HierarchyConfig l1Only(unsigned Sets, unsigned Assoc, PolicyKind K) {
  CacheConfig C;
  C.BlockBytes = 64;
  C.Assoc = Assoc;
  C.SizeBytes = static_cast<uint64_t>(Sets) * Assoc * 64;
  C.Policy = K;
  return HierarchyConfig::singleLevel(C);
}

/// Runs the sweep body for iterations [From, To) on \p Cache. The loop
/// is outermost, so its accesses' prefix is empty: epoch 0.
void runSweep(const ScopProgram &P, SymbolicHierarchy &Cache, int64_t From,
              int64_t To) {
  const LoopNode *L = P.loops()[0];
  IterVec Iter{0};
  for (int64_t X = From; X < To; ++X) {
    Iter[0] = X;
    for (const std::unique_ptr<Node> &C : L->Children) {
      const AccessNode *A = asAccess(C.get());
      Cache.access(A->Address.eval(Iter) >> 6, A->isWrite(),
                   SymTag{A->Id, 0, X});
    }
  }
}

TEST(WarpEngine, DeltaUnitReflectsBlockDivisibility) {
  SimOptions O;
  // 8-byte elements, unit coefficient: delta must be a multiple of 8.
  {
    ScopProgram P = sweepProgram(8);
    HierarchyConfig H = l1Only(8, 2, PolicyKind::Lru);
    WarpEngine E(P, H, O);
    EXPECT_EQ(E.deltaUnit(P.loops()[0]), 8);
  }
  // 4-byte elements: multiples of 16.
  {
    ScopProgram P = sweepProgram(4);
    HierarchyConfig H = l1Only(8, 2, PolicyKind::Lru);
    WarpEngine E(P, H, O);
    EXPECT_EQ(E.deltaUnit(P.loops()[0]), 16);
  }
  // Iterator-independent accesses put no constraint on delta; the time
  // loop of a stencil therefore has unit 1.
  {
    ParseResult R = parseScop(R"(
      param T = 10; param N = 256;
      double A[N];
      for (t = 0; t < T; t++)
        for (i = 0; i < N; i++)
          A[i] = A[i] * 2.0;
    )");
    ASSERT_TRUE(R.ok());
    HierarchyConfig H = l1Only(8, 2, PolicyKind::Lru);
    WarpEngine E(R.Program, H, O);
    EXPECT_EQ(E.deltaUnit(R.Program.loops()[0]), 1) << "time loop";
    EXPECT_EQ(E.deltaUnit(R.Program.loops()[1]), 8) << "sweep loop";
  }
}

TEST(WarpEngine, StateKeyIsInvariantUnderRotatingProgress) {
  // After the cold-start transient, the sweep's symbolic state repeats
  // (up to set rotation) every `unit` iterations; keys must collide
  // exactly then.
  ScopProgram P = sweepProgram(8);
  HierarchyConfig H = l1Only(8, 2, PolicyKind::Lru);
  SimOptions O;
  WarpEngine E(P, H, O);
  SymbolicHierarchy Cache(H);
  EpochTable Epochs(64);
  WarpScope S;
  S.Loop = P.loops()[0];
  S.Hi = 4095;

  runSweep(P, Cache, 1, 601); // Past the transient.
  uint64_t K0 = E.stateKey(Cache, Epochs, S);
  runSweep(P, Cache, 601, 605);
  uint64_t KMid = E.stateKey(Cache, Epochs, S);
  runSweep(P, Cache, 605, 609);
  uint64_t K1 = E.stateKey(Cache, Epochs, S);
  EXPECT_EQ(K0, K1) << "one full block period (8 iterations) apart";
  EXPECT_EQ(K0, KMid) << "the key deliberately ignores the warped "
                         "iterator, so mid-period states collide too "
                         "(verification rejects them)";
}

TEST(WarpEngine, StateKeyIsPositionalAndRotationInvariant) {
  // The key sums one salted hash per slot, salted by the slot's position
  // relative to the MRA set: a set rotation of identical MRA-relative
  // content keeps it, moving content between positions changes it, and
  // so does a fixed line's block.
  ScopProgram P = sweepProgram(8);
  HierarchyConfig H = l1Only(8, 4, PolicyKind::Plru);
  SimOptions O;
  WarpEngine E(P, H, O);
  EpochTable Epochs(64);
  WarpScope S;
  S.Loop = P.loops()[0];
  S.Hi = 4095;
  const int32_t Node = P.accesses()[0]->Id; // In the loop's subtree.
  // Subtree lines (hashed by node) and fixed lines (NodeId -1: hashed
  // by block) spread over every set.
  SymbolicHierarchy Cache(H);
  for (BlockId B = 0; B < 24; ++B)
    Cache.access(B, B % 5 == 0,
                 SymTag{B % 3 == 0 ? -1 : Node + static_cast<int32_t>(B % 2),
                        0, B});
  const uint64_t Key = E.stateKey(Cache, Epochs, S);
  EXPECT_EQ(E.stateKey(SymbolicHierarchy(Cache), Epochs, S), Key);

  for (int64_t Amount : {1, 3, 7, -2}) {
    SymbolicHierarchy Rotated = Cache;
    Rotated.level(0).rotateSets(Amount);
    ASSERT_NE(Rotated.level(0).mraSet(), Cache.level(0).mraSet());
    EXPECT_EQ(E.stateKey(Rotated, Epochs, S), Key)
        << "rotation by " << Amount;
  }

  // Find a set whose first two ways hold different slot contents: one
  // subtree line and one fixed line.
  const SymbolicCache &L1 = Cache.level(0);
  unsigned Set = L1.numSets();
  for (unsigned Cand = 0; Cand < L1.numSets() && Set == L1.numSets(); ++Cand)
    if ((L1.tagAt(Cand, 0).NodeId < 0) != (L1.tagAt(Cand, 1).NodeId < 0))
      Set = Cand;
  ASSERT_LT(Set, L1.numSets());
  unsigned FixedWay = L1.tagAt(Set, 0).NodeId < 0 ? 0 : 1;

  SymbolicHierarchy Swapped = Cache;
  SymbolicCache &SC = Swapped.level(0);
  BlockId B0 = SC.blockAt(Set, 0);
  SC.setBlockAt(Set, 0, SC.blockAt(Set, 1));
  SC.setBlockAt(Set, 1, B0);
  std::swap(SC.tagAt(Set, 0), SC.tagAt(Set, 1));
  EXPECT_NE(E.stateKey(Swapped, Epochs, S), Key) << "two ways swapped";

  SymbolicHierarchy Moved = Cache;
  Moved.level(0).setBlockAt(Set, FixedWay,
                            Moved.level(0).blockAt(Set, FixedWay) + 64);
  EXPECT_NE(E.stateKey(Moved, Epochs, S), Key) << "a fixed line's block";

  // A subtree line's block is not part of its slot hash (its node is).
  SymbolicHierarchy Shifted = Cache;
  unsigned SubtreeWay = 1 - FixedWay;
  Shifted.level(0).setBlockAt(Set, SubtreeWay,
                              Shifted.level(0).blockAt(Set, SubtreeWay) + 64);
  EXPECT_EQ(E.stateKey(Shifted, Epochs, S), Key);
}

TEST(WarpEngine, CheckWarpAcceptsTheRotatingMatch) {
  ScopProgram P = sweepProgram(8);
  HierarchyConfig H = l1Only(8, 2, PolicyKind::Lru);
  SimOptions O;
  WarpEngine E(P, H, O);
  SymbolicHierarchy Cache(H);
  EpochTable Epochs(64);
  WarpScope S;
  S.Loop = P.loops()[0];
  S.Hi = 4095;

  runSweep(P, Cache, 1, 601);
  SymbolicHierarchy Snapshot = Cache; // State at x = 601.
  runSweep(P, Cache, 601, 609);       // State at x = 609: delta = 8.

  WarpPlan Plan;
  ASSERT_TRUE(E.checkWarp(Snapshot, Cache, Epochs, S, 601, 609, Plan));
  EXPECT_EQ(Plan.Delta, 8);
  EXPECT_EQ(Plan.Rot[0], 1) << "8 iterations advance one 64-byte block "
                               "= one cache set";
  // The loop ends at 4095; everything up to it is conflict-free.
  EXPECT_EQ(Plan.N, (4096 - 609) / 8);
}

TEST(WarpEngine, CheckWarpRejectsOffPeriodAndPerturbedStates) {
  ScopProgram P = sweepProgram(8);
  HierarchyConfig H = l1Only(8, 2, PolicyKind::Lru);
  SimOptions O;
  WarpEngine E(P, H, O);
  SymbolicHierarchy Cache(H);
  EpochTable Epochs(64);
  WarpScope S;
  S.Loop = P.loops()[0];
  S.Hi = 4095;

  runSweep(P, Cache, 1, 601);
  SymbolicHierarchy Snapshot = Cache;

  // Off-period delta: the induced block mapping is not functional.
  runSweep(P, Cache, 601, 606);
  WarpPlan Plan;
  EXPECT_FALSE(E.checkWarp(Snapshot, Cache, Epochs, S, 601, 606, Plan))
      << "delta = 5 is not a multiple of the block period";

  // Complete the period but perturb one line's block: pi would not be
  // consistent.
  runSweep(P, Cache, 606, 609);
  SymbolicHierarchy Broken = Cache;
  // Same set, wrong block.
  Broken.level(0).setBlockAt(3, 0, Broken.level(0).blockAt(3, 0) + 8);
  EXPECT_FALSE(E.checkWarp(Snapshot, Broken, Epochs, S, 601, 609, Plan));

  // Sanity: the unperturbed state still matches.
  EXPECT_TRUE(E.checkWarp(Snapshot, Cache, Epochs, S, 601, 609, Plan));
}

TEST(WarpEngine, CheckWarpRespectsDomainBoundaries) {
  // The access is guarded off beyond i = 2000; a match at x ~ 600 may
  // only warp up to the guard boundary.
  ParseResult R = parseScop(R"(
    param N = 4096;
    double A[N]; double B[N];
    for (i = 1; i < N; i++) {
      B[i] = A[i-1] + A[i];
      if (i < 2000)
        B[i] = B[i] + A[i];
    }
  )");
  ASSERT_TRUE(R.ok()) << R.message();
  const ScopProgram &P = R.Program;
  HierarchyConfig H = l1Only(8, 2, PolicyKind::Lru);
  SimOptions O;
  WarpEngine E(P, H, O);
  SymbolicHierarchy Cache(H);
  EpochTable Epochs(64);
  WarpScope S;
  S.Loop = P.loops()[0];
  S.Hi = 4095;

  const LoopNode *L = P.loops()[0];
  IterVec Iter{0};
  auto Step = [&](int64_t X) {
    Iter[0] = X;
    for (const std::unique_ptr<Node> &C : L->Children) {
      const AccessNode *A = asAccess(C.get());
      if (A->Guarded && !A->Domain.contains(Iter))
        continue;
      Cache.access(A->Address.eval(Iter) >> 6, A->isWrite(),
                   SymTag{A->Id, 0, X});
    }
  };
  for (int64_t X = 1; X < 601; ++X)
    Step(X);
  SymbolicHierarchy Snapshot = Cache;
  for (int64_t X = 601; X < 609; ++X)
    Step(X);

  WarpPlan Plan;
  ASSERT_TRUE(E.checkWarp(Snapshot, Cache, Epochs, S, 601, 609, Plan));
  // FurthestByDomains: the guarded access disappears at i = 2000, so
  // the warp may cover iterations [609, 2000) at most.
  EXPECT_LE(609 + Plan.N * Plan.Delta, 2000);
  EXPECT_GE(609 + Plan.N * Plan.Delta, 2000 - 8) << "but it should get "
                                                    "right up to the "
                                                    "boundary";
}

TEST(WarpEngine, ApplyWarpRotatesAndReconcretizes) {
  ScopProgram P = sweepProgram(8);
  HierarchyConfig H = l1Only(8, 2, PolicyKind::Lru);
  SimOptions O;
  WarpEngine E(P, H, O);
  SymbolicHierarchy Cache(H);
  EpochTable Epochs(64);
  WarpScope S;
  S.Loop = P.loops()[0];
  S.Hi = 4095;

  runSweep(P, Cache, 1, 601);
  SymbolicHierarchy Snapshot = Cache;
  runSweep(P, Cache, 601, 609);
  WarpPlan Plan;
  ASSERT_TRUE(E.checkWarp(Snapshot, Cache, Epochs, S, 601, 609, Plan));
  E.applyWarp(Cache, Epochs, S, Plan);

  // Reference: simulate the same span explicitly.
  SymbolicHierarchy Ref = Snapshot;
  runSweep(P, Ref, 601, 609 + Plan.N * Plan.Delta);
  for (unsigned Set = 0; Set < 8; ++Set)
    for (unsigned Way = 0; Way < 2; ++Way) {
      EXPECT_EQ(Cache.level(0).blockAt(Set, Way),
                Ref.level(0).blockAt(Set, Way))
          << "set " << Set << " way " << Way;
    }
  EXPECT_EQ(Cache.level(0).mraSet(), Ref.level(0).mraSet());
}

/// A time-loop stencil whose whole working set (two 2-block arrays)
/// fits the 8-set 2-way test cache, so its state recurs every step.
ScopProgram stencilProgram() {
  ParseResult R = parseScop(R"(
    param T = 100; param N = 16;
    double A[N]; double B[N];
    for (t = 0; t < T; t++) {
      for (i = 1; i < N - 1; i++)
        B[i] = A[i-1] + A[i] + A[i+1];
      for (i = 1; i < N - 1; i++)
        A[i] = B[i];
    }
  )");
  EXPECT_TRUE(R.ok()) << R.message();
  return std::move(R.Program);
}

/// Runs time steps [From, To) of the stencil the way the simulator
/// does: one epoch, prefix (t), per inner-loop activation.
void runSteps(const ScopProgram &P, SymbolicHierarchy &Cache,
              EpochTable &Epochs, int64_t From, int64_t To) {
  const LoopNode *Time = P.loops()[0];
  for (int64_t T = From; T < To; ++T) {
    for (const std::unique_ptr<Node> &C : Time->Children) {
      const LoopNode *L = asLoop(C.get());
      IterVec Iter{T};
      std::optional<VarBounds> B = L->Domain.lastDimBounds(Iter);
      ASSERT_TRUE(B);
      uint32_t E = Epochs.add(Iter);
      Iter.push(0);
      for (int64_t X = B->Lo; X <= B->Hi; ++X) {
        Iter.back() = X;
        for (const std::unique_ptr<Node> &AC : L->Children) {
          const AccessNode *A = asAccess(AC.get());
          Cache.access(A->Address.eval(Iter) >> 6, A->isWrite(),
                       SymTag{A->Id, E, X});
        }
      }
    }
  }
}

TEST(WarpEngine, OuterDimensionWarpSplitsASharedEpoch) {
  // Warping the time loop (D = 0) shifts a dimension that lies in the
  // epoch prefix of every access (they sit at depth 2). All four lines
  // of the state at t = 51 were last touched by the second inner loop
  // at t = 50, so they share one epoch. One line of the snapshot is
  // retagged by another access node of the same block: the match still
  // holds (that line is fixed, its block unchanged), so the warp splits
  // the shared epoch -- three moving lines go to a fresh epoch of the
  // shifted prefix, the fixed line keeps its epoch and its prefix.
  ScopProgram P = stencilProgram();
  HierarchyConfig H = l1Only(8, 2, PolicyKind::Lru);
  SimOptions O;
  WarpEngine E(P, H, O);
  SymbolicHierarchy Cache(H);
  EpochTable Epochs(64);
  WarpScope S;
  S.Loop = P.loops()[0];
  S.Hi = 99;

  runSteps(P, Cache, Epochs, 0, 50);
  SymbolicHierarchy Snapshot = Cache; // Top of t = 50.
  runSteps(P, Cache, Epochs, 50, 51); // Top of t = 51: delta = 1.

  // Retag the snapshot's line of A's first block (last touched by the
  // write A[i]) as touched by a read of A, which reaches that block too.
  const AccessNode *ARead = P.accesses()[2];
  ASSERT_EQ(P.array(ARead->ArrayId).Name, "A");
  ASSERT_FALSE(ARead->isWrite());
  BlockId A0 = ARead->Address.constantTerm() >> 6;
  unsigned FixedSet = 0, FixedWay = 0;
  bool Found = false;
  SymbolicCache &Old = Snapshot.level(0);
  for (unsigned Set = 0; Set < 8; ++Set)
    for (unsigned Way = 0; Way < 2; ++Way)
      if (Old.blockAt(Set, Way) == A0) {
        ASSERT_NE(Old.tagAt(Set, Way).NodeId, ARead->Id);
        Old.tagAt(Set, Way).NodeId = ARead->Id;
        FixedSet = Set;
        FixedWay = Way;
        Found = true;
      }
  ASSERT_TRUE(Found);

  WarpPlan Plan;
  ASSERT_TRUE(E.checkWarp(Snapshot, Cache, Epochs, S, 50, 51, Plan));
  ASSERT_EQ(Plan.Rot[0], 0) << "the time loop does not move blocks";
  const SymbolicCache &Cur = Cache.level(0);
  const uint32_t Shared = Cur.tagAt(FixedSet, FixedWay).Epoch;
  unsigned MovingLines = 0;
  for (unsigned Set = 0; Set < 8; ++Set)
    for (unsigned Way = 0; Way < 2; ++Way) {
      if (Cur.blockAt(Set, Way) == kInvalidBlock)
        continue;
      EXPECT_EQ(Cur.tagAt(Set, Way).Epoch, Shared) << "one shared epoch";
      bool Moving = Plan.Moving[0][Set * 2 + Way];
      EXPECT_EQ(Moving, Set != FixedSet || Way != FixedWay);
      MovingLines += Moving;
    }
  EXPECT_EQ(MovingLines, 3u);
  EXPECT_EQ(Epochs.prefix(Shared), IterVec{50});

  SymbolicHierarchy Ref = Cache;
  SymTag FixedBefore = Cur.tagAt(FixedSet, FixedWay);
  E.applyWarp(Cache, Epochs, S, Plan);
  const int64_t To = 51 + Plan.N * Plan.Delta;
  EXPECT_EQ(To, 100) << "the whole time loop warps";
  runSteps(P, Ref, Epochs, 51, To);

  // The fixed line keeps its tag, and its epoch keeps its prefix.
  SymTag Fixed = Cur.tagAt(FixedSet, FixedWay);
  EXPECT_EQ(Fixed.NodeId, FixedBefore.NodeId);
  EXPECT_EQ(Fixed.Epoch, Shared);
  EXPECT_EQ(Fixed.X, FixedBefore.X);
  EXPECT_EQ(Epochs.prefix(Shared), IterVec{50});
  // The moving lines share one fresh epoch of the shifted prefix; blocks
  // and tags agree with explicit simulation up to the warp target.
  uint32_t Fresh = 0;
  for (unsigned Set = 0; Set < 8; ++Set)
    for (unsigned Way = 0; Way < 2; ++Way) {
      EXPECT_EQ(Cur.blockAt(Set, Way), Ref.level(0).blockAt(Set, Way))
          << "set " << Set << " way " << Way;
      if (!Plan.Moving[0][Set * 2 + Way])
        continue;
      SymTag T = Cur.tagAt(Set, Way);
      EXPECT_NE(T.Epoch, Shared);
      if (Fresh == 0)
        Fresh = T.Epoch;
      EXPECT_EQ(T.Epoch, Fresh) << "one fresh epoch per old epoch";
      const SymTag &R = Ref.level(0).tagAt(Set, Way);
      unsigned Depth = P.accesses()[T.NodeId]->Depth;
      EXPECT_EQ(T.NodeId, R.NodeId);
      EXPECT_EQ(Epochs.iterOf(T, Depth), Epochs.iterOf(R, Depth));
    }
  EXPECT_EQ(Epochs.prefix(Fresh), IterVec{To - 1});
  EXPECT_EQ(Cache.level(0).mraSet(), Ref.level(0).mraSet());
}

TEST(WarpEngine, ExclusiveMigrationCarriesTheVictimTag) {
  // A one-line exclusive L1 over a 4-line L2: the second access evicts
  // the first block, which must arrive in the L2 with its own node,
  // epoch and X -- through the per-access path and the batch loop alike.
  HierarchyConfig H = HierarchyConfig::twoLevel(
      CacheConfig{64, 1, 64, PolicyKind::Lru, WriteAllocate::Yes},
      CacheConfig{256, 4, 64, PolicyKind::Lru, WriteAllocate::Yes},
      InclusionPolicy::Exclusive);
  EpochTable Epochs(64);
  const uint32_t Ep = Epochs.add(IterVec{3, 4});
  auto L2TagOf = [](const SymbolicHierarchy &C, BlockId B) {
    const SymbolicCache &L2 = C.level(1);
    for (unsigned Way = 0; Way < L2.assoc(); ++Way)
      if (L2.blockAt(0, Way) == B)
        return L2.tagAt(0, Way);
    ADD_FAILURE() << "block " << B << " not in the L2";
    return SymTag();
  };

  SymbolicHierarchy Single(H);
  Single.access(100, false, SymTag{5, Ep, 11});
  HierarchyOutcome O = Single.access(200, true, SymTag{6, Ep, 12});
  EXPECT_FALSE(O.L1Hit);
  SymTag T = L2TagOf(Single, 100);
  EXPECT_EQ(T.NodeId, 5);
  EXPECT_EQ(T.Epoch, Ep);
  EXPECT_EQ(T.X, 11);
  EXPECT_EQ(Single.level(0).blockAt(0, 0), 200);
  EXPECT_EQ(Single.level(0).tagAt(0, 0).NodeId, 6);

  // The same two accesses as one batch iteration of two lanes.
  SymbolicHierarchy Batched(H);
  const BatchedAccess Ops[] = {BatchedAccess::make(100, false),
                               BatchedAccess::make(200, true)};
  const int32_t Nodes[] = {5, 6};
  BatchCounters C;
  Batched.accessBatch(Ops, 2, C,
                      SymbolicHierarchy::TagCursor{Nodes, 2, 0, Ep, 11});
  EXPECT_EQ(C.L1Misses, 2u);
  T = L2TagOf(Batched, 100);
  EXPECT_EQ(T.NodeId, 5);
  EXPECT_EQ(T.Epoch, Ep);
  EXPECT_EQ(T.X, 11);
  EXPECT_EQ(Batched.level(0).tagAt(0, 0).NodeId, 6);
  EXPECT_EQ(Batched.level(0).tagAt(0, 0).X, 11);
}

TEST(WarpEngine, EpochTableStaysBoundedOverManyActivations) {
  // 2000 activations of the inner loop -- 31x the 64 tag slots of the
  // scaled L1 -- and the table never grows with them. With warping off
  // only the live lines and the open activations hold epochs, so the
  // table never passes its collection floor, twice those. With warping
  // on, the probing outer loop's snapshots pin the prefixes they
  // reference too, which the ring bounds.
  ParseResult R = parseScop(R"(
    param N = 2000;
    double A[3][N]; double x[N]; double y[N];
    for (i = 0; i < N; i++)
      for (j = 0; j < 3; j++)
        y[i] = y[i] + A[j][i] * x[j];
  )");
  ASSERT_TRUE(R.ok()) << R.message();
  HierarchyConfig H = HierarchyConfig::singleLevel(CacheConfig::scaledL1());
  const size_t Slots = H.Levels[0].numLines();
  ASSERT_GE(2000u, 10 * Slots);
  for (bool Batch : {true, false}) {
    SimOptions NoWarp;
    NoWarp.BatchConcrete = Batch;
    NoWarp.Warp.Enable = false;
    WarpingSimulator Off(R.Program, H, NoWarp);
    Off.run();
    EXPECT_LE(Off.epochHighWater(), 2 * (Slots + MaxLoopDepth))
        << (Batch ? "batched" : "per-access");

    SimOptions Warp;
    Warp.BatchConcrete = Batch;
    WarpingSimulator On(R.Program, H, Warp);
    On.run();
    EXPECT_LE(On.epochHighWater(), 8 * Slots)
        << (Batch ? "batched" : "per-access");
  }
}

} // namespace
