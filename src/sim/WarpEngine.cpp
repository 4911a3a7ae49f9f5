//===- sim/WarpEngine.cpp -------------------------------------------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "wcs/sim/WarpEngine.h"

#include "wcs/poly/FourierMotzkin.h"
#include "wcs/sim/BatchWalk.h"
#include "wcs/support/Hashing.h"
#include "wcs/support/MathUtil.h"

#include <cassert>

using namespace wcs;

WarpEngine::WarpEngine(const ScopProgram &Program,
                       const HierarchyConfig &Cache,
                       const SimOptions &Options)
    : Program(Program), WC(Options.Warp), NumLevels(Cache.numLevels()),
      BlockBytes(Cache.blockBytes()),
      BlockShift(log2Exact(Cache.blockBytes())),
      IncludeScalars(Options.IncludeScalars) {
  for (unsigned L = 0; L < NumLevels; ++L)
    SetCount[L] = Cache.Levels[L].numSets();
}

int64_t WarpEngine::deltaUnit(const LoopNode *Loop) const {
  const unsigned D = Loop->Depth;
  int64_t Unit = 1;
  for (int Id = Loop->FirstAccess; Id < Loop->EndAccess; ++Id) {
    const AccessNode *A = Program.accesses()[Id];
    if (!walkVisits(Program, *A, IncludeScalars))
      continue;
    int64_t Coef = A->Address.numDims() > D ? A->Address.coeff(D) : 0;
    if (Coef == 0)
      continue;
    int64_t Step =
        static_cast<int64_t>(BlockBytes) / gcd64(BlockBytes, Coef);
    Unit = Unit / gcd64(Unit, Step) * Step;
    if (Unit > WC.MaxDelta)
      return 0; // No admissible delta below the cap.
  }
  return Unit;
}

//===----------------------------------------------------------------------===//
// State keys
//===----------------------------------------------------------------------===//

uint64_t WarpEngine::stateKey(const SymbolicHierarchy &State,
                              const EpochTable &Epochs,
                              const WarpScope &Scope) const {
  const unsigned D = Scope.Loop->Depth;
  const int First = Scope.Loop->FirstAccess;
  const int End = Scope.Loop->EndAccess;
  // The key is a sum of independent slot hashes, one per valid (set,
  // way) slot and one per set's policy word, each salted by the slot's
  // position relative to the MRA set. No slot waits on another's hash,
  // so the probe is not one serial chain through every line, and equal
  // MRA-relative contents give equal keys at any rotation.
  constexpr uint64_t Odd = 0x9e3779b97f4a7c15ULL;
  uint64_t Key = 0;
  uint64_t SetPos = 0; // Position of the set across levels.
  for (unsigned Lv = 0; Lv < NumLevels; ++Lv) {
    const SymbolicCache &C = State.level(Lv);
    unsigned Sets = C.numSets(), Assoc = C.assoc(), Mra = C.mraSet();
    const bool HasPolicyWord = C.config().Policy == PolicyKind::Plru ||
                               C.config().Policy == PolicyKind::QuadAgeLru;
    for (unsigned I = 0; I < Sets; ++I, ++SetPos) {
      unsigned S = (Mra + I) & (Sets - 1);
      // Way W's salt is Seed + 2W, plus 1 for subtree tags; the policy
      // word takes the complement.
      const uint64_t Seed = hashMix(SetPos);
      if (HasPolicyWord)
        Key += hashCombine(~Seed, C.policyWord(S));
      for (unsigned W = 0; W < Assoc; ++W) {
        BlockId Blk = C.blockAt(S, W);
        if (Blk == kInvalidBlock)
          continue;
        // Subtree tags at the current prefix hash by (node, inner dims):
        // stable both across periodic re-touching (iteration advances
        // uniformly) and for frozen lines. Everything else hashes by its
        // concrete block. A subtree node nests in more than D loops, so
        // its epoch prefix (all dims but the innermost) holds the D
        // scope dims; the inner dims are the rest of it, then X.
        const SymTag &T = C.tagAt(S, W);
        uint64_t Salt = Seed + 2 * static_cast<uint64_t>(W);
        if (T.NodeId >= First && T.NodeId < End) {
          const IterVec &P = Epochs.prefix(T.Epoch);
          if (P.prefixEquals(Scope.Prefix, D)) {
            uint64_t V = static_cast<uint64_t>(T.NodeId);
            for (unsigned K = D + 1; K < P.size(); ++K)
              V = V * Odd + static_cast<uint64_t>(P[K]);
            if (P.size() > D)
              V = V * Odd + static_cast<uint64_t>(T.X);
            Key += hashCombine(Salt + 1, V);
            continue;
          }
        }
        Key += hashCombine(Salt, static_cast<uint64_t>(Blk));
      }
    }
  }
  return Key;
}

//===----------------------------------------------------------------------===//
// Shift collection (ConstructAccessMapping, functional/index-preserving)
//===----------------------------------------------------------------------===//

bool WarpEngine::collectShifts(const WarpScope &Scope, int64_t Delta,
                               const int64_t Rot[2],
                               std::vector<NodeShift> &Out) const {
  const unsigned D = Scope.Loop->Depth;
  for (int Id = Scope.Loop->FirstAccess; Id < Scope.Loop->EndAccess; ++Id) {
    const AccessNode *A = Program.accesses()[Id];
    if (!walkVisits(Program, *A, IncludeScalars))
      continue; // Performs no simulated access.
    int64_t CoefBytes = A->Address.numDims() > D ? A->Address.coeff(D) : 0;
    std::optional<int64_t> SBytes = checkedMul(CoefBytes, Delta);
    if (!SBytes || *SBytes % static_cast<int64_t>(BlockBytes) != 0)
      return false; // The induced block mapping would not be functional.
    int64_t T = *SBytes / static_cast<int64_t>(BlockBytes);
    // pi must shift cache-set indices by Rot[l] at every level.
    for (unsigned Lv = 0; Lv < NumLevels; ++Lv)
      if (floorMod(T - Rot[Lv], SetCount[Lv]) != 0)
        return false;
    Out.push_back(NodeShift{A, CoefBytes, T});
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Domain reduction helpers
//===----------------------------------------------------------------------===//

std::vector<WarpEngine::ReducedConstraint>
WarpEngine::reduceDomain(const AccessNode *A, const IterVec &Prefix) const {
  const unsigned D = static_cast<unsigned>(Prefix.size());
  const unsigned M = A->Depth;
  std::vector<ReducedConstraint> Out;
  for (const Constraint &C : A->Domain.constraints()) {
    ReducedConstraint R;
    R.IsEq = C.K == Constraint::Kind::EQ;
    R.C0 = C.Expr.constantTerm();
    unsigned N = C.Expr.numDims();
    for (unsigned K = 0; K < std::min(N, D); ++K)
      R.C0 += C.Expr.coeff(K) * Prefix[K];
    R.Cx = N > D ? C.Expr.coeff(D) : 0;
    R.Cy.assign(M > D + 1 ? M - D - 1 : 0, 0);
    for (unsigned K = D + 1; K < N; ++K)
      R.Cy[K - D - 1] = C.Expr.coeff(K);
    Out.push_back(std::move(R));
  }
  return Out;
}

namespace {

/// Candidate conflict for one residue class: the smallest x = U + k*Delta
/// (k >= 1) with x >= Target; int64 max if none exists below the cap.
int64_t firstClassPointAtOrAbove(int64_t U, int64_t Delta, int64_t Target) {
  int64_t K = std::max<int64_t>(1, ceilDiv(Target - U, Delta));
  return U + K * Delta;
}

} // namespace

int64_t
WarpEngine::furthestByDomains(const WarpScope &Scope, int64_t X0, int64_t X1,
                              int64_t Delta,
                              const std::vector<NodeShift> &Nodes) const {
  const unsigned D = Scope.Loop->Depth;
  int64_t XF = Scope.Hi + 1;
  for (const NodeShift &NS : Nodes) {
    std::vector<ReducedConstraint> RC = reduceDomain(NS.A, Scope.Prefix);
    unsigned NY = NS.A->Depth > D + 1 ? NS.A->Depth - D - 1 : 0;

    bool Coupled = false;
    for (const ReducedConstraint &R : RC) {
      if (R.Cx == 0)
        continue;
      for (int64_t Cy : R.Cy)
        if (Cy != 0) {
          Coupled = true;
          break;
        }
    }

    if (!Coupled) {
      // Fast path: the executed x-values form one interval [XLo, XHi];
      // the inner pattern is x-independent. Conflicts arise exactly where
      // a future iteration's presence differs from its template residue.
      int64_t XLo = INT64_MIN / 4, XHi = INT64_MAX / 4;
      bool Never = false;
      for (const ReducedConstraint &R : RC) {
        bool HasY = false;
        for (int64_t Cy : R.Cy)
          HasY |= Cy != 0;
        if (HasY)
          continue; // Same inner slice for every x.
        if (R.Cx == 0) {
          if (R.IsEq ? R.C0 != 0 : R.C0 < 0)
            Never = true; // Node executes nowhere under this prefix.
          continue;
        }
        if (R.Cx > 0 || R.IsEq) {
          int64_t B = R.Cx > 0 ? ceilDiv(-R.C0, R.Cx) : floorDiv(-R.C0, R.Cx);
          XLo = std::max(XLo, B);
        }
        if (R.Cx < 0 || R.IsEq) {
          int64_t B =
              R.Cx < 0 ? floorDiv(R.C0, -R.Cx) : floorDiv(-R.C0, R.Cx);
          XHi = std::min(XHi, B);
        }
        if (R.IsEq && floorMod(-R.C0, R.Cx < 0 ? -R.Cx : R.Cx) != 0)
          Never = true;
      }
      if (Never || XHi < XLo)
        continue; // No access instances at all: no conflicts.
      for (int64_t U = X0; U < X1; ++U) {
        bool Present = U >= XLo && U <= XHi;
        if (Present) {
          // Future points of this class beyond XHi are absent: conflict.
          int64_t Cand = firstClassPointAtOrAbove(U, Delta, XHi + 1);
          if (Cand <= Scope.Hi)
            XF = std::min(XF, Cand);
        } else if (XLo > U) {
          // The class becomes present once x reaches [XLo, XHi].
          int64_t Cand = firstClassPointAtOrAbove(U, Delta, XLo);
          if (Cand <= std::min(XHi, Scope.Hi))
            XF = std::min(XF, Cand);
        }
        // U past XHi: future points are absent too; no conflict.
      }
      continue;
    }

    // Slow path: x is coupled with inner dimensions (e.g. triangular
    // inner bounds). Solve, per residue class and per constraint, for the
    // smallest warp count k whose slice differs from the template slice.
    // Large deltas would make this expensive, so they are rejected (they
    // do not occur for genuine warps of coupled domains).
    if (Delta > WC.MaxDeltaForCoupledDomains)
      return X1; // Immediate conflict: the caller computes n = 0.
    // Variables: k (index 0), y (indices 1..NY).
    for (int64_t U = X0; U < X1; ++U) {
      auto FutureRow = [&](const ReducedConstraint &R) {
        std::vector<int64_t> Row(1 + NY, 0);
        Row[0] = R.Cx * Delta;
        for (unsigned K = 0; K < NY; ++K)
          Row[1 + K] = R.Cy[K];
        return std::make_pair(Row, R.Cx * U + R.C0);
      };
      auto TemplateRow = [&](const ReducedConstraint &R) {
        std::vector<int64_t> Row(1 + NY, 0);
        for (unsigned K = 0; K < NY; ++K)
          Row[1 + K] = R.Cy[K];
        return std::make_pair(Row, R.Cx * U + R.C0);
      };
      auto AddPresence = [&](LinearSystem &Sys, bool Future) {
        for (const ReducedConstraint &R : RC) {
          auto [Row, C] = Future ? FutureRow(R) : TemplateRow(R);
          if (R.IsEq)
            Sys.addEQ(Row, C);
          else
            Sys.addGE(std::move(Row), C);
        }
        std::vector<int64_t> KRow(1 + NY, 0);
        KRow[0] = 1;
        Sys.addGE(KRow, -1); // k >= 1.
      };
      // Violation directions of one constraint: GE has one (< 0), EQ two.
      auto SolveWithViolation = [&](bool FuturePresent,
                                    const ReducedConstraint &R,
                                    int Direction) -> bool {
        LinearSystem Sys(1 + NY);
        AddPresence(Sys, FuturePresent);
        auto [Row, C] = FuturePresent ? TemplateRow(R) : FutureRow(R);
        for (int64_t &V : Row)
          V = Direction * -V; // Direction=+1: -(expr) - 1 >= 0.
        Sys.addGE(std::move(Row), Direction * -C - 1);
        std::optional<Rational> Min;
        FMStatus St = Sys.minimize(0, Min);
        if (St == FMStatus::Unknown)
          return false;
        if (St == FMStatus::Infeasible)
          return true;
        int64_t K = Min ? std::max<int64_t>(1, Min->ceil()) : 1;
        int64_t Cand = U + K * Delta;
        if (Cand <= Scope.Hi)
          XF = std::min(XF, Cand);
        return true;
      };
      for (const ReducedConstraint &R : RC) {
        // Future present, template misses constraint R (and vice versa).
        if (!SolveWithViolation(true, R, +1))
          return -1;
        if (!SolveWithViolation(false, R, +1))
          return -1;
        if (R.IsEq) {
          if (!SolveWithViolation(true, R, -1))
            return -1;
          if (!SolveWithViolation(false, R, -1))
            return -1;
        }
      }
    }
  }
  return XF;
}

//===----------------------------------------------------------------------===//
// FurthestByOverlap
//===----------------------------------------------------------------------===//

int64_t
WarpEngine::furthestByOverlap(const WarpScope &Scope, int64_t X0,
                              const std::vector<NodeShift> &Nodes) const {
  const unsigned D = Scope.Loop->Depth;
  int64_t XF = Scope.Hi + 1;
  for (size_t I = 0; I < Nodes.size(); ++I) {
    for (size_t J = I + 1; J < Nodes.size(); ++J) {
      const AccessNode *A = Nodes[I].A, *B = Nodes[J].A;
      if (A->ArrayId != B->ArrayId)
        continue; // Distinct arrays never share blocks (aligned layout).
      // Only the coefficient of the *warped* iterator matters (paper
      // Sec. 5.3): accesses with equal coefficients induce the same
      // block shift, so their ranges may overlap freely. The classic
      // example of a conflicting pair is A[i+50] vs A[i+j] when warping
      // j (coefficients 0 vs 1).
      if (Nodes[I].CoefBytes == Nodes[J].CoefBytes)
        continue;

      // Variables: x, xa, ya..., xb, yb..., q (block index).
      unsigned NYA = A->Depth > D + 1 ? A->Depth - D - 1 : 0;
      unsigned NYB = B->Depth > D + 1 ? B->Depth - D - 1 : 0;
      unsigned VX = 0, VXA = 1, VYA = 2, VXB = 2 + NYA, VYB = 3 + NYA,
               VQ = 3 + NYA + NYB;
      unsigned NV = VQ + 1;
      LinearSystem Sys(NV);

      auto AddDom = [&](const AccessNode *N, unsigned XVar, unsigned YBase) {
        for (const ReducedConstraint &R : reduceDomain(N, Scope.Prefix)) {
          std::vector<int64_t> Row(NV, 0);
          Row[XVar] = R.Cx;
          for (size_t K = 0; K < R.Cy.size(); ++K)
            Row[YBase + K] = R.Cy[K];
          if (R.IsEq)
            Sys.addEQ(Row, R.C0);
          else
            Sys.addGE(std::move(Row), R.C0);
        }
      };
      AddDom(A, VXA, VYA);
      AddDom(B, VXB, VYB);

      auto AddSimple = [&](unsigned Var, int64_t Coef, int64_t C) {
        std::vector<int64_t> Row(NV, 0);
        Row[Var] = Coef;
        Sys.addGE(std::move(Row), C);
      };
      // xa, xb in [X0, Hi]; overlap at iteration x >= xa, xb.
      AddSimple(VXA, 1, -X0);
      AddSimple(VXA, -1, Scope.Hi);
      AddSimple(VXB, 1, -X0);
      AddSimple(VXB, -1, Scope.Hi);
      {
        std::vector<int64_t> Row(NV, 0);
        Row[VX] = 1;
        Row[VXA] = -1;
        Sys.addGE(Row, 0); // x >= xa
        std::vector<int64_t> Row2(NV, 0);
        Row2[VX] = 1;
        Row2[VXB] = -1;
        Sys.addGE(Row2, 0); // x >= xb
      }
      AddSimple(VX, -1, Scope.Hi);

      // Same block: q*BB <= addr <= q*BB + BB - 1 for both addresses.
      auto AddBlockEq = [&](const AccessNode *N, unsigned XVar,
                            unsigned YBase) {
        int64_t C0 = N->Address.constantTerm();
        for (unsigned K = 0; K < std::min<unsigned>(N->Address.numDims(), D);
             ++K)
          C0 += N->Address.coeff(K) * Scope.Prefix[K];
        std::vector<int64_t> Lo(NV, 0), HiRow(NV, 0);
        if (N->Address.numDims() > D) {
          Lo[XVar] = N->Address.coeff(D);
          for (unsigned K = D + 1; K < N->Address.numDims(); ++K)
            Lo[YBase + K - D - 1] = N->Address.coeff(K);
        }
        HiRow = Lo;
        for (int64_t &V : HiRow)
          V = -V;
        Lo[VQ] = -static_cast<int64_t>(BlockBytes);
        Sys.addGE(std::move(Lo), C0); // addr - q*BB >= 0.
        HiRow[VQ] = static_cast<int64_t>(BlockBytes);
        Sys.addGE(std::move(HiRow),
                  static_cast<int64_t>(BlockBytes) - 1 - C0);
        // q*BB + BB - 1 - addr >= 0.
      };
      AddBlockEq(A, VXA, VYA);
      AddBlockEq(B, VXB, VYB);

      std::optional<Rational> Min;
      FMStatus St = Sys.minimize(VX, Min);
      if (St == FMStatus::Unknown)
        return -1;
      if (St == FMStatus::Infeasible)
        continue;
      int64_t Cand = Min ? Min->floor() : X0;
      XF = std::min(XF, Cand);
    }
  }
  return XF;
}

//===----------------------------------------------------------------------===//
// CacheAgrees
//===----------------------------------------------------------------------===//

bool WarpEngine::nodeBlockRange(const WarpScope &Scope, const NodeShift &NS,
                                int64_t X0, int64_t SpanEnd, int64_t &LoBlock,
                                int64_t &HiBlock, bool &Unknown) const {
  const unsigned D = Scope.Loop->Depth;
  unsigned NY = NS.A->Depth > D + 1 ? NS.A->Depth - D - 1 : 0;
  // Variables: v (address bound), x, y...
  unsigned NV = 2 + NY;
  int64_t Bounds[2]; // min address, then -(max address).
  for (int Dir = 0; Dir < 2; ++Dir) {
    LinearSystem Sys(NV);
    for (const ReducedConstraint &R : reduceDomain(NS.A, Scope.Prefix)) {
      std::vector<int64_t> Row(NV, 0);
      Row[1] = R.Cx;
      for (size_t K = 0; K < R.Cy.size(); ++K)
        Row[2 + K] = R.Cy[K];
      if (R.IsEq)
        Sys.addEQ(Row, R.C0);
      else
        Sys.addGE(std::move(Row), R.C0);
    }
    {
      std::vector<int64_t> Row(NV, 0);
      Row[1] = 1;
      Sys.addGE(Row, -X0); // x >= X0.
      std::vector<int64_t> Row2(NV, 0);
      Row2[1] = -1;
      Sys.addGE(Row2, SpanEnd - 1); // x <= SpanEnd - 1.
    }
    // v == +-addr.
    int64_t C0 = NS.A->Address.constantTerm();
    for (unsigned K = 0; K < std::min<unsigned>(NS.A->Address.numDims(), D);
         ++K)
      C0 += NS.A->Address.coeff(K) * Scope.Prefix[K];
    std::vector<int64_t> Eq(NV, 0);
    Eq[0] = 1;
    int64_t Sign = Dir == 0 ? -1 : 1;
    if (NS.A->Address.numDims() > D) {
      Eq[1] = Sign * NS.A->Address.coeff(D);
      for (unsigned K = D + 1; K < NS.A->Address.numDims(); ++K)
        Eq[2 + K - D - 1] = Sign * NS.A->Address.coeff(K);
    }
    Sys.addEQ(Eq, Sign * C0);
    std::optional<Rational> Min;
    FMStatus St = Sys.minimize(0, Min);
    if (St == FMStatus::Unknown) {
      Unknown = true;
      return false;
    }
    if (St == FMStatus::Infeasible)
      return false; // No access in the span.
    if (!Min) {
      Unknown = true; // Unbounded address range: treat conservatively.
      return false;
    }
    Bounds[Dir] = Dir == 0 ? Min->floor() : -Min->floor();
  }
  LoBlock = floorDiv(Bounds[0], BlockBytes);
  HiBlock = floorDiv(Bounds[1], BlockBytes);
  return true;
}

bool WarpEngine::cacheAgrees(
    const WarpScope &Scope, int64_t X0, int64_t SpanEnd,
    const std::vector<NodeShift> &Nodes,
    const std::unordered_map<BlockId, BlockId> &Pi) const {
  for (const NodeShift &NS : Nodes) {
    int64_t Lo = 0, Hi = 0;
    bool Unknown = false;
    if (!nodeBlockRange(Scope, NS, X0, SpanEnd, Lo, Hi, Unknown)) {
      if (Unknown)
        return false;
      continue; // Node touches nothing in the span.
    }
    for (const auto &[B0, B1] : Pi) {
      int64_t ExpectedDelta = B1 - B0;
      // If pi's explicit pair lies in (or maps into) this node's touched
      // range, it must shift by exactly the node's block shift.
      if (B0 >= Lo && B0 <= Hi && ExpectedDelta != NS.TBlocks)
        return false;
      if (B1 >= Lo + NS.TBlocks && B1 <= Hi + NS.TBlocks &&
          ExpectedDelta != NS.TBlocks)
        return false;
    }
  }
  return true;
}

//===----------------------------------------------------------------------===//
// checkWarp / applyWarp
//===----------------------------------------------------------------------===//

bool WarpEngine::checkWarp(const SymbolicHierarchy &Old,
                           const SymbolicHierarchy &Cur,
                           const EpochTable &Epochs, const WarpScope &Scope,
                           int64_t X0, int64_t X1, WarpPlan &Plan) const {
  const unsigned D = Scope.Loop->Depth;
  const int First = Scope.Loop->FirstAccess;
  const int End = Scope.Loop->EndAccess;
  const int64_t Delta = X1 - X0;
  assert(Delta >= 1 && "match distance must be positive");
  Plan.Delta = Delta;

  for (unsigned Lv = 0; Lv < NumLevels; ++Lv)
    Plan.Rot[Lv] = floorMod(static_cast<int64_t>(Cur.level(Lv).mraSet()) -
                                static_cast<int64_t>(Old.level(Lv).mraSet()),
                            SetCount[Lv]);

  // The access mapping must be a uniform, index-preserving block shift per
  // node, consistent with both levels' rotations.
  std::vector<NodeShift> Nodes;
  if (!collectShifts(Scope, Delta, Plan.Rot, Nodes))
    return false;

  // Line-pair verification: build the partial bijection pi.
  std::unordered_map<BlockId, BlockId> PiFwd, PiRev;
  for (unsigned Lv = 0; Lv < NumLevels; ++Lv) {
    const SymbolicCache &CO = Old.level(Lv);
    const SymbolicCache &CC = Cur.level(Lv);
    unsigned Sets = CO.numSets(), Assoc = CO.assoc();
    Plan.Moving[Lv].assign(static_cast<size_t>(Sets) * Assoc, 0);
    for (unsigned S = 0; S < Sets; ++S) {
      unsigned S2 = static_cast<unsigned>((S + Plan.Rot[Lv]) & (Sets - 1));
      if (CO.policyWord(S) != CC.policyWord(S2))
        return false;
      for (unsigned W = 0; W < Assoc; ++W) {
        BlockId B0 = CO.blockAt(S, W);
        BlockId B1 = CC.blockAt(S2, W);
        bool V0 = B0 != kInvalidBlock, V1 = B1 != kInvalidBlock;
        if (V0 != V1)
          return false;
        if (!V0)
          continue;

        const SymTag &T0 = CO.tagAt(S, W);
        const SymTag &T1 = CC.tagAt(S2, W);
        int64_t BlockDelta = B1 - B0;
        bool Moving = false;
        if (T0.NodeId == T1.NodeId && T0.NodeId >= First && T0.NodeId < End) {
          const AccessNode *A = Program.accesses()[T0.NodeId];
          unsigned M = A->Depth;
          IterVec I0 = Epochs.iterOf(T0, M), I1 = Epochs.iterOf(T1, M);
          if (M > D && I0.prefixEquals(Scope.Prefix, D) &&
              I1.prefixEquals(Scope.Prefix, D) && I0[D] + Delta == I1[D]) {
            bool InnerEq = true;
            for (unsigned K = D + 1; K < M; ++K)
              InnerEq &= I0[K] == I1[K];
            if (InnerEq) {
              int64_t CoefBytes =
                  A->Address.numDims() > D ? A->Address.coeff(D) : 0;
              // collectShifts established BB | CoefBytes*Delta for all
              // subtree nodes, so the shift below is integral.
              Moving = BlockDelta * static_cast<int64_t>(BlockBytes) ==
                       CoefBytes * Delta;
            }
          }
        }
        if (!Moving && BlockDelta != 0)
          return false; // Fixed lines must hold the identical block.

        // pi must shift set indices by Rot at *every* level.
        for (unsigned L2 = 0; L2 < NumLevels; ++L2)
          if (floorMod(BlockDelta - Plan.Rot[L2], SetCount[L2]) != 0)
            return false;

        // Functionality and injectivity of pi across both levels.
        auto [FIt, FNew] = PiFwd.try_emplace(B0, B1);
        if (!FNew && FIt->second != B1)
          return false;
        auto [RIt, RNew] = PiRev.try_emplace(B1, B0);
        if (!RNew && RIt->second != B0)
          return false;
        Plan.Moving[Lv][static_cast<size_t>(S2) * Assoc + W] = Moving;
      }
    }
  }

  // How far may we warp? (FurthestByDomains / FurthestByOverlap.)
  int64_t XFd = furthestByDomains(Scope, X0, X1, Delta, Nodes);
  if (XFd < 0)
    return false;
  int64_t XFo = furthestByOverlap(Scope, X0, Nodes);
  if (XFo < 0)
    return false;
  int64_t XF = std::min(XFd, XFo);
  int64_t N = floorDiv(XF - X1, Delta);
  if (N < 1)
    return false;

  // CacheAgrees: pi must be compatible with every block the warped
  // iterations touch.
  int64_t SpanEnd = X1 + N * Delta;
  if (!cacheAgrees(Scope, X0, SpanEnd, Nodes, PiFwd))
    return false;

  Plan.N = N;
  return true;
}

void WarpEngine::applyWarp(SymbolicHierarchy &State, EpochTable &Epochs,
                           const WarpScope &Scope,
                           const WarpPlan &Plan) const {
  const unsigned D = Scope.Loop->Depth;
  const int64_t Shift = Plan.N * Plan.Delta;
  // Moving lines whose prefix holds the warped dimension: old epoch ->
  // the fresh epoch of the shifted prefix, shared by all of them.
  std::unordered_map<uint32_t, uint32_t> Moved;
  for (unsigned Lv = 0; Lv < NumLevels; ++Lv) {
    SymbolicCache &C = State.level(Lv);
    unsigned Sets = C.numSets(), Assoc = C.assoc();
    for (unsigned S = 0; S < Sets; ++S) {
      for (unsigned W = 0; W < Assoc; ++W) {
        if (!Plan.Moving[Lv][static_cast<size_t>(S) * Assoc + W])
          continue;
        SymTag &T = C.tagAt(S, W);
        const AccessNode *A = Program.accesses()[T.NodeId];
        if (D + 1 == A->Depth) {
          T.X += Shift;
        } else {
          auto [It, New] = Moved.try_emplace(T.Epoch, 0);
          if (New) {
            IterVec P = Epochs.prefix(T.Epoch);
            P[D] += Shift;
            It->second = Epochs.add(P);
          }
          T.Epoch = It->second;
        }
        C.setBlockAt(S, W,
                     A->Address.eval(Epochs.iterOf(T, A->Depth)) >>
                         BlockShift);
      }
    }
    C.rotateSets(Plan.N * Plan.Rot[Lv]);
  }
}
