//===- wcs/sim/WarpEngine.h - Warp detection & applicability ---*- C++ -*-===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The warping machinery of paper Sec. 5: rotation-invariant state keys
/// (Sec. 5.3), exact state-match verification under set rotations
/// (Theorem 3), the applicability checks of IterationsToWarp
/// (FurthestByDomains, FurthestByOverlap, ConstructAccessMapping /
/// CacheAgrees; Theorem 4), and warp application.
///
/// Matching is *semantic*: two states match under rotations r_l and
/// iteration delta if every line pair is either
///  - "moving": both tagged by the same access node of the warped
///    subtree, at inner-identical instances delta apart, with the block
///    advancing by exactly coef_d * delta / blocksize (which must be an
///    integer); or
///  - "fixed": the same concrete block at the same position (only
///    possible at levels with rotation 0).
/// The per-line images define a partial bijection pi; the engine checks
/// that pi is functional and injective across both cache levels, shifts
/// sets consistently (t == r_l mod S_l at every level), and agrees with
/// the blocks the warped iterations will touch (per-node block ranges
/// over the warp span). Every relaxation (rational Fourier-Motzkin,
/// range hulls) errs toward rejecting or shortening warps, never toward
/// admitting an unsound one.
///
//===----------------------------------------------------------------------===//

#ifndef WCS_SIM_WARPENGINE_H
#define WCS_SIM_WARPENGINE_H

#include "wcs/scop/Program.h"
#include "wcs/sim/SimConfig.h"
#include "wcs/sim/SymbolicCache.h"

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace wcs {

/// The context of one warping loop activation: the loop node, the values
/// of the enclosing iterators, and the final iteration of the warped
/// dimension.
struct WarpScope {
  const LoopNode *Loop = nullptr;
  IterVec Prefix; ///< Loop->Depth outer iterator values.
  int64_t Hi = 0; ///< Last iteration (inclusive) of the warped dimension.
};

/// A verified warp: delta, repetition count, per-level rotations and the
/// per-line moving classification (indexed by logical set * assoc + way
/// of the *current* state).
struct WarpPlan {
  int64_t Delta = 0;
  int64_t N = 0;
  int64_t Rot[2] = {0, 0};
  std::vector<uint8_t> Moving[2];
};

/// Stateless warp logic over a program and hierarchy configuration.
class WarpEngine {
public:
  WarpEngine(const ScopProgram &Program, const HierarchyConfig &Cache,
             const SimOptions &Options);

  /// The smallest match distance that can possibly satisfy the
  /// functional-block-shift requirement for every access node under
  /// \p Loop: the LCM over nodes of B / gcd(B, |coef_d|). Any viable
  /// delta is a multiple of this unit, so the simulator skips cheaper.
  /// Returns 0 if the loop can never warp (e.g. disjunctive domains).
  int64_t deltaUnit(const LoopNode *Loop) const;

  /// Rotation-invariant hash of the symbolic state relative to \p Scope.
  /// Two states that can match (for any delta) hash equally: per-line
  /// contributions use the tag's access node and inner iterators for
  /// subtree tags (stable across periodic re-touching) and the concrete
  /// block otherwise; set traversal starts at the most-recently-accessed
  /// set so rotated states collide. \p Epochs resolves the tags'
  /// prefixes, here and in checkWarp/applyWarp.
  uint64_t stateKey(const SymbolicHierarchy &State, const EpochTable &Epochs,
                    const WarpScope &Scope) const;

  /// Verifies that \p Cur (at iteration \p X1) matches \p Old (snapshot
  /// at \p X0) and computes how many deltas may be warped (Theorem 4).
  /// On success fills \p Plan (N >= 1) and returns true.
  bool checkWarp(const SymbolicHierarchy &Old, const SymbolicHierarchy &Cur,
                 const EpochTable &Epochs, const WarpScope &Scope,
                 int64_t X0, int64_t X1, WarpPlan &Plan) const;

  /// Applies a verified plan: advances moving tags by N*Delta,
  /// re-concretizes their blocks, and rotates each level by N*Rot[l]
  /// (an O(1) base-offset update). A moving tag whose node sits below
  /// the warped loop's direct children has the warped dimension in its
  /// prefix: it moves to a fresh epoch of \p Epochs (one per distinct
  /// old epoch), while fixed lines keep theirs.
  void applyWarp(SymbolicHierarchy &State, EpochTable &Epochs,
                 const WarpScope &Scope, const WarpPlan &Plan) const;

private:
  /// Per-access-node shift info for one warp attempt.
  struct NodeShift {
    const AccessNode *A;
    int64_t CoefBytes; ///< Address coefficient of the warped dimension.
    int64_t TBlocks;   ///< Block shift per delta: CoefBytes*Delta/B.
  };

  /// A constraint reduced under the scope prefix: Cx*x + Cy.y + C0 (>= 0
  /// or == 0) where x is the warped dimension and y the inner dimensions.
  struct ReducedConstraint {
    int64_t Cx = 0;
    std::vector<int64_t> Cy;
    int64_t C0 = 0;
    bool IsEq = false;
  };

  bool collectShifts(const WarpScope &Scope, int64_t Delta,
                     const int64_t Rot[2], std::vector<NodeShift> &Out) const;

  /// First iteration whose access pattern conflicts with the template
  /// window (exclusive warp bound); Hi+1 if none, -1 on Unknown.
  int64_t furthestByDomains(const WarpScope &Scope, int64_t X0, int64_t X1,
                            int64_t Delta,
                            const std::vector<NodeShift> &Nodes) const;

  /// First iteration at which two same-array accesses with different
  /// linear parts have touched a common block; Hi+1 if none, -1 on
  /// Unknown.
  int64_t furthestByOverlap(const WarpScope &Scope, int64_t X0,
                            const std::vector<NodeShift> &Nodes) const;

  /// Checks the collected line-pair bijection against the block ranges
  /// each node touches during the warp span (paper's CacheAgrees).
  bool cacheAgrees(const WarpScope &Scope, int64_t X0, int64_t SpanEnd,
                   const std::vector<NodeShift> &Nodes,
                   const std::unordered_map<BlockId, BlockId> &Pi) const;

  std::vector<ReducedConstraint> reduceDomain(const AccessNode *A,
                                              const IterVec &Prefix) const;

  /// Inclusive block range touched by \p NS over iterations
  /// [X0, SpanEnd) of the warped dimension. Returns false if the node
  /// performs no access in the span; sets Unknown on FM overflow.
  bool nodeBlockRange(const WarpScope &Scope, const NodeShift &NS,
                      int64_t X0, int64_t SpanEnd, int64_t &LoBlock,
                      int64_t &HiBlock, bool &Unknown) const;

  const ScopProgram &Program;
  WarpConfig WC;
  unsigned NumLevels;
  unsigned SetCount[2] = {1, 1};
  unsigned BlockBytes;
  unsigned BlockShift;
  bool IncludeScalars;
};

} // namespace wcs

#endif // WCS_SIM_WARPENGINE_H
