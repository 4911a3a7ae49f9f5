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
#include "wcs/sim/SimStats.h"
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

/// One probing activation's cache of per-set key hashes (see
/// WarpEngine::stateKey). Each physical set's hash covers its slots and
/// its policy word, salted by way only, so it survives set rotations and
/// changes only when the set does; the activation's scope decides which
/// tags hash by node, so a new activation starts from an empty cache.
struct KeyCache {
  std::vector<uint64_t> SetHash[2]; ///< Per level, by physical set.
  uint64_t Seen = 0;  ///< The tick of the probe that last refreshed them.
  bool Valid = false; ///< False until the first probe hashed every set.
  uint64_t Rehashed = 0; ///< Sets hashed so far (telemetry).

  void reset() { Valid = false; }
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
  /// Returns 0 if the loop can never warp below WarpConfig::MaxDelta.
  int64_t deltaUnit(const LoopNode *Loop) const;

  /// Rotation-invariant hash of the symbolic state relative to \p Scope.
  /// Two states that can match (for any delta) hash equally: per-line
  /// contributions use the tag's access node and inner iterators for
  /// subtree tags (stable across periodic re-touching) and the concrete
  /// block otherwise. Each physical set hashes to a sum of independent
  /// per-slot hashes salted by way, plus its policy word's hash; the key
  /// sums those set hashes, each combined with the set's position
  /// counted from the most-recently-accessed set across the levels, so
  /// rotated states collide. \p Epochs resolves the tags' prefixes, here
  /// and in checkWarp/applyWarp.
  ///
  /// Incremental: \p Keys holds the set hashes of this activation's
  /// previous probe, taken at the tick \p Keys.Seen; only the sets
  /// stamped since (SetAssocCache::changedSince) are rehashed, so a probe
  /// costs O(sets) plus the changed sets' lines instead of O(lines).
  /// \p Now is the tick of this probe (SymbolicHierarchy::tick).
  uint64_t stateKey(const SymbolicHierarchy &State, const EpochTable &Epochs,
                    const WarpScope &Scope, KeyCache &Keys,
                    uint64_t Now) const;

  /// The same key recomputed from every line: the reference the
  /// incremental key is tested against.
  uint64_t stateKey(const SymbolicHierarchy &State, const EpochTable &Epochs,
                    const WarpScope &Scope) const;

  /// Verifies that \p Cur (at iteration \p X1) matches \p Old (snapshot
  /// at \p X0) and computes how many deltas may be warped (Theorem 4).
  /// On success fills \p Plan (N >= 1) and returns WarpCheck::Pass;
  /// otherwise returns the first test that failed. The tests run
  /// cheapest first: the block shifts, then the warp bounds, which do
  /// not depend on the cache state and stop at the first conflict that
  /// leaves no room for one repetition, then the line pairs, then
  /// CacheAgrees. A check that passes computes both bounds in full.
  WarpCheck checkWarp(const SymbolicHierarchy &Old,
                      const SymbolicHierarchy &Cur, const EpochTable &Epochs,
                      const WarpScope &Scope, int64_t X0, int64_t X1,
                      WarpPlan &Plan) const;

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

  /// The hash of logical set \p S of \p C (see stateKey).
  uint64_t setHash(const SymbolicCache &C, unsigned S,
                   const EpochTable &Epochs, const WarpScope &Scope) const;

  /// The exclusive warp bound (FurthestByDomains and FurthestByOverlap)
  /// into \p XF: the first iteration whose access pattern conflicts
  /// with the template window [X0, X1), or at which two same-array
  /// accesses with different linear parts have touched a common block;
  /// Hi+1 if none. Returns Room as soon as a conflict falls below
  /// \p Limit, Unknown on a Fourier-Motzkin overflow, else Pass.
  WarpCheck warpBound(const WarpScope &Scope, int64_t X0, int64_t X1,
                      int64_t Delta, const std::vector<NodeShift> &Nodes,
                      int64_t Limit, int64_t &XF) const;

  /// FurthestByDomains for a node whose reduced domain \p RC leaves the
  /// warped dimension uncoupled: a closed form; lowers \p XF.
  void uncoupledDomainBound(const WarpScope &Scope, int64_t X0, int64_t X1,
                            int64_t Delta,
                            const std::vector<ReducedConstraint> &RC,
                            int64_t &XF) const;

  /// FurthestByDomains for a node whose reduced domain \p RC couples the
  /// warped dimension with inner ones (per residue class, by
  /// Fourier-Motzkin); lowers \p XF, stopping once it falls below
  /// \p Limit. False on Unknown.
  bool coupledDomainBound(const WarpScope &Scope, int64_t X0, int64_t X1,
                          int64_t Delta, const NodeShift &NS,
                          const std::vector<ReducedConstraint> &RC,
                          int64_t Limit, int64_t &XF) const;

  /// FurthestByOverlap for one pair of same-array nodes; lowers \p XF.
  /// False on Unknown.
  bool overlapBound(const WarpScope &Scope, int64_t X0, const NodeShift &NA,
                    const NodeShift &NB, int64_t &XF) const;

  /// Checks the collected line-pair bijection against the block ranges
  /// each node touches during the warp span (paper's CacheAgrees):
  /// Pass, Agree, or Unknown when a block range overflowed.
  WarpCheck cacheAgrees(const WarpScope &Scope, int64_t X0, int64_t SpanEnd,
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
  /// Key salt of each set position, counted from the MRA set across the
  /// levels (level 0's sets first).
  std::vector<uint64_t> PosSalt;
  unsigned BlockBytes;
  unsigned BlockShift;
  bool IncludeScalars;
};

} // namespace wcs

#endif // WCS_SIM_WARPENGINE_H
