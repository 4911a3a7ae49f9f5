//===- wcs/sim/BatchWalk.h - Batched innermost-loop walk --------*- C++ -*-===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The batched walk of one innermost-loop activation, shared by the
/// concrete and the warping simulator. A batchable loop -- every child an
/// unguarded access, a single-disjunct domain -- is lowered to one lane
/// per included child: its running byte address and the constant stride
/// its affine address takes along the loop iterator. Addresses are then
/// generated by add/shift into chunks of 8-byte BatchedAccess words and
/// handed to CacheHierarchy::accessBatch, instead of one tree-walk step
/// and one hierarchy call per access.
///
/// Chunks end at iteration boundaries, so a chunk is always whole
/// iterations in lane order. That is what lets a symbolic hierarchy
/// derive every access's tag from its position in the chunk (the
/// TagCursor of CacheLineTraits<SymLine>) while the op itself stays one
/// word.
///
/// Runs. When every lane moves less than one block per iteration, the
/// walk splits the activation into runs: maximal stretches of
/// iterations in which no lane changes block (a stride-0 lane never ends
/// one). Every iteration of a run touches the same blocks in the same
/// order, so a run of three or more is emitted as its first iteration
/// plus one repeat marker, and accessBatch simulates repetitions only
/// until one hits everywhere in the L1 and counts the rest as hits (the
/// fixed-point lemma at CacheHierarchy::accessBatch). The accesses it
/// skipped still count in SimulatedAccesses, and the walk adds them to
/// the registry counter sim.skipped_accesses once per activation. A lane
/// that moves a block or more per iteration makes every run one
/// iteration long, so such activations take the plain walk.
///
//===----------------------------------------------------------------------===//

#ifndef WCS_SIM_BATCHWALK_H
#define WCS_SIM_BATCHWALK_H

#include "wcs/cache/CacheHierarchy.h"
#include "wcs/scop/Program.h"
#include "wcs/sim/SimStats.h"
#include "wcs/support/IterVec.h"
#include "wcs/support/MathUtil.h"
#include "wcs/support/Telemetry.h"

#include <algorithm>
#include <vector>

namespace wcs {

/// Lane generator and chunk buffer of the batched walk, reused across
/// activations.
class BatchWalker {
public:
  BatchWalker(const ScopProgram &Program, bool IncludeScalars,
              unsigned BlockShift)
      : Program(Program), IncludeScalars(IncludeScalars),
        BlockShift(BlockShift), BlockBytes(uint64_t(1) << BlockShift),
        SkippedCounter(
            telemetry::registry().counter("sim.skipped_accesses")) {}

  /// True when \p L can take the batched walk: a single-disjunct domain
  /// (no holes) and every child an unguarded access -- the innermost-loop
  /// shape of the PolyBench kernels.
  static bool batchable(const LoopNode *L) {
    if (!L->Domain.isSingleDisjunct())
      return false;
    for (const std::unique_ptr<Node> &C : L->Children) {
      const AccessNode *A = asAccess(C.get());
      if (!A || A->Guarded)
        return false;
    }
    return true;
  }

  /// Walks iterations [Lo, Hi] of the batchable loop \p L, whose
  /// enclosing iterators are \p Iter, through \p Cache and adds the
  /// counters to \p Stats, skipped repetitions of runs included. A
  /// symbolic hierarchy tags every access with \p Epoch, its lane's
  /// access node and its iteration; \p Sink and \p DepthHist are
  /// accessBatch's observers. Throws std::overflow_error("counter
  /// overflow") when a counter would pass 2^64 - 1.
  template <typename LineT>
  void walk(const LoopNode *L, IterVec &Iter, int64_t Lo, int64_t Hi,
            CacheHierarchy<LineT> &Cache, SimStats &Stats,
            [[maybe_unused]] uint32_t Epoch = 0,
            const L1MissSink *Sink = nullptr,
            uint64_t *DepthHist = nullptr) {
    // Per included child: start address at X = Lo, plus the constant
    // stride its affine address takes along the innermost iterator. From
    // there the whole activation is add/shift address generation.
    constexpr bool Tagged = CacheLineTraits<LineT>::HasTag;
    Lanes.clear();
    LaneNodes.clear();
    Iter.push(Lo);
    for (const std::unique_ptr<Node> &C : L->Children) {
      const AccessNode *A = asAccess(C.get());
      if (!IncludeScalars && Program.array(A->ArrayId).isScalar())
        continue;
      int64_t Stride =
          A->Address.numDims() > L->Depth ? A->Address.coeff(L->Depth) : 0;
      Lanes.push_back(Lane{A->Address.eval(Iter), Stride, A->isWrite()});
      if constexpr (Tagged)
        LaneNodes.push_back(A->Id);
    }
    Iter.pop();
    if (Lanes.empty() || Lo > Hi)
      return;

    using TagCursor = typename CacheHierarchy<LineT>::TagCursor;
    auto TagsFrom = [&](int64_t X) {
      TagCursor T;
      if constexpr (Tagged)
        T = TagCursor{LaneNodes.data(),
                      static_cast<unsigned>(LaneNodes.size()), 0, Epoch, X};
      return T;
    };

    // Chunks are flushed at iteration boundaries, so accessBatch always
    // sees whole iterations in program order (a repeat marker directly
    // after the iteration it repeats). 1024 entries = 8 KiB keeps the
    // buffer L1-resident between the two loops; raw-pointer writes keep
    // the generating loop free of per-element size bookkeeping.
    constexpr size_t ChunkCap = 1024;
    const size_t NumLanes = Lanes.size();
    // Past the flush mark there is room for one more run: two
    // iterations, or one and a two-word repeat marker.
    Buf.resize(ChunkCap + 2 * NumLanes + 1);
    BatchedAccess *const Begin = Buf.data();
    BatchedAccess *const Flush = Begin + ChunkCap;
    BatchedAccess *Out = Begin;
    BatchCounters C;
    int64_t ChunkX = Lo; // Iteration of the chunk's first op.
    auto FlushChunk = [&] {
      Cache.accessBatch(Begin, static_cast<size_t>(Out - Begin), C,
                        TagsFrom(ChunkX), Sink, DepthHist);
      Out = Begin;
    };
    auto Emit = [&] {
      for (const Lane &Ln : Lanes)
        *Out++ = BatchedAccess::make(Ln.Addr >> BlockShift, Ln.IsWrite);
    };
    if (!initRuns()) {
      for (int64_t X = Lo; X <= Hi; ++X) {
        for (Lane &Ln : Lanes) {
          *Out++ = BatchedAccess::make(Ln.Addr >> BlockShift, Ln.IsWrite);
          Ln.Addr += Ln.Stride;
        }
        if (Out >= Flush) {
          FlushChunk();
          ChunkX = X + 1;
        }
      }
    } else {
      // Every lane moves less than a block per iteration: walk runs of
      // iterations that touch the same blocks, and emit a run of three
      // or more as its first iteration plus one repeat marker.
      for (int64_t X = Lo;;) {
        // Iterations in the run after its first: capped by the
        // activation's end, and below 2^62 so the marker's count word
        // stays below 2^63.
        const uint64_t ToEnd =
            static_cast<uint64_t>(Hi) - static_cast<uint64_t>(X);
        uint64_t Rest = std::min<uint64_t>(ToEnd, uint64_t(1) << 62);
        for (const Lane &Ln : Lanes)
          Rest = std::min(Rest, Ln.Left - 1);
        Emit();
        if (Rest >= 2) {
          *Out++ = BatchedAccess::repeatHeader(NumLanes);
          *Out++ = BatchedAccess{Rest};
        } else if (Rest == 1) {
          Emit();
        }
        if (Rest == ToEnd)
          break;
        for (Lane &Ln : Lanes) {
          Ln.Addr += static_cast<int64_t>(Rest + 1) * Ln.Stride;
          Ln.Left -= Rest + 1;
          if (Ln.Left == 0)
            Ln.Left = itersInBlock(Ln.Addr, Ln.Stride);
        }
        X += static_cast<int64_t>(Rest + 1);
        if (Out >= Flush) {
          FlushChunk();
          ChunkX = X;
        }
      }
    }
    if (Out != Begin)
      FlushChunk();
    addCount(Stats.SimulatedAccesses, C.L1Accesses);
    addCount(Stats.Level[0].Accesses, C.L1Accesses);
    addCount(Stats.Level[0].Misses, C.L1Misses);
    if (Stats.NumLevels > 1) {
      addCount(Stats.Level[1].Accesses, C.L2Accesses);
      addCount(Stats.Level[1].Misses, C.L2Misses);
    }
    if (C.SkippedAccesses != 0)
      SkippedCounter.add(C.SkippedAccesses);
  }

private:
  /// One batched child access: its running byte address and constant
  /// innermost-loop stride.
  struct Lane {
    int64_t Addr;
    int64_t Stride;
    bool IsWrite;
    /// Run walks only: iterations, from the current one, that the lane
    /// stays in its current block.
    uint64_t Left = 0;
  };

  /// Iterations, from the one at \p Addr, that a lane of stride
  /// \p Stride (less than a block in magnitude) stays in its block.
  uint64_t itersInBlock(int64_t Addr, int64_t Stride) const {
    if (Stride == 0)
      return ~uint64_t(0);
    uint64_t Off = static_cast<uint64_t>(Addr) & (BlockBytes - 1);
    if (Stride > 0)
      return (BlockBytes - Off + static_cast<uint64_t>(Stride) - 1) /
             static_cast<uint64_t>(Stride);
    return Off / static_cast<uint64_t>(-Stride) + 1;
  }

  /// True when every lane moves less than one block per iteration, the
  /// condition for walking runs; then sets each lane's Left.
  bool initRuns() {
    for (const Lane &Ln : Lanes)
      if (Ln.Stride <= -static_cast<int64_t>(BlockBytes) ||
          Ln.Stride >= static_cast<int64_t>(BlockBytes))
        return false;
    for (Lane &Ln : Lanes)
      Ln.Left = itersInBlock(Ln.Addr, Ln.Stride);
    return true;
  }

  const ScopProgram &Program;
  bool IncludeScalars;
  unsigned BlockShift;
  uint64_t BlockBytes;
  telemetry::Counter &SkippedCounter; ///< sim.skipped_accesses.
  std::vector<Lane> Lanes;        ///< Per-activation scratch.
  std::vector<int32_t> LaneNodes; ///< Access node id per lane (tagged).
  std::vector<BatchedAccess> Buf; ///< Chunk scratch, reused.
};

} // namespace wcs

#endif // WCS_SIM_BATCHWALK_H
