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
//===----------------------------------------------------------------------===//

#ifndef WCS_SIM_BATCHWALK_H
#define WCS_SIM_BATCHWALK_H

#include "wcs/cache/CacheHierarchy.h"
#include "wcs/scop/Program.h"
#include "wcs/sim/SimStats.h"
#include "wcs/support/IterVec.h"

#include <vector>

namespace wcs {

/// Lane generator and chunk buffer of the batched walk, reused across
/// activations.
class BatchWalker {
public:
  BatchWalker(const ScopProgram &Program, bool IncludeScalars,
              unsigned BlockShift)
      : Program(Program), IncludeScalars(IncludeScalars),
        BlockShift(BlockShift) {}

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
  /// counters to \p Stats. A symbolic hierarchy tags every access with
  /// \p Epoch, its lane's access node and its iteration; \p Sink and
  /// \p DepthHist are accessBatch's observers.
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
    if (Lanes.empty())
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
    // sees whole iterations in program order. 1024 entries = 8 KiB keeps
    // the buffer L1-resident between the two loops; raw-pointer writes
    // keep the generating loop free of per-element size bookkeeping.
    constexpr size_t ChunkCap = 1024;
    Buf.resize(ChunkCap + Lanes.size());
    BatchedAccess *const Begin = Buf.data();
    BatchedAccess *const Flush = Begin + ChunkCap;
    BatchedAccess *Out = Begin;
    BatchCounters C;
    int64_t ChunkX = Lo; // Iteration of the chunk's first op.
    for (int64_t X = Lo; X <= Hi; ++X) {
      for (Lane &Ln : Lanes) {
        *Out++ = BatchedAccess::make(Ln.Addr >> BlockShift, Ln.IsWrite);
        Ln.Addr += Ln.Stride;
      }
      if (Out >= Flush) {
        Cache.accessBatch(Begin, static_cast<size_t>(Out - Begin), C,
                          TagsFrom(ChunkX), Sink, DepthHist);
        Out = Begin;
        ChunkX = X + 1;
      }
    }
    if (Out != Begin)
      Cache.accessBatch(Begin, static_cast<size_t>(Out - Begin), C,
                        TagsFrom(ChunkX), Sink, DepthHist);
    Stats.SimulatedAccesses += C.L1Accesses;
    Stats.Level[0].Accesses += C.L1Accesses;
    Stats.Level[0].Misses += C.L1Misses;
    if (Stats.NumLevels > 1) {
      Stats.Level[1].Accesses += C.L2Accesses;
      Stats.Level[1].Misses += C.L2Misses;
    }
  }

private:
  /// One batched child access: its running byte address and constant
  /// innermost-loop stride.
  struct Lane {
    int64_t Addr;
    int64_t Stride;
    bool IsWrite;
  };

  const ScopProgram &Program;
  bool IncludeScalars;
  unsigned BlockShift;
  std::vector<Lane> Lanes;        ///< Per-activation scratch.
  std::vector<int32_t> LaneNodes; ///< Access node id per lane (tagged).
  std::vector<BatchedAccess> Buf; ///< Chunk scratch, reused.
};

} // namespace wcs

#endif // WCS_SIM_BATCHWALK_H
