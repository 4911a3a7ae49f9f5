//===- wcs/sim/BatchWalk.h - The program-order SCoP walk --------*- C++ -*-===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one program-order walk of a SCoP tree, under every consumer: both
/// simulators, the trace generator, the stack-distance passes and the
/// sweep's counting pre-walk. ScopWalk owns loop bounds, the scalar
/// filter, guards, the batchable test and lane setup. Its visitor is a
/// template parameter (no virtual or std::function call per access or
/// per chunk) and takes up to three events:
///
///  1. access(A, Iter, Addr): an included access outside a batchable
///     loop, at iteration point Iter and byte address Addr.
///  2. lanes(L, Lo, Hi, Lanes), optional: iterations [Lo, Hi] of a
///     batchable loop -- every child an unguarded access, the
///     innermost-loop shape of the PolyBench kernels -- as one lane per
///     included child: its byte address at Lo and the constant stride
///     its affine address takes along the loop iterator. The visitor
///     may advance the lanes. A visitor without this event, or a walk
///     built with Batch off, sees every access through event 1: the
///     per-access reference walk.
///  3. loopTop(Walk, L, Iter, Lo, Hi), optional: the top of each loop
///     activation, with bounds [Lo, Hi]. The visitor may step iterations
///     itself (Walk.iteration) and returns the first one left to the
///     walk. Warping probes here: the paper's Algorithm 2 is
///     Algorithm 1 plus this hook.
///
/// ChunkWriter is the one chunk generator of the lanes event: it
/// generates addresses by add/shift into chunks of 8-byte BatchedAccess
/// words for CacheHierarchy::accessBatch. HierarchyStepper, the visitor
/// body both simulators share over a CacheHierarchy (the per-access step
/// and its counters, and the lanes event), steps its hierarchy with the
/// chunks; the linear stack-distance pass (trace/StackDistance) steps
/// every bank with them.
///
/// Chunks end at iteration boundaries, so a chunk is always whole
/// iterations in lane order. That is what lets a symbolic hierarchy
/// derive every access's tag from its position in the chunk
/// (SymTag::Cursor) while the op itself stays one word.
///
/// Runs. When every lane moves less than one block per iteration, the
/// generator splits the activation into runs: maximal stretches of
/// iterations in which no lane changes block (a stride-0 lane never ends
/// one). Every iteration of a run touches the same blocks in the same
/// order, so a run of three or more is emitted as its first iteration
/// plus one repeat marker, and accessBatch simulates repetitions only
/// until one hits everywhere in the L1 and counts the rest as hits (the
/// fixed-point lemma at CacheHierarchy::accessBatch). The accesses it
/// skipped still count in SimulatedAccesses, and the stepper adds them
/// to the registry counter sim.skipped_accesses once per activation. A
/// lane that moves a block or more per iteration makes every run one
/// iteration long, so such activations take the plain walk. A run at
/// one block size is a run at every larger one too, so a consumer of a
/// coarser block may shift the ops of a chunk and keep its markers.
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
#include <cassert>
#include <span>
#include <vector>

namespace wcs {

/// One included child access of a lanes event.
struct WalkLane {
  int64_t Addr;   ///< Byte address at the first iteration of the event.
  int64_t Stride; ///< Bytes the address moves per iteration.
  int32_t Node;   ///< AccessNode::Id.
  bool IsWrite;
};

/// The walk's scalar filter: true when the walk visits \p A. Scalars
/// count only with \p IncludeScalars (the paper's tool counts array
/// accesses only, Sec. 6.4).
inline bool walkVisits(const ScopProgram &P, const AccessNode &A,
                       bool IncludeScalars) {
  return IncludeScalars || !P.array(A.ArrayId).isScalar();
}

/// The program-order walk of \p Program, reporting to a \p Visitor.
template <typename Visitor> class ScopWalk {
public:
  /// With \p Batch off, every access is an access event.
  ScopWalk(const ScopProgram &Program, bool IncludeScalars, bool Batch,
           Visitor &V)
      : Program(Program), IncludeScalars(IncludeScalars), Batch(Batch),
        V(V) {}

  void run() {
    IterVec Iter;
    for (const std::unique_ptr<Node> &R : Program.roots())
      node(*R, Iter);
  }

  /// Walks the body of iteration \p X of \p L, whose enclosing
  /// iterators are \p Iter: how a loopTop steps iterations itself.
  void iteration(const LoopNode &L, IterVec &Iter, int64_t X) {
    Iter.push(X);
    for (const std::unique_ptr<Node> &C : L.Children)
      node(*C, Iter);
    Iter.pop();
  }

  /// True when the walk hands the iterations a loopTop of \p L leaves
  /// to a lanes event.
  bool batches(const LoopNode &L) const {
    if (!HasLanes || !Batch)
      return false;
    for (const std::unique_ptr<Node> &C : L.Children) {
      const AccessNode *A = asAccess(C.get());
      if (!A || A->Guarded)
        return false;
    }
    return true;
  }

private:
  static constexpr bool HasLanes =
      requires(Visitor &V, const LoopNode &L, std::span<WalkLane> Lanes) {
        V.lanes(L, int64_t(), int64_t(), Lanes);
      };

  void node(const Node &N, IterVec &Iter) {
    if (const LoopNode *L = asLoop(&N)) {
      loop(*L, Iter);
      return;
    }
    const AccessNode &A = *asAccess(&N);
    if (!walkVisits(Program, A, IncludeScalars) ||
        (A.Guarded && !A.Domain.contains(Iter)))
      return;
    V.access(A, Iter, A.Address.eval(Iter));
  }

  void loop(const LoopNode &L, IterVec &Iter) {
    std::optional<VarBounds> B = L.Domain.lastDimBounds(Iter);
    assert(B && "loop domain must be bounded");
    if (B->empty())
      return;
    int64_t X = B->Lo;
    if constexpr (requires { V.loopTop(*this, L, Iter, X, X); })
      X = V.loopTop(*this, L, Iter, B->Lo, B->Hi);
    if (X > B->Hi)
      return;
    if constexpr (HasLanes) {
      if (batches(L)) {
        Lanes.clear();
        Iter.push(X);
        for (const std::unique_ptr<Node> &C : L.Children) {
          const AccessNode &A = *asAccess(C.get());
          if (!walkVisits(Program, A, IncludeScalars))
            continue;
          int64_t Stride =
              A.Address.numDims() > L.Depth ? A.Address.coeff(L.Depth) : 0;
          Lanes.push_back(
              WalkLane{A.Address.eval(Iter), Stride, A.Id, A.isWrite()});
        }
        Iter.pop();
        if (!Lanes.empty())
          V.lanes(L, X, B->Hi, std::span<WalkLane>(Lanes));
        return;
      }
    }
    for (; X <= B->Hi; ++X)
      iteration(L, Iter, X);
  }

  const ScopProgram &Program;
  bool IncludeScalars;
  bool Batch;
  Visitor &V;
  std::vector<WalkLane> Lanes; ///< Scratch of the lanes event.
};

/// The run-aware chunk generator of the lanes event (see the file
/// comment). It writes the ops of a lanes event into one buffer and hands
/// each chunk of about ChunkCap ops to a flush callback
/// Flush(const BatchedAccess *Ops, size_t N, int64_t X), where X is the
/// iteration of the chunk's first op when the chunk began in a lanes
/// event. Ops pushed outside a lanes event wait in the same buffer, so a
/// consumer that flushes only when a chunk fills gets full chunks across
/// short activations. Every push and lanes call returns with fewer than
/// ChunkCap ops pending: the room the next call writes into.
class ChunkWriter {
public:
  /// 1024 entries = 8 KiB keeps the buffer L1-resident between the
  /// generating and the consuming loop.
  static constexpr size_t ChunkCap = 1024;

  explicit ChunkWriter(unsigned BlockShift)
      : BlockShift(BlockShift), BlockBytes(uint64_t(1) << BlockShift) {}

  /// Appends one op; flushes the chunk once it is full.
  template <typename FlushFn> void push(BatchedAccess Op, FlushFn &&Flush) {
    if (Buf.size() < ChunkCap)
      Buf.resize(ChunkCap);
    Buf[Pending++] = Op;
    if (Pending == ChunkCap)
      flush(Flush);
  }

  /// Appends iterations [Lo, Hi] of \p Lanes, advancing the lanes;
  /// flushes at the first iteration boundary past each ChunkCap ops,
  /// the activation's end included.
  template <typename FlushFn>
  void lanes(int64_t Lo, int64_t Hi, std::span<WalkLane> Lanes,
             FlushFn &&Flush) {
    const size_t NumLanes = Lanes.size();
    // Past the flush mark there is room for one more run: two
    // iterations, or one and a two-word repeat marker.
    if (Buf.size() < ChunkCap + 2 * NumLanes + 1)
      Buf.resize(ChunkCap + 2 * NumLanes + 1);
    // Raw-pointer writes keep the generating loop free of per-element
    // size bookkeeping.
    BatchedAccess *const Begin = Buf.data();
    BatchedAccess *const FlushAt = Begin + ChunkCap;
    BatchedAccess *Out = Begin + Pending;
    if (Pending == 0)
      ChunkX = Lo;
    auto FlushChunk = [&](int64_t NextX) {
      Flush(static_cast<const BatchedAccess *>(Begin),
            static_cast<size_t>(Out - Begin), ChunkX);
      Out = Begin;
      ChunkX = NextX;
    };
    auto Emit = [&] {
      for (const WalkLane &Ln : Lanes)
        *Out++ = BatchedAccess::make(Ln.Addr >> BlockShift, Ln.IsWrite);
    };
    if (!initRuns(Lanes)) {
      for (int64_t X = Lo; X <= Hi; ++X) {
        for (WalkLane &Ln : Lanes) {
          *Out++ = BatchedAccess::make(Ln.Addr >> BlockShift, Ln.IsWrite);
          Ln.Addr += Ln.Stride;
        }
        if (Out >= FlushAt)
          FlushChunk(X + 1);
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
        for (uint64_t N : Left)
          Rest = std::min(Rest, N - 1);
        Emit();
        if (Rest >= 2) {
          *Out++ = BatchedAccess::repeatHeader(NumLanes);
          *Out++ = BatchedAccess{Rest};
        } else if (Rest == 1) {
          Emit();
        }
        // Check after the activation's last run too: a consumer that
        // keeps ops across lanes events writes the next one from here.
        if (Out >= FlushAt)
          FlushChunk(X + static_cast<int64_t>(Rest + 1));
        if (Rest == ToEnd)
          break;
        for (size_t I = 0; I < NumLanes; ++I) {
          WalkLane &Ln = Lanes[I];
          Ln.Addr += static_cast<int64_t>(Rest + 1) * Ln.Stride;
          Left[I] -= Rest + 1;
          if (Left[I] == 0)
            Left[I] = itersInBlock(Ln.Addr, Ln.Stride);
        }
        X += static_cast<int64_t>(Rest + 1);
      }
    }
    Pending = static_cast<size_t>(Out - Begin);
    assert(Pending < ChunkCap && "lanes leaves its chunk below the mark");
  }

  /// Hands the pending ops, if any, to \p Flush.
  template <typename FlushFn> void flush(FlushFn &&Flush) {
    if (Pending != 0)
      Flush(static_cast<const BatchedAccess *>(Buf.data()), Pending,
            ChunkX);
    Pending = 0;
  }

private:
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
  /// condition for walking runs; then fills Left.
  bool initRuns(std::span<const WalkLane> Lanes) {
    for (const WalkLane &Ln : Lanes)
      if (Ln.Stride <= -static_cast<int64_t>(BlockBytes) ||
          Ln.Stride >= static_cast<int64_t>(BlockBytes))
        return false;
    Left.clear();
    for (const WalkLane &Ln : Lanes)
      Left.push_back(itersInBlock(Ln.Addr, Ln.Stride));
    return true;
  }

  unsigned BlockShift;
  uint64_t BlockBytes;
  std::vector<BatchedAccess> Buf; ///< Chunk scratch, reused.
  size_t Pending = 0;             ///< Ops in Buf not yet flushed.
  int64_t ChunkX = 0;             ///< Iteration of the chunk's first op.
  /// Run walks: per lane, the iterations from the current one that it
  /// stays in its block.
  std::vector<uint64_t> Left;
};

/// The visitor body of both simulators: every access steps \p Cache
/// and counts in \p Stats.
template <typename TagT> class HierarchyStepper {
  static constexpr bool Tagged = SetAssocCache<TagT>::HasTag;

public:
  HierarchyStepper(CacheHierarchy<TagT> &Cache, SimStats &Stats,
                   unsigned BlockShift)
      : Cache(Cache), Stats(Stats), BlockShift(BlockShift),
        Chunks(BlockShift),
        SkippedCounter(
            telemetry::registry().counter("sim.skipped_accesses")) {}

  /// The hierarchy's observers: \p Sink sees every L1 miss, and an LRU
  /// L1 counts each hit at its depth in \p DepthHist.
  const L1MissSink *Sink = nullptr;
  uint64_t *DepthHist = nullptr;
  /// Tagged hierarchies: the epoch of the open loop activation at each
  /// nesting depth. Whoever opens an activation's epoch (the warping
  /// simulator, at loopTop) stores it at the loop's depth; entries
  /// deeper than the current activation are stale.
  std::vector<uint32_t> Epochs;

  void access(const AccessNode &A, const IterVec &Iter, int64_t Addr) {
    BlockId B = Addr >> BlockShift;
    TagT Tag{};
    if constexpr (Tagged)
      Tag = TagT{A.Id, A.Depth == 0 ? 0u : Epochs[A.Depth - 1],
                 Iter.empty() ? 0 : Iter.back()};
    HierarchyOutcome O = Cache.access(B, A.isWrite(), Tag, DepthHist);
    if (Sink && !O.L1Hit)
      (*Sink)(B, A.isWrite());
    Stats.countAccess(O.L1Hit, O.L2Accessed, O.L2Hit);
  }

  /// Steps iterations [Lo, Hi] of \p L through accessBatch, skipped
  /// repetitions of runs included. A symbolic hierarchy tags every
  /// access with the activation's epoch, its lane's access node and its
  /// iteration. Throws std::overflow_error("counter overflow") when a
  /// counter would pass 2^64 - 1.
  void lanes(const LoopNode &L, int64_t Lo, int64_t Hi,
             std::span<WalkLane> Lanes) {
    using TagCursor = typename TagT::Cursor;
    if constexpr (Tagged) {
      LaneNodes.clear();
      for (const WalkLane &Ln : Lanes)
        LaneNodes.push_back(Ln.Node);
    }
    auto TagsFrom = [&](int64_t X) {
      TagCursor T;
      if constexpr (Tagged)
        T = TagCursor{LaneNodes.data(),
                      static_cast<unsigned>(LaneNodes.size()), 0,
                      Epochs[L.Depth], X};
      return T;
    };

    // The writer flushes at iteration boundaries, so accessBatch always
    // sees whole iterations in program order (a repeat marker directly
    // after the iteration it repeats), and the lanes event ends with an
    // empty buffer.
    BatchCounters C;
    auto Flush = [&](const BatchedAccess *Ops, size_t N, int64_t X) {
      Cache.accessBatch(Ops, N, C, TagsFrom(X), Sink, DepthHist);
    };
    Chunks.lanes(Lo, Hi, Lanes, Flush);
    Chunks.flush(Flush);
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
  CacheHierarchy<TagT> &Cache;
  SimStats &Stats;
  unsigned BlockShift;
  ChunkWriter Chunks;
  telemetry::Counter &SkippedCounter; ///< sim.skipped_accesses.
  std::vector<int32_t> LaneNodes; ///< Access node id per lane (tagged).
};

} // namespace wcs

#endif // WCS_SIM_BATCHWALK_H
