//===- wcs/sim/SymbolicCache.h - Symbolic cache states ----------*- C++ -*-===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Symbolic cache states (paper Sec. 5.2): every cache line carries, in
/// addition to its concrete block, a *tag* identifying the access-node
/// instance (node id + iteration vector) that last touched it. Tags are
/// the symbolic memory blocks of the paper: interpreting a tag under its
/// iteration vector yields the concrete block, and shifting the iteration
/// vector re-concretizes the line after a warp. Tags are refreshed on
/// every hit (the paper's SymUpSet) and adapted lazily rather than on
/// every iterator increment (paper footnote 2): they store absolute
/// iteration vectors and are relativized on demand by the warp engine.
///
/// Tag layout. A tag is 16 bytes: the access node id, a prefix *epoch*
/// and the value X of the node's innermost iterator. The epoch indexes an
/// EpochTable holding the enclosing-iterator prefix -- every iterator but
/// the innermost -- and the simulator opens one epoch per loop
/// activation, so all accesses of one innermost-loop activation share
/// it. The full iteration vector of a tag is prefix(epoch) ++ [X]; the
/// warp engine rebuilds it where it relativizes a tag. A warp that
/// shifts a dimension inside the prefix moves lines to a fresh epoch;
/// shifting the innermost dimension only moves X.
///
/// Reclamation. The table reclaims, by mark and sweep, every epoch that
/// no tag references in the live hierarchy, a valid snapshot or an open
/// activation. A collection runs when an epoch is opened while the free
/// list is empty and the table has reached twice its live size after the
/// previous collection (at least a floor the simulator sets from its
/// line count), so the table's size follows the number of distinct
/// prefixes still referenced, never the number of activations.
///
/// SymbolicHierarchy is CacheHierarchy over SymTag: the same Eq. (24)
/// composition, per-access path and batch loop as the concrete
/// hierarchy, with the tag refresh compiled in.
///
//===----------------------------------------------------------------------===//

#ifndef WCS_SIM_SYMBOLICCACHE_H
#define WCS_SIM_SYMBOLICCACHE_H

#include "wcs/cache/CacheHierarchy.h"
#include "wcs/support/IterVec.h"

#include <cstdint>
#include <vector>

namespace wcs {

/// The installing access instance of a symbolic line. The cache keeps
/// it in a tag array beside the block ids, so the per-access block-id
/// scan stays free of tags.
struct SymTag {
  int32_t NodeId = -1; ///< AccessNode::Id of the last touch; -1 if none.
  uint32_t Epoch = 0;  ///< EpochTable index of the enclosing prefix.
  int64_t X = 0;       ///< Innermost iterator value (0 at depth 0).

  /// The tags of one batch. Its ops are whole iterations of one loop
  /// activation in lane order, so op K is lane K % NumLanes at iteration
  /// X + K / NumLanes, and every op shares the activation's epoch.
  struct Cursor {
    const int32_t *Nodes = nullptr; ///< Access node id per lane.
    unsigned NumLanes = 0;
    unsigned Lane = 0;
    uint32_t Epoch = 0;
    int64_t X = 0; ///< Iteration of the next op.

    SymTag next() {
      SymTag T{Nodes[Lane], Epoch, X};
      if (++Lane == NumLanes) {
        Lane = 0;
        ++X;
      }
      return T;
    }
    /// Moves past \p Iterations whole iterations of a repeated run;
    /// called at an iteration boundary.
    void skip(uint64_t Iterations) {
      X = static_cast<int64_t>(static_cast<uint64_t>(X) + Iterations);
    }
  };
};
static_assert(sizeof(SymTag) == 16, "symbolic tags are 16 bytes");

using SymbolicCache = SetAssocCache<SymTag>;

/// One- or two-level symbolic hierarchy with Eq. (24) semantics.
/// Copyable: warp snapshots are whole-object copies.
using SymbolicHierarchy = CacheHierarchy<SymTag>;

extern template class CacheHierarchy<SymTag>;

/// The enclosing-iterator prefixes behind SymTag::Epoch (see the file
/// comment). Epoch 0 is the empty prefix -- the epoch of accesses outside
/// every loop and of untouched lines -- and is never reclaimed.
class EpochTable {
public:
  /// \p MinCollectSize is the table size below which no collection
  /// runs.
  explicit EpochTable(size_t MinCollectSize);

  /// A fresh epoch for \p Prefix, reusing a reclaimed index when one is
  /// free.
  uint32_t add(const IterVec &Prefix);

  const IterVec &prefix(uint32_t E) const { return Prefixes[E]; }

  /// The full iteration vector of \p T, a tag of an access node nested
  /// in \p Depth loops.
  IterVec iterOf(const SymTag &T, unsigned Depth) const;

  /// True when the next add() should be preceded by a collection:
  /// beginMark(), mark every root, sweep().
  bool wantsCollection() const {
    return Free.empty() && Prefixes.size() >= Limit;
  }
  void beginMark();
  void mark(uint32_t E) { Marked[E] = 1; }
  /// Marks the epoch of every tag slot of \p H.
  void markTags(const SymbolicHierarchy &H);
  /// Frees every unmarked epoch and sets the next collection size.
  void sweep();

  /// The most entries the table has held: its size, which never
  /// shrinks (freed entries are reused in place).
  size_t highWater() const { return Prefixes.size(); }

private:
  std::vector<IterVec> Prefixes;
  std::vector<uint8_t> Marked;
  std::vector<uint32_t> Free;
  size_t MinLimit;
  size_t Limit;
};

} // namespace wcs

#endif // WCS_SIM_SYMBOLICCACHE_H
