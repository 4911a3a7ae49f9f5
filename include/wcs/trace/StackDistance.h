//===- wcs/trace/StackDistance.h - Stack-distance profiling -----*- C++ -*-===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Stack-distance (reuse-distance) profiling at block granularity: for
/// every access, the number of *distinct* blocks touched since the
/// previous access to the same block. This is precisely the quantity
/// HayStack [34] computes by symbolic counting; here it is computed by
/// walking the trace. From the resulting histogram, the miss count of a
/// fully-associative LRU cache of *any* associativity follows
/// immediately: an access misses iff its stack distance is at least the
/// associativity (or it is a cold access). This also yields the full
/// stack histograms of Mattson et al. [44] / Cascaval-Padua [14] in one
/// pass.
///
/// One structure holds them: SetDistanceBank, one histogram of hits by
/// per-set stack distance for a fixed (block size, set count) geometry
/// and width, plus one count of the accesses that miss at every width
/// the bank answers. The fully associative profile is a one-set bank.
/// Two representations fill the histogram:
///
///  - LRU rows, up to 64 ways: only the top entries of each per-set
///    stack can hit within the width (Mattson's inclusion property),
///    and those are exactly the contents of an LRU cache of that width,
///    in recency order; a hit's pre-update way is its stack distance.
///  - Exact per-set trackers beyond: Mattson's algorithm over a binary
///    indexed tree (StackDistanceProfiler) -- a tree walk and a hash
///    lookup per access, and a tree that grows with the trace. Beyond
///    64 ways the tree beats the row scan (see SetDistanceBank).
///
/// Both verify a periodic capture before scaling it (see the
/// periodic-bulk-update comment in SetDistanceBank): the exact trackers
/// by the absence of cold accesses, the rows by mapping onto themselves
/// across the captured repetition.
///
/// Banks step chunks of BatchedAccess ops (SetDistanceBank::accessBatch):
/// the rows are a single-level write-allocate LRU ConcreteHierarchy
/// stepped by the batch kernel both simulators use, counting hit depths
/// into the bank's histogram, and a repeat marker of the program-order
/// walk reaches them as one iteration plus a count (the kernel simulates
/// repetitions up to the first all-hit one and counts the depths of the
/// rest); the exact trackers take a marker's repetitions through
/// accessRepeated. The linear pass (feedBanks) feeds every bank the
/// chunks of one walk (sim/BatchWalk.h's ChunkWriter), and the filtered
/// stream hands its stored records over as they are.
///
//===----------------------------------------------------------------------===//

#ifndef WCS_TRACE_STACKDISTANCE_H
#define WCS_TRACE_STACKDISTANCE_H

#include "wcs/cache/ConcreteCache.h"
#include "wcs/scop/Program.h"

#include <cassert>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

namespace wcs {

/// A stack-distance histogram fragment: the contribution one trace
/// segment (typically one verified period of a periodic access stream)
/// makes to a profile. The periodic fast paths capture a fragment by
/// walking ONE period and then apply the remaining repetitions
/// analytically through SetDistanceBank::addPeriodicContribution.
struct DistanceHistogram {
  /// Hit counts by exact per-set stack distance (index = distance),
  /// below the width of the bank or run that observed them.
  std::vector<uint64_t> Hist;
  /// Accesses that miss at every width up to that one: cold accesses,
  /// and distances at or beyond it (LRU rows and a depth-profiling run
  /// observe hits only within their width, and cannot tell a cold miss
  /// from a deep one).
  uint64_t Beyond = 0;
  /// Accesses covered by the fragment (== Beyond + sum of Hist).
  uint64_t Accesses = 0;
};

/// The exact per-set stack-distance tracker of a wide SetDistanceBank:
/// Mattson's algorithm over a binary indexed tree.
class StackDistanceProfiler {
public:
  /// \p InitialTreeCapacity sizes the binary indexed tree before the
  /// first growth step (rounded up to a power of two, which the growth
  /// logic requires), so banks of thousands of sets start cheap.
  explicit StackDistanceProfiler(size_t InitialTreeCapacity);

  /// Records an access; returns its stack distance, or -1 when cold.
  int64_t accessBlock(BlockId B);

private:
  /// Binary indexed tree over access timestamps; position t holds 1 iff
  /// t is the most recent access of some block.
  void bitAdd(uint64_t Pos, int64_t Val);
  int64_t bitPrefix(uint64_t Pos) const; ///< Sum of [1, Pos].

  uint64_t Time = 0;
  int64_t TreeTotal = 0;                 ///< Sum of all BIT elements.
  std::vector<int64_t> Bit;              ///< 1-based BIT, grown on demand.
  std::unordered_map<BlockId, uint64_t> LastAccess; ///< Block -> time.
};

/// Bank of per-set stack distances: exact LRU miss counts of a fixed
/// (block size, set count) geometry for every associativity up to the
/// width the bank was built for, from one walk of the trace. Under
/// modulo placement each set is an independent fully-associative LRU
/// over the blocks mapping to it, so one histogram of per-set distances
/// answers every associativity; with one set the bank is the fully
/// associative profile. This is the single-pass fast path of the sweep
/// driver: one trace pass feeds one bank per distinct geometry, and
/// every LRU capacity point is answered from the histograms.
///
/// The bank counts hits by depth in one histogram and the accesses that
/// miss at every width it answers (cold, or at least the width deep) in
/// one always-miss count, whichever representation and whichever bulk
/// update filled them. The representation is chosen once at
/// construction from the width:
///
///  - LRU rows (width <= MaxRowAssoc): one write-allocate LRU cache of
///    exactly that width (per set, the top of the Mattson stack --
///    Mattson's inclusion property says nothing below it can ever hit),
///    stepped as a single-level ConcreteHierarchy. A hit's pre-update
///    way is its per-set stack distance. An access is a row scan plus a
///    short memmove.
///  - Exact (wider): one Fenwick-tree tracker per set, which pays a
///    tree walk and a hash lookup per access, and grows with the trace.
///    Beyond 64 ways the row scan loses to it: on one-set banks over
///    five MEDIUM kernels (a 4-core Xeon) the rows won at up to 64 ways
///    and lost at 128 (correlation: 0.54 s vs 0.19 s).
///
/// Both representations are bit-identical at every associativity they
/// answer, and matches() refuses wider points in both.
class SetDistanceBank {
public:
  /// The widest bank answered from LRU rows; wider banks keep the exact
  /// per-set trackers.
  static constexpr unsigned MaxRowAssoc = 64;

  /// \p NumSets must be a power of two (modulo placement). \p MaxAssoc
  /// is the bank's width, the widest associativity it answers; it picks
  /// the representation (see the class comment).
  SetDistanceBank(unsigned BlockBytes, unsigned NumSets, unsigned MaxAssoc);

  unsigned numSets() const { return NumSets; }
  unsigned blockBytes() const { return 1u << BlockShift; }
  unsigned maxAssoc() const { return Width; }

  /// Records the \p N ops at \p Ops, whose blocks are at this bank's
  /// block size, in order; a repeat marker stands for further
  /// applications of the iteration before it (BatchedAccess). The bank
  /// is write-allocate, so a write steps exactly like a read. Throws
  /// std::overflow_error("counter overflow") when a count would pass
  /// 2^64 - 1.
  void accessBatch(const BatchedAccess *Ops, size_t N);

  /// The per-access reference of accessBatch: records one access at
  /// block granularity (the tests' reference walk).
  void accessBlock(BlockId B);

  uint64_t totalAccesses() const { return Total; }
  /// Hits by per-set stack distance (index = distance < maxAssoc()).
  const std::vector<uint64_t> &histogram() const { return Hist; }
  /// Accesses that miss at every associativity the bank answers: cold
  /// accesses and distances of at least maxAssoc().
  uint64_t alwaysMisses() const { return AlwaysMiss; }

  //===--------------------------------------------------------------------===//
  // Periodic bulk updates (the sublinear fast path)
  //===--------------------------------------------------------------------===//
  //
  // When an access stream contains a segment that repeats an identical
  // block sequence, the histogram increments of every repetition after
  // the first are identical: each block's previous access lies at a
  // fixed offset within the previous repetition, and the distinct-block
  // count of that window is the same in every repetition (the window
  // content is a verbatim copy). The bank's own state is likewise
  // equivalent after each repetition -- the exact trackers' markers
  // position for position, the LRU rows verbatim -- so skipping
  // repetitions analytically leaves every later distance bit-identical.
  // accessRepeated() therefore walks one repetition concretely, walks
  // the next one under a period capture, and adds the remaining N-2
  // analytically with addPeriodicContribution -- once the capture
  // verifies.

  /// Records \p Reps back-to-back repetitions of the block sequence
  /// that one call of \p WalkOnce feeds through accessBatch or
  /// accessBlock: walks the first, captures the second, and applies the
  /// rest in bulk when the capture verifies and the bulk update fits;
  /// otherwise walks every repetition. Bit-identical to walking all of
  /// them either way. The walked sequence holds no repeat marker.
  template <typename Fn> void accessRepeated(uint64_t Reps, Fn &&WalkOnce) {
    assert(!Capturing && "repeated sequences do not nest");
    if (Reps > 2) {
      // Repetition 1 enters from whatever state the prefix left;
      // repetition 2 is the stationary one whose increments every later
      // repetition copies.
      WalkOnce();
      beginPeriodCapture();
      WalkOnce();
      std::optional<DistanceHistogram> H = endPeriodCapture();
      if (H && addPeriodicContribution(*H, Reps - 2))
        return;
      Reps -= 2;
    }
    for (uint64_t R = 0; R < Reps; ++R)
      WalkOnce();
  }

  /// Bulk analytic update: adds \p Reps copies of fragment \p H to the
  /// bank's counts, as if the accesses had been replayed, without
  /// touching the bank's walked state (which is exactly the point:
  /// after a repetition of an identical block sequence it already sits
  /// in an equivalent state). \p H must have been observed at this
  /// bank's width: its Beyond accesses count as always-misses.
  ///
  /// Returns false -- leaving the bank completely untouched -- when any
  /// of the scaled accumulations would overflow uint64. Callers treat
  /// that exactly like a failed period verification and fall back to
  /// walking the repetitions, which cannot overflow: the walked
  /// counters grow by 1 per access, and 2^64 accesses are unwalkable.
  [[nodiscard]] bool addPeriodicContribution(const DistanceHistogram &H,
                                             uint64_t Reps);

  /// Misses of the set-associative LRU cache with this bank's geometry
  /// and \p Assoc <= maxAssoc() ways: the always-misses plus the hits at
  /// stack distance >= Assoc.
  uint64_t missesForAssoc(uint64_t Assoc) const;

  /// True when \p C is answerable from this bank: a cache the
  /// stack-distance model answers (CacheConfig::answeredByStackDistance)
  /// with this bank's block size and set count, at most maxAssoc() ways.
  bool matches(const CacheConfig &C) const;

  /// Miss count of \p C; \p C must satisfy matches().
  uint64_t missesForCache(const CacheConfig &C) const;

private:
  /// Starts capturing the histogram increments of subsequent accesses
  /// (one candidate period of a periodic stream). A row bank snapshots
  /// its rows and counts, and takes the increments as the difference at
  /// the end; an exact bank mirrors each access.
  void beginPeriodCapture();

  /// Stops capturing. Returns the increments since beginPeriodCapture
  /// when the captured repetition verifies as stationary, and
  /// std::nullopt otherwise. An exact bank rejects a capture that
  /// touched a new block (a repetition of an identical block sequence
  /// cannot). A row bank cannot tell a cold miss from a deep one, so it
  /// instead rejects a capture after which its rows differ from the
  /// rows before it (SetAssocCache::sameReplacementState, as the
  /// filtered stream's replay verifies a recurrence).
  std::optional<DistanceHistogram> endPeriodCapture();

  /// One access of an exact bank: its set's tracker, the counts, and
  /// the open capture.
  void exactAccess(BlockId B);

  unsigned BlockShift;
  unsigned NumSets;
  uint64_t SetMask;
  unsigned Width;
  uint64_t Total = 0;
  /// Hits by depth, below Width (sized Width for rows, which count into
  /// it by way; grown on demand for exact banks), and the accesses that
  /// miss at every width -- walked and bulk-added alike.
  std::vector<uint64_t> Hist;
  uint64_t AlwaysMiss = 0;
  /// Exact representation: one tracker per set (empty for rows).
  std::vector<StackDistanceProfiler> Profilers;
  /// Row representation: the LRU rows (empty for an exact bank).
  std::optional<ConcreteHierarchy> Rows;
  bool Capturing = false;
  /// Exact banks: the mirrored increments of the open capture. Row
  /// banks: the histogram, always-misses and total when it began.
  DistanceHistogram Capture;
  /// Exact banks: a capture that touched a new block (unverifiable).
  bool CaptureSawCold = false;
  /// Row banks: the rows when the capture began.
  std::optional<ConcreteCache> CaptureRows;
};

/// The linear stack-distance pass: feeds every bank of \p Banks the
/// accesses of \p Program (scalars only with \p IncludeScalars) in
/// program order, from one walk whose batchable loops arrive as lanes
/// (sim/BatchWalk.h). The walk writes chunks of ops, runs as repeat
/// markers, at the smallest bank block size; every bank of that size
/// steps each chunk as it is, and the banks of each larger size step
/// one copy shifted to theirs. Returns the accesses walked. Banks fed
/// by concurrent calls must be disjoint.
uint64_t feedBanks(const ScopProgram &Program, bool IncludeScalars,
                   const std::vector<SetDistanceBank *> &Banks);

/// One-bank companion of the sweep fast path: feeds \p Program into a
/// single bank of \p NumSets sets answering up to \p MaxAssoc ways (the
/// stack-distance simulation backend of BatchRunner; with one set and
/// an unbounded width, the fully associative profile of wcs-trace),
/// through feedBanks. Scalar accesses are excluded by default to match
/// HayStack's accounting.
SetDistanceBank profileProgramSets(const ScopProgram &Program,
                                   unsigned BlockBytes, unsigned NumSets,
                                   unsigned MaxAssoc,
                                   bool IncludeScalars = false,
                                   double *Seconds = nullptr);

} // namespace wcs

#endif // WCS_TRACE_STACKDISTANCE_H
