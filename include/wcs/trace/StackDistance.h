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
/// Two computations of the same distances live here:
///
///  - StackDistanceProfiler: exact at every distance, with Mattson's
///    algorithm over a binary indexed tree -- a tree walk and a hash
///    lookup per access, and a tree that grows with the trace.
///  - The LRU rows of a truncated SetDistanceBank: when no point asks
///    for more than A ways, only the top A entries of each per-set stack
///    matter (Mattson's inclusion property), and those are exactly the
///    contents of an A-way LRU cache, in recency order; a hit's
///    pre-update way is its stack distance. Up to 64 ways a row scan
///    beats the tree; beyond, the tree wins (see SetDistanceBank).
///
/// Both verify a periodic capture before scaling it (see the
/// periodic-bulk-update comment in SetDistanceBank): the exact profilers
/// by the absence of cold accesses, the rows by mapping onto themselves
/// across the captured repetition.
///
/// Banks step chunks of BatchedAccess ops (SetDistanceBank::accessBatch):
/// the rows are a single-level write-allocate LRU ConcreteHierarchy
/// stepped by the batch kernel both simulators use, counting hit depths
/// into the bank's histogram, and a repeat marker of the program-order
/// walk reaches them as one iteration plus a count (the kernel simulates
/// repetitions up to the first all-hit one and counts the depths of the
/// rest); the exact profilers take a marker's repetitions through
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
  /// Hit counts by exact per-set stack distance (index = distance).
  std::vector<uint64_t> Hist;
  /// Accesses known only to miss at every answerable associativity:
  /// cold accesses, and distances at or beyond a truncation depth (a
  /// truncated bank or a depth-profiling run observes hits only up to
  /// its width, and cannot tell a cold miss from a deep one).
  uint64_t Beyond = 0;
  /// Accesses covered by the fragment (== Beyond + sum of Hist).
  uint64_t Accesses = 0;
};

/// Online exact stack-distance profiler at block granularity.
class StackDistanceProfiler {
public:
  /// \p InitialTreeCapacity sizes the binary indexed tree before the
  /// first growth step (rounded up to a power of two, which the growth
  /// logic requires). The default suits a lone profiler; per-set banks
  /// pass a small value so thousands of profilers start cheap.
  explicit StackDistanceProfiler(unsigned BlockBytes = 64,
                                 size_t InitialTreeCapacity = 1024);

  /// Records an access to byte address \p Addr.
  void accessAddr(int64_t Addr) { accessBlock(Addr >> BlockShift); }
  /// Records an access; returns its stack distance, or -1 when cold.
  int64_t accessBlock(BlockId B);

  /// Number of cold (first-touch) accesses.
  uint64_t coldAccesses() const { return Colds; }
  uint64_t totalAccesses() const { return Time; }

  /// Histogram of finite stack distances (index = distance).
  const std::vector<uint64_t> &histogram() const { return Hist; }

  /// Misses of a fully-associative LRU cache with \p Assoc lines:
  /// cold accesses plus all accesses with stack distance >= Assoc.
  uint64_t missesForAssoc(uint64_t Assoc) const;

  /// Convenience: misses of the fully-associative LRU cache with the
  /// same capacity as \p C (the HayStack cache model).
  uint64_t missesForCache(const CacheConfig &C) const {
    return missesForAssoc(C.numLines());
  }

private:
  /// Binary indexed tree over access timestamps; position t holds 1 iff
  /// t is the most recent access of some block.
  void bitAdd(uint64_t Pos, int64_t Val);
  int64_t bitPrefix(uint64_t Pos) const; ///< Sum of [1, Pos].

  unsigned BlockShift;
  uint64_t Time = 0;
  uint64_t Colds = 0;
  int64_t TreeTotal = 0;                 ///< Sum of all BIT elements.
  std::vector<int64_t> Bit;              ///< 1-based BIT, grown on demand.
  std::unordered_map<BlockId, uint64_t> LastAccess; ///< Block -> time.
  std::vector<uint64_t> Hist;
};

/// Bank of per-set stack distances: exact LRU miss counts of a fixed
/// (block size, set count) geometry for every associativity up to the
/// widest one the bank was built to answer, from one walk of the trace.
/// Under modulo placement each set is an independent fully-associative
/// LRU over the blocks mapping to it, so per-set Mattson histograms
/// generalize the fully-associative profiler. This is the single-pass
/// fast path of the sweep driver: one trace pass feeds one bank per
/// distinct geometry, and every LRU capacity point is answered from the
/// histograms.
///
/// Two representations, chosen once at construction from that width:
///
///  - Truncated (width <= MaxTruncatedAssoc): one write-allocate LRU
///    cache of exactly that width (per set, the top of the Mattson
///    stack -- Mattson's inclusion property says nothing below it can
///    ever hit), stepped as a single-level ConcreteHierarchy. A hit's
///    pre-update way is its per-set stack distance, so the bank counts
///    hits by way and keeps one always-miss count; truncatedAtAssoc()
///    reports the width and matches() refuses wider points. An access
///    is a row scan plus a short memmove.
///  - Exact (wider): one Fenwick-tree profiler per set, which answers
///    every associativity but pays a tree walk and a hash lookup per
///    access, and grows with the trace. Beyond 64 ways the row scan
///    loses to it: on one-set banks over five MEDIUM kernels (a 4-core
///    Xeon) the rows won at up to 64 ways and lost at 128
///    (correlation: 0.54 s vs 0.19 s).
///
/// Both representations are bit-identical at every associativity they
/// answer; every accessor works on either.
class SetDistanceBank {
public:
  /// The widest associativity answered from LRU rows; wider banks keep
  /// the exact per-set profilers.
  static constexpr unsigned MaxTruncatedAssoc = 64;

  /// \p NumSets must be a power of two (modulo placement). \p MaxAssoc
  /// is the widest associativity the bank must answer; it picks the
  /// representation (see the class comment).
  SetDistanceBank(unsigned BlockBytes, unsigned NumSets, unsigned MaxAssoc);

  unsigned numSets() const { return NumSets; }
  unsigned blockBytes() const { return 1u << BlockShift; }

  /// Records the \p N ops at \p Ops, whose blocks are at this bank's
  /// block size, in order; a repeat marker stands for further
  /// applications of the iteration before it (BatchedAccess). The bank
  /// is write-allocate: a write differs from a read only in the dirty
  /// bit, which no count reads. Throws std::overflow_error("counter
  /// overflow") when a count would pass 2^64 - 1.
  void accessBatch(const BatchedAccess *Ops, size_t N);

  /// The per-access reference of accessBatch: records one access at
  /// block granularity (the tests' reference walk).
  void accessBlock(BlockId B);
  void accessAddr(int64_t Addr) { accessBlock(Addr >> BlockShift); }

  uint64_t totalAccesses() const { return Total; }

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
  // equivalent after each repetition -- the exact profilers' markers
  // position for position, the truncated bank's LRU rows verbatim -- so
  // skipping repetitions analytically leaves every later distance
  // bit-identical. accessRepeated() therefore walks one repetition
  // concretely, walks the next one under a period capture, and adds the
  // remaining N-2 analytically with addPeriodicContribution -- once the
  // capture verifies.

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
  /// bank, as if the accesses had been replayed, without touching the
  /// bank's walked state (which is exactly the point: after a
  /// repetition of an identical block sequence it already sits in an
  /// equivalent state). When \p TruncatedAtAssoc is nonzero, \p H came
  /// from a depth-profiling run that observes distances only below that
  /// associativity, and the bank afterwards answers only configurations
  /// with at most that many ways (enforced by matches()).
  ///
  /// Returns false -- leaving the bank completely untouched -- when any
  /// of the scaled accumulations would overflow uint64. Callers treat
  /// that exactly like a failed period verification and fall back to
  /// walking the repetitions, which cannot overflow: the walked
  /// counters grow by 1 per access, and 2^64 accesses are unwalkable.
  [[nodiscard]] bool addPeriodicContribution(const DistanceHistogram &H,
                                             uint64_t Reps,
                                             unsigned TruncatedAtAssoc = 0);

  /// 0 when the bank is exact at every associativity; otherwise the
  /// largest associativity it can answer (a truncated bank's width, or
  /// a narrower truncating bulk contribution's).
  unsigned truncatedAtAssoc() const { return TruncAssoc; }

  /// Misses of the set-associative LRU cache with this bank's geometry
  /// and \p Assoc ways: per set, cold accesses plus accesses at stack
  /// distance >= Assoc (plus any bulk periodic contributions).
  uint64_t missesForAssoc(uint64_t Assoc) const;

  /// True when \p C is answerable from this bank: same block size and
  /// set count, LRU, write-allocate (a non-allocating write miss leaves
  /// the stack untouched in hardware but not in the histogram), and an
  /// associativity within the bank's truncation depth (if any).
  bool matches(const CacheConfig &C) const;

  /// Miss count of \p C; \p C must satisfy matches().
  uint64_t missesForCache(const CacheConfig &C) const;

private:
  /// Starts capturing the histogram increments of subsequent accesses
  /// (one candidate period of a periodic stream). A truncated bank
  /// snapshots its rows and counts, and takes the increments as the
  /// difference at the end; an exact bank mirrors each access.
  void beginPeriodCapture();

  /// Stops capturing. Returns the increments since beginPeriodCapture
  /// when the captured repetition verifies as stationary, and
  /// std::nullopt otherwise. An exact bank rejects a capture that
  /// touched a new block (a repetition of an identical block sequence
  /// cannot). A truncated bank cannot tell a cold miss from a deep one,
  /// so it instead rejects a capture after which its rows differ from
  /// the rows before it (SetAssocCache::sameReplacementState, as the
  /// filtered stream's replay verifies a recurrence).
  std::optional<DistanceHistogram> endPeriodCapture();

  /// One access of an exact bank: its set's profiler, and the open
  /// capture.
  void exactAccess(BlockId B);

  unsigned BlockShift;
  unsigned NumSets;
  uint64_t SetMask;
  uint64_t Total = 0;
  /// Exact representation: one profiler per set (empty when truncated).
  std::vector<StackDistanceProfiler> Profilers;
  /// Truncated representation: the LRU rows, hits by pre-update way,
  /// and the accesses that missed the rows (cold or deeper than the
  /// width). Rows is empty for an exact bank.
  std::optional<ConcreteHierarchy> Rows;
  std::vector<uint64_t> RowHist;
  uint64_t RowMisses = 0;
  /// Analytic contributions from addPeriodicContribution, kept apart
  /// from the walked state (they are pure output, never part of the
  /// state later accesses see).
  std::vector<uint64_t> BulkHist;
  uint64_t BulkAlwaysMiss = 0; ///< Beyond-truncation + cold fragments.
  unsigned TruncAssoc = 0;     ///< 0 = exact at every associativity.
  bool Capturing = false;
  /// Exact banks: the mirrored increments of the open capture. Truncated
  /// banks: the histogram, misses and total when the capture began.
  DistanceHistogram Capture;
  /// Exact banks: a capture that touched a new block (unverifiable).
  bool CaptureSawCold = false;
  /// Truncated banks: the rows when the capture began.
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

/// Profiles every access of \p Program through the linear pass; scalar
/// accesses are excluded by default to match HayStack's accounting.
StackDistanceProfiler profileProgram(const ScopProgram &Program,
                                     unsigned BlockBytes,
                                     bool IncludeScalars = false,
                                     double *Seconds = nullptr);

/// One-config companion of the sweep fast path: feeds \p Program into
/// a single bank of \p NumSets per-set histograms answering up to
/// \p MaxAssoc ways (the stack-distance simulation backend of
/// BatchRunner), through feedBanks.
SetDistanceBank profileProgramSets(const ScopProgram &Program,
                                   unsigned BlockBytes, unsigned NumSets,
                                   unsigned MaxAssoc,
                                   bool IncludeScalars = false,
                                   double *Seconds = nullptr);

} // namespace wcs

#endif // WCS_TRACE_STACKDISTANCE_H
