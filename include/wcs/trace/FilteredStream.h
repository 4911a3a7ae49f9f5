//===- wcs/trace/FilteredStream.h - L1-miss-filtered streams ----*- C++ -*-===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recorded, replayable L1-miss-filtered access streams: the substrate
/// of multi-level design-space sweeps. In a NINE (non-inclusive
/// non-exclusive) hierarchy the L2 is accessed exactly when the L1
/// misses, with the same block (paper Eq. (24)), and the L1 evolves
/// independently of the L2. The stream of L1 misses therefore fully
/// determines every L2's behavior: record it once per distinct L1
/// configuration and every (L1, L2) grid point sharing that L1 follows
/// without re-simulating the L1.
///
/// Filtered streams of polyhedral programs are themselves strongly
/// periodic (the same loop structure that makes warping work), so a
/// recorded stream is stored run-length encoded: a trace-level period
/// detector finds segments whose records repeat an IDENTICAL sequence
/// and stores one copy plus a repetition count. Compression is exact
/// (only verified verbatim repeats are folded), shrinks the stream
/// memory the MaxRecords cap guards -- a recording that would overrun
/// the cap first compresses and only truncates when the stream really
/// is incompressible -- and opens sublinear consumption:
///
///  - replay(): drives the records through a concrete L2 of any policy
///    and write-miss mode, reproducing the two-level NINE counters bit
///    for bit. Repeated segments walk until the L2 state maps onto
///    itself across one repetition (an exact comparison of lines and
///    replacement metadata), then apply the remaining repetitions
///    analytically; if the state never recurs, every repetition is
///    walked -- the sound fallback.
///  - feed(): conditions a per-set stack-distance bank on the stream;
///    the bank answers the L2s the stack-distance model answers
///    (CacheConfig::answeredByStackDistance: every filtered access then
///    allocates, so such an L2 is a per-set LRU stack over the stream).
///    Repeated segments walk twice (the second repetition under a
///    period capture) and enter the bank's bulk update
///    (SetDistanceBank::addPeriodicContribution) for the rest.
///
/// Both hand stored segments to the batch kernel the simulators use
/// (CacheHierarchy::accessBatch, via SetDistanceBank::accessBatch for
/// feed): records are stored in its one-word BatchedAccess encoding, so
/// no record is converted on the way. A record's write bit decides only
/// whether a no-write-allocate L2 allocates.
///
/// Inclusive and exclusive hierarchies couple the L1 to the L2
/// (back-invalidation, victim caching), so their L1 streams depend on
/// the L2 and cannot be shared; answersHierarchy() rejects them and the
/// sweep planner falls back to full simulation with honest provenance.
///
//===----------------------------------------------------------------------===//

#ifndef WCS_TRACE_FILTEREDSTREAM_H
#define WCS_TRACE_FILTEREDSTREAM_H

#include "wcs/cache/CacheConfig.h"
#include "wcs/scop/Program.h"
#include "wcs/sim/SimConfig.h"
#include "wcs/sim/SimStats.h"
#include "wcs/trace/StackDistance.h"

#include <cstdint>
#include <string>
#include <vector>

namespace wcs {

/// One record of an L1-miss-filtered stream, in one word: the block the
/// L2 sees and whether the originating access was a write (which decides
/// the L2's allocate-on-miss behavior under no-write-allocate), as a
/// BatchedAccess built by BatchedAccess::make. make keeps the top bit
/// clear, so no record -- a negative block's included -- reads as a
/// repeat marker, and every block a program may reach round-trips.
using FilteredRecord = BatchedAccess;

/// One segment of a run-length-encoded stream: the stored records
/// [Offset, Offset + Len) replayed Reps times back to back. Reps == 1
/// is a literal segment.
struct FilteredSegment {
  size_t Offset = 0;
  uint64_t Len = 0;
  uint64_t Reps = 1;
};

/// The L1-miss-filtered access stream of one program under one L1
/// configuration, plus the L1 counters of the recording run.
class FilteredStream {
public:
  FilteredStream() = default;

  /// Records the stream: one concrete simulation of \p L1 alone over
  /// \p Program, appending a record per L1 miss. When \p MaxRecords is
  /// nonzero it caps the STORED records: a stream about to overrun it
  /// is first period-compressed, and only when that cannot free room
  /// does recording abort with a truncated() result -- unusable for
  /// answering grid points, so callers must fall back to full
  /// simulation. The record storage is reserved up front from an upper
  /// bound (the trace's accesses, counted one step per loop activation,
  /// capped by \p MaxRecords), so it never grows by copying; reserved
  /// pages no record reaches stay untouched.
  static FilteredStream record(const ScopProgram &Program,
                               const CacheConfig &L1,
                               const SimOptions &Opts = SimOptions(),
                               uint64_t MaxRecords = 0);

  const CacheConfig &l1() const { return L1; }

  /// Length of the (logical, expanded) stream: the number of L1 misses.
  uint64_t size() const { return Expanded; }
  /// Records physically stored after run-length encoding (what the
  /// MaxRecords cap bounds).
  size_t storedRecords() const { return Records.size(); }
  /// The RLE segment cover of the stream, in stream order.
  const std::vector<FilteredSegment> &segments() const { return Segments; }
  /// True when at least one segment folds repetitions.
  bool compressed() const {
    for (const FilteredSegment &S : Segments)
      if (S.Reps > 1)
        return true;
    return false;
  }
  bool truncated() const { return Truncated; }

  /// Visits every record of the expanded stream, in stream order.
  template <typename Fn> void forEachRecord(Fn &&F) const {
    for (const FilteredSegment &S : Segments)
      for (uint64_t R = 0; R < S.Reps; ++R)
        for (uint64_t I = 0; I < S.Len; ++I)
          F(Records[S.Offset + I]);
  }

  /// L1 counters of the recording run. l1Misses() == size(): in NINE
  /// every L1 miss -- including a non-allocating write miss -- accesses
  /// the L2.
  uint64_t l1Accesses() const { return L1Stats.Accesses; }
  uint64_t l1Misses() const { return L1Stats.Misses; }
  const LevelStats &l1Stats() const { return L1Stats; }

  /// Wall-clock seconds of the recording simulation.
  double recordSeconds() const { return Seconds; }

  /// True when \p H is answerable from this stream: a two-level NINE
  /// hierarchy whose L1 equals the recorded one (and the stream was not
  /// truncated). On false, \p Why (if given) names the reason.
  bool answersHierarchy(const HierarchyConfig &H,
                        std::string *Why = nullptr) const;

  /// Conditions \p Bank on the (expanded) stream. The bank's block size
  /// must equal the L1's: levels of a hierarchy share one block size,
  /// so records are already at L2 block granularity. Repeated segments
  /// are applied analytically after two concrete walks (see file
  /// comment), so the cost is sublinear in size() on periodic streams
  /// while the conditioned bank stays bit-identical.
  void feed(SetDistanceBank &Bank) const;

  /// Replays the stream through a concrete L2 \p L2 and returns the
  /// full two-level NINE counters: Level[0] from the recording run,
  /// Level[1] from the replay. Stats.Seconds is the replay time only
  /// (the recording is shared across many replays; attribution is the
  /// caller's policy); Stats.SimulatedAccesses counts the records
  /// actually walked (repetitions skipped via state recurrence are
  /// accounted analytically, like warped accesses elsewhere).
  SimStats replay(const CacheConfig &L2) const;

private:
  /// Appends one record to the trailing literal segment.
  void appendRecord(FilteredRecord R);
  /// Period-compresses the trailing literal segment in place. Returns
  /// the number of stored records freed.
  size_t compressTail();

  CacheConfig L1;
  LevelStats L1Stats;
  double Seconds = 0.0;
  bool Truncated = false;
  uint64_t Expanded = 0;
  std::vector<FilteredRecord> Records;  ///< Stored (compressed) records.
  std::vector<FilteredSegment> Segments; ///< Ordered cover of the stream.
};

} // namespace wcs

#endif // WCS_TRACE_FILTEREDSTREAM_H
