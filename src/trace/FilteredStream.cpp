//===- trace/FilteredStream.cpp -------------------------------------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "wcs/trace/FilteredStream.h"

#include "wcs/sim/ConcreteSimulator.h"
#include "wcs/support/Hashing.h"
#include "wcs/support/Telemetry.h"
#include "wcs/trace/TraceGenerator.h"

#include <algorithm>
#include <cassert>
#include <cstdint>

using namespace wcs;

namespace {

/// Thrown by the recording tap to abort the simulation once MaxRecords
/// is exceeded: the stream is useless from that point on, so finishing
/// the walk would only burn the time the fallback simulation needs.
struct RecordCapExceeded {};

/// Compression tuning: a run is folded only when it repeats at least
/// MinFoldReps times and covers at least MinFoldRecords records (tiny
/// runs fragment the segment list for no memory win). Two repetitions
/// already halve the storage -- and at the recording cap the stream may
/// hold no more than two copies of a long period, so demanding more
/// would truncate streams the continuation fold could still save. Both
/// thresholds only trade compression ratio for segment-list size;
/// folding is exact regardless.
constexpr uint64_t MinFoldReps = 2;
constexpr uint64_t MinFoldRecords = 64;

/// Replay walks at most this many repetitions of a folded segment while
/// probing for a state recurrence before giving up and walking the rest
/// (FIFO insertion orders, for example, can cycle with a longer period
/// than the stream's).
constexpr unsigned MaxReplayStateChecks = 8;

/// The most records reserved before recording: the default stream cap of
/// the sweep (512 MiB). An uncapped recording of a longer trace grows
/// past it by doubling.
constexpr uint64_t MaxReservedRecords = uint64_t(1) << 26;

/// The last position of each record key seen by compressTail: a flat
/// open-addressing table (linear probing, doubled at half load) sized by
/// the distinct keys -- the blocks a miss stream touches -- rather than
/// by the tail's length.
class LastPositions {
public:
  static constexpr size_t None = SIZE_MAX;

  /// Returns the position last stored for \p Key (None if none) and
  /// stores \p Pos in its place.
  size_t exchange(uint64_t Key, size_t Pos) {
    if (2 * (Used + 1) > Slots.size())
      grow();
    Slot &S = find(Key);
    size_t Prev = S.PosPlus1 - 1; // None for an empty slot.
    if (S.PosPlus1 == 0) {
      S.Key = Key;
      ++Used;
    }
    S.PosPlus1 = Pos + 1;
    return Prev;
  }

private:
  struct Slot {
    uint64_t Key = 0;
    size_t PosPlus1 = 0; ///< 0 marks an empty slot.
  };

  Slot &find(uint64_t Key) {
    const size_t Mask = Slots.size() - 1;
    size_t I = static_cast<size_t>(hashMix(Key)) & Mask;
    while (Slots[I].PosPlus1 != 0 && Slots[I].Key != Key)
      I = (I + 1) & Mask;
    return Slots[I];
  }

  void grow() {
    std::vector<Slot> Old(Slots.empty() ? 64 : 2 * Slots.size());
    Old.swap(Slots);
    for (const Slot &S : Old)
      if (S.PosPlus1 != 0)
        find(S.Key) = S;
  }

  std::vector<Slot> Slots;
  size_t Used = 0;
};

} // namespace

void FilteredStream::appendRecord(FilteredRecord R) {
  if (Segments.empty() || Segments.back().Reps != 1 ||
      Segments.back().Offset + Segments.back().Len != Records.size())
    Segments.push_back(FilteredSegment{Records.size(), 0, 1});
  Records.push_back(R);
  ++Segments.back().Len;
  ++Expanded;
}

size_t FilteredStream::compressTail() {
  // Only the trailing literal segment is uncompressed; earlier segments
  // were already folded by a previous pass.
  if (Segments.empty() || Segments.back().Reps != 1)
    return 0;
  const size_t Base = Segments.back().Offset;
  size_t FreedByContinuation = 0;
  // Continuation fold: when the tail keeps repeating the PREVIOUS
  // periodic segment's template (a long run interrupted mid-period by
  // an earlier compression at the cap), fold those copies into that
  // segment directly. Without this, each cap overflow would start a
  // fresh template and a tail shorter than two periods could never
  // fold again.
  if (Segments.size() >= 2) {
    const FilteredSegment &Prev = Segments[Segments.size() - 2];
    if (Prev.Reps > 1 && Prev.Offset + Prev.Len == Base) {
      const size_t P = static_cast<size_t>(Prev.Len);
      size_t K = 0;
      while ((K + 1) * P <= Records.size() - Base &&
             std::equal(Records.begin() + Base + K * P,
                        Records.begin() + Base + (K + 1) * P,
                        Records.begin() + Prev.Offset))
        ++K;
      if (K > 0) {
        Segments[Segments.size() - 2].Reps += K;
        Records.erase(Records.begin() + Base,
                      Records.begin() + Base + K * P);
        Segments.back().Len -= K * P;
        FreedByContinuation = K * P;
        if (Segments.back().Len == 0)
          Segments.pop_back();
      }
    }
  }
  if (Segments.empty() || Segments.back().Reps != 1)
    return FreedByContinuation;
  const size_t N = Records.size() - Base;
  if (N < MinFoldRecords)
    return FreedByContinuation;
  auto Rec = [&](size_t I) { return Records[Base + I]; };
  // Candidate periods come from the previous occurrence of the current
  // record (for the miss streams of loop nests, one period back); every
  // candidate run is then verified by verbatim comparison, so a wrong
  // candidate costs time, never exactness. The comparison budget keeps
  // the scan O(N) even on adversarial streams -- when it runs out, the
  // remainder simply stays literal.
  LastPositions LastPos;
  struct RelSeg {
    size_t Off;
    uint64_t Len;
    uint64_t Reps;
  };
  std::vector<RelSeg> Out;
  uint64_t Budget = 4 * static_cast<uint64_t>(N);
  size_t I = 0, LitStart = 0;
  while (I < N) {
    size_t P = 0;
    size_t Prev = LastPos.exchange(Rec(I).Bits, I);
    // The run template is [I - P, I); it must lie inside the pending
    // literal region, not in an already-emitted segment.
    if (Prev != LastPositions::None && Prev >= LitStart)
      P = I - Prev;
    if (P != 0 && Budget != 0) {
      size_t Q = 0;
      while (I + Q < N && Budget != 0 && Rec(I + Q) == Rec(I + Q - P)) {
        ++Q;
        --Budget;
      }
      // Rec(X) == Rec(X - P) throughout [I, I + Q): the range
      // [I - P, I + Q) is periodic with period P, i.e. the template
      // repeats 1 + Q/P full times (a trailing partial period stays
      // literal).
      uint64_t Reps = 1 + Q / P;
      if (Reps >= MinFoldReps && Reps * P >= MinFoldRecords) {
        if (I - P > LitStart)
          Out.push_back(RelSeg{LitStart, I - P - LitStart, 1});
        Out.push_back(RelSeg{I - P, P, Reps});
        I += (Reps - 1) * P;
        LitStart = I;
        continue;
      }
    }
    ++I;
  }
  bool Folded = false;
  for (const RelSeg &S : Out)
    Folded |= S.Reps > 1;
  if (!Folded)
    return FreedByContinuation;
  if (LitStart < N)
    Out.push_back(RelSeg{LitStart, N - LitStart, 1});

  // Compact the stored tail in place: keep one template copy per
  // segment. Segments are in stream order and a kept copy is never
  // longer than the span it stands for, so each one moves down (or
  // stays) and never over a template still to be moved.
  Segments.pop_back();
  size_t Kept = 0;
  for (const RelSeg &S : Out) {
    Segments.push_back(FilteredSegment{Base + Kept, S.Len, S.Reps});
    if (S.Off != Kept)
      std::copy(Records.begin() + Base + S.Off,
                Records.begin() + Base + S.Off + S.Len,
                Records.begin() + Base + Kept);
    Kept += S.Len;
  }
  Records.resize(Base + Kept);
  return N - Kept + FreedByContinuation;
}

FilteredStream FilteredStream::record(const ScopProgram &Program,
                                      const CacheConfig &L1,
                                      const SimOptions &Opts,
                                      uint64_t MaxRecords) {
  FilteredStream FS;
  FS.L1 = L1;
  telemetry::TimePoint T0 = telemetry::now();
  // A stream holds at most one record per access, and at most MaxRecords.
  const uint64_t Cap = MaxRecords != 0
                           ? std::min(MaxRecords, MaxReservedRecords)
                           : MaxReservedRecords;
  FS.Records.reserve(
      static_cast<size_t>(countAccesses(Program, Opts.IncludeScalars, Cap)));
  ConcreteSimulator Sim(Program, HierarchyConfig::singleLevel(L1), Opts);
  // A miss tap (not a full tap) keeps the recording run on the batched
  // concrete hot loop: hits never surface, and misses are exactly what
  // the record holds.
  Sim.setMissTap([&FS, MaxRecords](BlockId B, bool IsWrite) {
    if (MaxRecords != 0 && FS.Records.size() >= MaxRecords) {
      // Fold periodic repetitions before giving up on the cap -- and
      // demand real headroom from the fold: anything less would
      // re-trigger compression every few records and turn the
      // recording quadratic.
      size_t Freed = FS.compressTail();
      if (Freed < MaxRecords / 4 || FS.Records.size() >= MaxRecords)
        throw RecordCapExceeded{};
    }
    FS.appendRecord(FilteredRecord::make(B, IsWrite));
  });
  try {
    SimStats S = Sim.run();
    FS.L1Stats = S.Level[0];
    // Final fold: cheap (one linear scan of the uncompressed tail) and
    // it puts every later feed/replay on the periodic fast path.
    FS.compressTail();
    assert(FS.L1Stats.Misses == FS.size() &&
           "every L1 miss must be recorded");
  } catch (const RecordCapExceeded &) {
    FS.Truncated = true;
    FS.Expanded = 0;
    FS.Records.clear();
    FS.Records.shrink_to_fit();
    FS.Segments.clear();
    FS.Segments.shrink_to_fit();
  }
  FS.Seconds = telemetry::secondsSince(T0);
  return FS;
}

bool FilteredStream::answersHierarchy(const HierarchyConfig &H,
                                      std::string *Why) const {
  auto Fail = [&](const char *Msg) {
    if (Why)
      *Why = Msg;
    return false;
  };
  if (Truncated)
    return Fail("stream recording was truncated");
  if (H.numLevels() != 2)
    return Fail("filtered streams answer two-level hierarchies only");
  if (H.Inclusion != InclusionPolicy::NonInclusiveNonExclusive)
    return Fail("inclusive/exclusive L2s couple back into the L1; only "
                "NINE hierarchies share L1-filtered streams");
  if (!(H.Levels.front() == L1))
    return Fail("hierarchy L1 differs from the recorded L1");
  return true;
}

void FilteredStream::feed(SetDistanceBank &Bank) const {
  assert(!Truncated && "cannot condition a bank on a truncated stream");
  assert(Bank.blockBytes() == L1.BlockBytes &&
         "bank block size must equal the recorded L1's");
  // Repeated segments walk twice and enter the bank in bulk when the
  // second repetition verifies (see SetDistanceBank::accessRepeated).
  for (const FilteredSegment &S : Segments)
    Bank.accessRepeated(S.Reps, [&] {
      Bank.accessBatch(&Records[S.Offset], static_cast<size_t>(S.Len));
    });
}

SimStats FilteredStream::replay(const CacheConfig &L2) const {
  assert(!Truncated && "cannot replay a truncated stream");
  assert(L2.BlockBytes == L1.BlockBytes &&
         "levels of a hierarchy share one block size");
  telemetry::TimePoint T0 = telemetry::now();
  SimStats S;
  S.NumLevels = 2;
  S.Level[0] = L1Stats;
  S.Level[1].Accesses = Expanded;
  // The NINE L2 leg of ConcreteHierarchy: the L2 sees the same block,
  // allocating unless a write miss under no-write-allocate -- a
  // single-level hierarchy of the L2, stepped by the batch kernel.
  ConcreteHierarchy Cache(HierarchyConfig::singleLevel(L2));
  BatchCounters C;
  uint64_t Analytic = 0, Walked = 0;
  auto WalkOnce = [&](const FilteredSegment &Seg) {
    Cache.accessBatch(&Records[Seg.Offset], static_cast<size_t>(Seg.Len), C);
    Walked += Seg.Len;
  };
  for (const FilteredSegment &Seg : Segments) {
    if (Seg.Reps == 1) {
      WalkOnce(Seg);
      continue;
    }
    // Walk repetitions until the L2 state maps onto itself across one
    // repetition. From a fixed point, every further repetition
    // reproduces the same misses (same input from the same state), so
    // the remainder is applied analytically. If the state never recurs
    // within the probe limit, walk everything -- the sound fallback.
    uint64_t Done = 0;
    WalkOnce(Seg);
    ++Done;
    unsigned Checks = 0;
    ConcreteCache Prev = Cache.level(0);
    while (Done < Seg.Reps) {
      uint64_t M0 = C.L1Misses;
      WalkOnce(Seg);
      ++Done;
      uint64_t PerRep = C.L1Misses - M0;
      if (Cache.level(0).sameReplacementState(Prev)) {
        Analytic += PerRep * (Seg.Reps - Done);
        break;
      }
      if (++Checks >= MaxReplayStateChecks) {
        while (Done < Seg.Reps) {
          WalkOnce(Seg);
          ++Done;
        }
        break;
      }
      Prev = Cache.level(0);
    }
  }
  const uint64_t Misses = C.L1Misses + Analytic;
  S.Level[1].Misses = Misses;
  // Records actually walked; repetitions answered from a recurred state
  // are analytic work, like warped accesses elsewhere.
  S.SimulatedAccesses = Walked;
  S.Seconds = telemetry::secondsSince(T0);
  return S;
}
