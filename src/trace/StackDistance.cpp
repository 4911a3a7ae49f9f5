//===- trace/StackDistance.cpp --------------------------------------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "wcs/trace/StackDistance.h"

#include "wcs/sim/BatchWalk.h"
#include "wcs/support/MathUtil.h"
#include "wcs/support/Telemetry.h"

#include <cassert>

using namespace wcs;

StackDistanceProfiler::StackDistanceProfiler(unsigned BlockBytes,
                                             size_t InitialTreeCapacity)
    : BlockShift(log2Exact(BlockBytes)) {
  // The growth step in bitAdd doubles and seeds the new root with the
  // tree total, which is only correct when the size is a power of two.
  size_t Cap = 2;
  while (Cap < InitialTreeCapacity)
    Cap *= 2;
  Bit.resize(Cap, 0);
}

void StackDistanceProfiler::bitAdd(uint64_t Pos, int64_t Val) {
  // Grow by doubling. A new power-of-two node P covers the range (0, P],
  // which contains every existing element, so it must start at the
  // current tree total (all other new nodes cover only new, empty
  // positions).
  while (Pos >= Bit.size()) {
    size_t Old = Bit.size();
    Bit.resize(Old * 2, 0);
    Bit[Old] = TreeTotal;
  }
  TreeTotal += Val;
  for (uint64_t I = Pos; I < Bit.size(); I += I & (~I + 1))
    Bit[I] += Val;
}

int64_t StackDistanceProfiler::bitPrefix(uint64_t Pos) const {
  if (Pos >= Bit.size())
    Pos = Bit.size() - 1;
  int64_t S = 0;
  for (uint64_t I = Pos; I > 0; I -= I & (~I + 1))
    S += Bit[I];
  return S;
}

int64_t StackDistanceProfiler::accessBlock(BlockId B) {
  ++Time; // 1-based timestamps.
  int64_t Dist = -1;
  auto It = LastAccess.find(B);
  if (It == LastAccess.end()) {
    ++Colds;
  } else {
    // Distinct blocks touched strictly between the previous access to B
    // and now = number of "last access" markers in (last, now).
    uint64_t D = static_cast<uint64_t>(bitPrefix(Time - 1) -
                                       bitPrefix(It->second));
    if (Hist.size() <= D)
      Hist.resize(D + 1, 0);
    ++Hist[D];
    bitAdd(It->second, -1);
    Dist = static_cast<int64_t>(D);
  }
  bitAdd(Time, +1);
  LastAccess[B] = Time;
  return Dist;
}

uint64_t StackDistanceProfiler::missesForAssoc(uint64_t Assoc) const {
  uint64_t M = Colds;
  for (uint64_t D = Assoc; D < Hist.size(); ++D)
    M += Hist[D];
  return M;
}

SetDistanceBank::SetDistanceBank(unsigned BlockBytes, unsigned NumSets,
                                 unsigned MaxAssoc)
    : BlockShift(log2Exact(BlockBytes)), NumSets(NumSets),
      SetMask(NumSets - 1) {
  assert(NumSets != 0 && (NumSets & (NumSets - 1)) == 0 &&
         "set count must be a power of two (modulo placement)");
  assert(MaxAssoc != 0 && "a bank must answer at least one way");
  if (MaxAssoc <= MaxTruncatedAssoc) {
    Rows.emplace(CacheConfig{static_cast<uint64_t>(BlockBytes) * NumSets *
                                 MaxAssoc,
                             MaxAssoc, BlockBytes, PolicyKind::Lru,
                             WriteAllocate::Yes});
    RowHist.assign(MaxAssoc, 0);
    TruncAssoc = MaxAssoc;
    return;
  }
  // Small initial trees: a bank with thousands of sets would otherwise
  // pay 8 KiB per set before the first access.
  Profilers.reserve(NumSets);
  for (unsigned S = 0; S < NumSets; ++S)
    Profilers.emplace_back(BlockBytes, NumSets > 1 ? 64 : 1024);
}

void SetDistanceBank::captureDistance(int64_t D) {
  ++Capture.Accesses;
  if (D < 0) {
    ++Capture.Beyond;
    // Only an exact bank knows a miss is cold; a truncated bank's
    // misses may be deep re-touches, verified through its rows instead.
    if (!Rows)
      CaptureSawCold = true;
    return;
  }
  uint64_t UD = static_cast<uint64_t>(D);
  if (Capture.Hist.size() <= UD)
    Capture.Hist.resize(UD + 1, 0);
  ++Capture.Hist[UD];
}

void SetDistanceBank::beginPeriodCapture() {
  Capture = DistanceHistogram();
  CaptureSawCold = false;
  if (Rows)
    CaptureRows = Rows; // Copy-assignment reuses the snapshot's storage.
  Capturing = true;
}

std::optional<DistanceHistogram> SetDistanceBank::endPeriodCapture() {
  Capturing = false;
  bool Stationary =
      Rows ? Rows->stateEquals(*CaptureRows) : !CaptureSawCold;
  if (!Stationary)
    return std::nullopt;
  return std::move(Capture);
}

bool SetDistanceBank::addPeriodicContribution(const DistanceHistogram &H,
                                              uint64_t Reps,
                                              unsigned TruncatedAtAssoc) {
  assert(!Capturing && "cannot bulk-update while capturing a period");
  // Validate every scaled accumulation before applying any of them, so
  // a rejected update leaves the bank exactly as it was (the caller
  // falls back to walking the repetitions against this same bank).
  uint64_t Scaled, Accum;
  for (size_t D = 0; D < H.Hist.size(); ++D) {
    uint64_t Cur = D < BulkHist.size() ? BulkHist[D] : 0;
    if (__builtin_mul_overflow(H.Hist[D], Reps, &Scaled) ||
        __builtin_add_overflow(Cur, Scaled, &Accum))
      return false;
  }
  // Colds and beyond-truncation distances both miss at every
  // associativity the bank may answer afterwards.
  if (__builtin_mul_overflow(H.Beyond, Reps, &Scaled) ||
      __builtin_add_overflow(BulkAlwaysMiss, Scaled, &Accum))
    return false;
  if (__builtin_mul_overflow(H.Accesses, Reps, &Scaled) ||
      __builtin_add_overflow(Total, Scaled, &Accum))
    return false;

  if (BulkHist.size() < H.Hist.size())
    BulkHist.resize(H.Hist.size(), 0);
  for (size_t D = 0; D < H.Hist.size(); ++D)
    BulkHist[D] += H.Hist[D] * Reps;
  BulkAlwaysMiss += H.Beyond * Reps;
  Total += H.Accesses * Reps;
  if (TruncatedAtAssoc != 0 &&
      (TruncAssoc == 0 || TruncatedAtAssoc < TruncAssoc))
    TruncAssoc = TruncatedAtAssoc;
  return true;
}

uint64_t SetDistanceBank::missesForAssoc(uint64_t Assoc) const {
  assert((TruncAssoc == 0 || Assoc <= TruncAssoc) &&
         "bank is truncated below the requested associativity");
  uint64_t M = BulkAlwaysMiss + RowMisses;
  for (uint64_t D = Assoc; D < BulkHist.size(); ++D)
    M += BulkHist[D];
  for (uint64_t D = Assoc; D < RowHist.size(); ++D)
    M += RowHist[D];
  for (const StackDistanceProfiler &P : Profilers)
    M += P.missesForAssoc(Assoc);
  return M;
}

bool SetDistanceBank::matches(const CacheConfig &C) const {
  return C.Policy == PolicyKind::Lru &&
         C.WriteAlloc == WriteAllocate::Yes &&
         C.BlockBytes == blockBytes() && C.numSets() == numSets() &&
         (TruncAssoc == 0 || C.Assoc <= TruncAssoc);
}

uint64_t SetDistanceBank::missesForCache(const CacheConfig &C) const {
  assert(matches(C) && "config does not match the bank geometry");
  return missesForAssoc(C.Assoc);
}

namespace {

/// Walks \p P with lanes and hands \p Feed the block ids, at \p Shift,
/// in program-order chunks. Returns the accesses walked.
template <typename FeedFn>
uint64_t walkBlocks(const ScopProgram &P, bool IncludeScalars,
                    unsigned Shift, FeedFn Feed) {
  struct Blocks {
    unsigned Shift;
    FeedFn &Feed;
    uint64_t Count = 0;
    size_t N = 0;
    BlockId Buf[1024] = {};

    void push(int64_t Addr) {
      Buf[N++] = Addr >> Shift;
      if (N == std::size(Buf))
        flush();
    }
    void flush() {
      Feed(static_cast<const BlockId *>(Buf), N);
      Count += N;
      N = 0;
    }
    void access(const AccessNode &, const IterVec &, int64_t Addr) {
      push(Addr);
    }
    void lanes(const LoopNode &, int64_t Lo, int64_t Hi,
               std::span<WalkLane> Lanes) {
      for (int64_t X = Lo; X <= Hi; ++X)
        for (WalkLane &Ln : Lanes) {
          push(Ln.Addr);
          Ln.Addr += Ln.Stride;
        }
    }
  } V{Shift, Feed};
  ScopWalk(P, IncludeScalars, /*Batch=*/true, V).run();
  V.flush();
  return V.Count;
}

} // namespace

uint64_t wcs::feedBanks(const ScopProgram &Program, bool IncludeScalars,
                        const std::vector<SetDistanceBank *> &Banks) {
  unsigned Shift = 63;
  for (const SetDistanceBank *B : Banks)
    Shift = std::min(Shift, log2Exact(B->blockBytes()));
  return walkBlocks(Program, IncludeScalars, Shift,
                    [&](const BlockId *Blocks, size_t N) {
                      for (SetDistanceBank *B : Banks) {
                        unsigned D = log2Exact(B->blockBytes()) - Shift;
                        for (size_t I = 0; I < N; ++I)
                          B->accessBlock(Blocks[I] >> D);
                      }
                    });
}

StackDistanceProfiler wcs::profileProgram(const ScopProgram &Program,
                                          unsigned BlockBytes,
                                          bool IncludeScalars,
                                          double *Seconds) {
  telemetry::TimePoint Start = telemetry::now();
  StackDistanceProfiler Prof(BlockBytes);
  walkBlocks(Program, IncludeScalars, log2Exact(BlockBytes),
             [&](const BlockId *Blocks, size_t N) {
               for (size_t I = 0; I < N; ++I)
                 Prof.accessBlock(Blocks[I]);
             });
  if (Seconds)
    *Seconds = telemetry::secondsSince(Start);
  return Prof;
}

SetDistanceBank wcs::profileProgramSets(const ScopProgram &Program,
                                        unsigned BlockBytes,
                                        unsigned NumSets, unsigned MaxAssoc,
                                        bool IncludeScalars,
                                        double *Seconds) {
  telemetry::TimePoint Start = telemetry::now();
  SetDistanceBank Bank(BlockBytes, NumSets, MaxAssoc);
  feedBanks(Program, IncludeScalars, {&Bank});
  if (Seconds)
    *Seconds = telemetry::secondsSince(Start);
  return Bank;
}
