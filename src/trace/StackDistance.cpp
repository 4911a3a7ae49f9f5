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

#include <algorithm>
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
    Rows.emplace(HierarchyConfig::singleLevel(
        CacheConfig{static_cast<uint64_t>(BlockBytes) * NumSets * MaxAssoc,
                    MaxAssoc, BlockBytes, PolicyKind::Lru,
                    WriteAllocate::Yes}));
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

void SetDistanceBank::accessBatch(const BatchedAccess *Ops, size_t N) {
  if (Rows) {
    BatchCounters C;
    Rows->accessBatch(Ops, N, C, {}, nullptr, RowHist.data());
    addCount(Total, C.L1Accesses);
    RowMisses += C.L1Misses;
    return;
  }
  for (size_t I = 0; I < N; ++I) {
    if (!Ops[I].isRepeat()) {
      exactAccess(Ops[I].block());
      continue;
    }
    // The marker's iteration was walked once, right before it. A run may
    // stand for more accesses than a walk could ever count: check the
    // total first, so such a run fails as a counter overflow instead of
    // walking should its bulk update not fit.
    const size_t IterOps = Ops[I].iterOps();
    const BatchedAccess *Iter = Ops + I - IterOps;
    const uint64_t Reps = Ops[I + 1].Bits;
    uint64_t After = Total;
    addCount(After, mulCount(Reps, IterOps));
    accessRepeated(Reps, [&] {
      for (size_t J = 0; J < IterOps; ++J)
        exactAccess(Iter[J].block());
    });
    ++I;
  }
}

void SetDistanceBank::accessBlock(BlockId B) {
  if (!Rows) {
    exactAccess(B);
    return;
  }
  ++Total;
  if (!Rows->access(B, false, {}, RowHist.data()).L1Hit)
    ++RowMisses;
}

void SetDistanceBank::exactAccess(BlockId B) {
  ++Total;
  int64_t D =
      Profilers[static_cast<size_t>(static_cast<uint64_t>(B) & SetMask)]
          .accessBlock(B);
  if (!Capturing)
    return;
  ++Capture.Accesses;
  if (D < 0) {
    ++Capture.Beyond;
    CaptureSawCold = true;
    return;
  }
  uint64_t UD = static_cast<uint64_t>(D);
  if (Capture.Hist.size() <= UD)
    Capture.Hist.resize(UD + 1, 0);
  ++Capture.Hist[UD];
}

void SetDistanceBank::beginPeriodCapture() {
  Capturing = true;
  CaptureSawCold = false;
  if (!Rows) {
    Capture = DistanceHistogram();
    return;
  }
  // Copy-assignment reuses the snapshots' storage.
  CaptureRows = Rows->level(0);
  Capture.Hist = RowHist;
  Capture.Beyond = RowMisses;
  Capture.Accesses = Total;
}

std::optional<DistanceHistogram> SetDistanceBank::endPeriodCapture() {
  Capturing = false;
  if (!Rows) {
    if (CaptureSawCold)
      return std::nullopt;
    return std::move(Capture);
  }
  if (!Rows->level(0).sameReplacementState(*CaptureRows))
    return std::nullopt;
  DistanceHistogram H;
  H.Hist.resize(RowHist.size());
  for (size_t D = 0; D < RowHist.size(); ++D)
    H.Hist[D] = RowHist[D] - Capture.Hist[D];
  H.Beyond = RowMisses - Capture.Beyond;
  H.Accesses = Total - Capture.Accesses;
  return H;
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
/// in program-order chunks (the exact profiler's walk). Returns the
/// accesses walked.
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

/// The linear pass's visitor: the walk's ops go through one ChunkWriter
/// at the walk's block size, and each full chunk steps every bank --
/// as it is, or shifted to the bank's larger block size.
class BankFeeder {
public:
  BankFeeder(unsigned Shift, const std::vector<SetDistanceBank *> &Banks)
      : Shift(Shift), Chunks(Shift) {
    for (SetDistanceBank *B : Banks) {
      unsigned D = log2Exact(B->blockBytes()) - Shift;
      auto It = std::find_if(Sizes.begin(), Sizes.end(),
                             [&](const SizeGroup &G) { return G.Shift == D; });
      if (It == Sizes.end())
        It = Sizes.insert(Sizes.end(), SizeGroup{D, {}});
      It->Banks.push_back(B);
    }
  }

  uint64_t accesses() const { return Count; }

  void access(const AccessNode &A, const IterVec &, int64_t Addr) {
    addCount(Count, 1);
    Chunks.push(BatchedAccess::make(Addr >> Shift, A.isWrite()), *this);
  }
  void lanes(const LoopNode &, int64_t Lo, int64_t Hi,
             std::span<WalkLane> Lanes) {
    addCount(Count, mulCount(static_cast<uint64_t>(Hi - Lo) + 1,
                             Lanes.size()));
    Chunks.lanes(Lo, Hi, Lanes, *this);
  }
  void finish() { Chunks.flush(*this); }

  /// The chunk callback of the writer.
  void operator()(const BatchedAccess *Ops, size_t N, int64_t) {
    for (SizeGroup &G : Sizes) {
      const BatchedAccess *In = Ops;
      if (G.Shift != 0) {
        // Runs at the walk's block size are runs at the bank's too, so
        // the markers stay; a marker's count word is no op.
        Shifted.resize(N);
        for (size_t I = 0; I < N; ++I) {
          if (Ops[I].isRepeat()) {
            Shifted[I] = Ops[I];
            Shifted[I + 1] = Ops[I + 1];
            ++I;
            continue;
          }
          Shifted[I] = BatchedAccess::make(Ops[I].block() >> G.Shift,
                                           Ops[I].isWrite());
        }
        In = Shifted.data();
      }
      for (SetDistanceBank *B : G.Banks)
        B->accessBatch(In, N);
    }
  }

private:
  /// The banks of one block size, \p Shift bits above the walk's.
  struct SizeGroup {
    unsigned Shift;
    std::vector<SetDistanceBank *> Banks;
  };

  unsigned Shift;
  ChunkWriter Chunks;
  std::vector<SizeGroup> Sizes;
  std::vector<BatchedAccess> Shifted; ///< One shifted chunk, reused.
  uint64_t Count = 0;
};

} // namespace

uint64_t wcs::feedBanks(const ScopProgram &Program, bool IncludeScalars,
                        const std::vector<SetDistanceBank *> &Banks) {
  unsigned Shift = 63;
  for (const SetDistanceBank *B : Banks)
    Shift = std::min(Shift, log2Exact(B->blockBytes()));
  BankFeeder V(Shift, Banks);
  ScopWalk(Program, IncludeScalars, /*Batch=*/true, V).run();
  V.finish();
  return V.accesses();
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
