//===- sim/WarpingSimulator.cpp -------------------------------------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "wcs/sim/WarpingSimulator.h"

#include "wcs/support/MathUtil.h"
#include "wcs/support/Telemetry.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

using namespace wcs;

namespace {

/// Counter snapshot for warp accounting.
struct CounterState {
  uint64_t L1Acc, L1Miss, L2Acc, L2Miss;

  static CounterState capture(const SimStats &S) {
    return CounterState{S.Level[0].Accesses, S.Level[0].Misses,
                        S.Level[1].Accesses, S.Level[1].Misses};
  }
};

/// One stored state with its snapshot slot in the activation's ring.
struct StoredEntry {
  int64_t X0;
  CounterState Counters;
  unsigned Slot;      ///< Ring slot of the snapshot.
  uint32_t Generation; ///< Must match the slot's generation to be valid.
};

struct Bucket {
  unsigned SeenWithoutSnapshot = 0;
  std::vector<StoredEntry> Entries;
};

} // namespace

/// Pooled per-activation scratch: the state-key map, the cached set
/// hashes of the incremental key, and reusable snapshot storage. A ring
/// slot keeps the tick at which it last equalled the live hierarchy, so
/// a store into a written slot -- by this activation or an earlier one
/// at the same depth -- copies only the sets stamped since.
struct WarpingSimulator::Activation {
  std::unordered_map<uint64_t, Bucket> Map;
  KeyCache Keys;
  std::vector<SymbolicHierarchy> Snapshots; ///< Ring storage.
  /// Depth-histogram copy per ring slot (depth-profiling runs only;
  /// copy-assignment reuses capacity like the snapshots themselves).
  std::vector<std::vector<uint64_t>> SnapshotHists;
  std::vector<uint32_t> SlotGen;  ///< Generation per slot.
  std::vector<uint64_t> SlotTick; ///< Tick of each slot's last store.
  unsigned NextSlot = 0;
  uint64_t StoresThisActivation = 0;
  int64_t LastStoreX = INT64_MIN / 4;
  uint64_t SetsCopied = 0; ///< Snapshot sets copied so far (telemetry).

  void reset() {
    Map.clear();
    Keys.reset();
    NextSlot = 0;
    StoresThisActivation = 0;
    LastStoreX = INT64_MIN / 4;
    // Generations and slot ticks persist across activations; entries
    // die with the map.
  }

  bool valid(const StoredEntry &E) const {
    return E.Slot < SlotGen.size() && SlotGen[E.Slot] == E.Generation;
  }

  /// Ring slots written by this activation: [0, liveSlots()).
  size_t liveSlots() const {
    return static_cast<size_t>(
        std::min<uint64_t>(StoresThisActivation, Snapshots.size()));
  }

  /// Stores \p State, at the tick \p Now, into the ring, overwriting
  /// (and thereby invalidating) the oldest slot once the ring is full.
  StoredEntry store(const SymbolicHierarchy &State, unsigned RingSize,
                    int64_t X, const CounterState &Counters,
                    const std::vector<uint64_t> *Hist, uint64_t Now) {
    unsigned Slot = NextSlot;
    NextSlot = (NextSlot + 1) % RingSize;
    if (Slot < Snapshots.size()) {
      SetsCopied += Snapshots[Slot].copyChangedSets(State, SlotTick[Slot]);
    } else {
      Snapshots.resize(Slot + 1, State);
      SlotGen.resize(Slot + 1, 0);
      SlotTick.resize(Slot + 1, 0);
      for (unsigned L = 0; L < State.numLevels(); ++L)
        SetsCopied += State.level(L).numSets();
    }
    SlotTick[Slot] = Now;
    if (Hist) {
      if (SnapshotHists.size() <= Slot)
        SnapshotHists.resize(Slot + 1);
      SnapshotHists[Slot] = *Hist;
    }
    ++SlotGen[Slot];
    ++StoresThisActivation;
    LastStoreX = X;
    return StoredEntry{X, Counters, Slot, SlotGen[Slot]};
  }
};

WarpingSimulator::~WarpingSimulator() = default;

WarpingSimulator::Activation &
WarpingSimulator::activationAtDepth(unsigned Depth) {
  while (Pools.size() <= Depth)
    Pools.push_back(std::make_unique<Activation>());
  Pools[Depth]->reset();
  return *Pools[Depth];
}

namespace {

/// How many times its stepped accesses a run with no warp counts of its
/// trace at most, to find its pilot point (see WarpingSimulator.h). One
/// count at the floor covers every trace up to 2^24 accesses; counting
/// an access costs a small fraction of stepping it.
constexpr uint64_t PilotCountScale = 256;

/// The epoch-table size below which no collection runs: twice the tag
/// slots plus the open activations of the deepest nest, so a collection
/// frees at least about one epoch per tag slot.
size_t epochCollectFloor(const HierarchyConfig &Cfg) {
  size_t Lines = 0;
  for (const CacheConfig &C : Cfg.Levels)
    Lines += C.numLines();
  return 2 * (Lines + MaxLoopDepth);
}

} // namespace

WarpingSimulator::WarpingSimulator(const ScopProgram &Program,
                                   const HierarchyConfig &CacheCfg,
                                   SimOptions Options)
    : Program(Program), CacheCfg(CacheCfg), Cache(CacheCfg),
      Engine(Program, CacheCfg, Options), Options(Options),
      Epochs(epochCollectFloor(CacheCfg)),
      Step{{Cache, Stats, log2Exact(CacheCfg.blockBytes())}, *this},
      LoopDisabled(Program.loops().size(), 0),
      ProbeCost(Program.loops().size(), 0),
      ProbeGain(Program.loops().size(), 0),
      DeltaUnit(Program.loops().size(), -1) {
  Stats.NumLevels = CacheCfg.numLevels();
  for (const CacheConfig &C : CacheCfg.Levels)
    TotalLines += C.numLines();
}

void WarpingSimulator::enableDepthProfile() {
  const CacheConfig &L1 = CacheCfg.Levels.front();
  assert(CacheCfg.numLevels() == 1 && L1.answeredByStackDistance() &&
         "depth profiling needs single-level write-allocate LRU (hit "
         "way == per-set stack distance)");
  DepthProfile = true;
  DepthHist.assign(L1.Assoc, 0);
  Step.DepthHist = DepthHist.data();
}

SimStats WarpingSimulator::run() {
  telemetry::TimePoint Start = telemetry::now();
  ScopWalk(Program, Options.IncludeScalars, Options.BatchConcrete, Step)
      .run();
  if (Floor)
    Stats.PilotTailAccesses = Stats.Level[0].Accesses - Floor->AccessesBefore;
  Stats.Seconds = telemetry::secondsSince(Start);
  uint64_t Rehashed = FreedRehashed, Copied = FreedCopied;
  for (const std::unique_ptr<Activation> &A : Pools) {
    Rehashed += A->Keys.Rehashed;
    Copied += A->SetsCopied;
  }
  telemetry::Registry &Reg = telemetry::registry();
  Reg.counter("sim.warp.key_sets_rehashed").add(Rehashed);
  Reg.counter("sim.warp.snapshot_sets_copied").add(Copied);
  return Stats;
}

void WarpingSimulator::setProbeHook(
    std::function<void(const ProbeView &)> Hook) {
  ProbeHook = std::move(Hook);
}

void WarpingSimulator::openEpoch(const IterVec &Prefix) {
  // The activations open at depths above the new one's are its enclosing
  // ones; deeper entries belong to closed activations.
  std::vector<uint32_t> &Open = Step.Epochs;
  Open.resize(Prefix.size());
  if (Epochs.wantsCollection()) {
    // Roots: the live hierarchy, the snapshots the open activations may
    // still compare against, and the open activations themselves. The
    // pool of the activation being opened was just reset: no live slots.
    Epochs.beginMark();
    Epochs.markTags(Cache);
    for (size_t D = 0; D < Open.size(); ++D)
      for (size_t Slot = 0; Slot < Pools[D]->liveSlots(); ++Slot)
        Epochs.markTags(Pools[D]->Snapshots[Slot]);
    for (uint32_t E : Open)
      Epochs.mark(E);
    Epochs.sweep();
  }
  Open.push_back(Epochs.add(Prefix));
}

void WarpingSimulator::checkPilot() {
  // The first warp lifts the pilot for good.
  if (Stats.Warps != 0) {
    PilotCheckAt = UINT64_MAX;
    return;
  }
  const uint64_t Stepped = Stats.Level[0].Accesses;
  if (!PilotPointKnown) {
    // Count the trace, capped at PilotCountScale times what was stepped.
    // A capped count puts the pilot point past Cap / WarpPilotFraction;
    // the next count waits for half that, so it is due before the pilot
    // point, and the capped counts add up to about one trace at most.
    uint64_t Cap = UINT64_MAX;
    if (Stepped <= UINT64_MAX / PilotCountScale)
      Cap = Stepped * PilotCountScale;
    const uint64_t Trace = countAccesses(Program, Options.IncludeScalars, Cap);
    if (Trace == Cap) {
      PilotCheckAt = Cap / (2 * WarpPilotFraction);
      return;
    }
    PilotPointKnown = true;
    PilotCheckAt = Trace / WarpPilotFraction;
    if (Stepped < PilotCheckAt)
      return;
  }
  // No warp by the pilot point: finish on the concrete floor. Nothing
  // probes any more, so the probe state goes first; the open
  // activations' pools are not touched again (see activation).
  PilotCheckAt = UINT64_MAX;
  for (const std::unique_ptr<Activation> &A : Pools) {
    FreedRehashed += A->Keys.Rehashed;
    FreedCopied += A->SetsCopied;
  }
  Pools.clear();
  Pools.shrink_to_fit();
  const unsigned BlockShift = log2Exact(CacheCfg.blockBytes());
  Floor = std::make_unique<ConcreteFloor>(CacheCfg, Stats, BlockShift);
  Floor->Cache.copyLinesFrom(Cache);
  Floor->Step.DepthHist = Step.DepthHist;
  Step.FloorStep = &Floor->Step;
  telemetry::registry().counter("sim.warp.pilot_stops").add(1);
}

int64_t WarpingSimulator::activation(ScopWalk<Visitor> &Walk,
                                     const LoopNode &L, IterVec &Iter,
                                     int64_t Lo, int64_t Hi) {
  if (Stats.Level[0].Accesses >= PilotCheckAt)
    checkPilot();
  if (Floor)
    return Lo; // The pilot fired: the walk steps the concrete floor.
  const WarpConfig &WC = Options.Warp;
  // Viable match distances are multiples of the loop's delta unit
  // (computed once per loop node); a zero unit means the loop can never
  // satisfy the warping conditions, so probing is skipped entirely.
  if (DeltaUnit[L.Id] == -1)
    DeltaUnit[L.Id] = Engine.deltaUnit(&L);
  int64_t Unit = DeltaUnit[L.Id];
  bool CanProbe = WC.Enable && !LoopDisabled[L.Id] &&
                  L.EndAccess > L.FirstAccess && Unit > 0;

  // Paper Algorithm 2 line 4: a fresh map per activation; warping is only
  // attempted while the enclosing iterators are unchanged. The backing
  // storage is pooled per nesting depth.
  Activation &Act = activationAtDepth(L.Depth);
  openEpoch(Iter);
  if (!CanProbe)
    return Lo;

  const WarpScope Scope{&L, Iter, Hi};
  unsigned Probes = 0;
  bool EagerSnapshots = Hi - Lo < WC.EagerSnapshotTripLimit;
  uint64_t GainBefore = Stats.WarpedAccesses;

  // A pilot that fires inside an iteration ends the probing, and this
  // activation's pool with it.
  int64_t X = Lo;
  while (X <= Hi && Probes < WC.MaxProbeIters && !Floor) {
    ++Probes;
    const uint64_t Now = Cache.tick();
    uint64_t Key = Engine.stateKey(Cache, Epochs, Scope, Act.Keys, Now);
    if (ProbeHook)
      ProbeHook(ProbeView{Cache, Stats, Epochs, Scope, Key, nullptr});
    Bucket &Bk = Act.Map[Key];
    bool Warped = false;
    // Try stored snapshots, most recent (smallest delta) first.
    for (auto It = Bk.Entries.rbegin(); It != Bk.Entries.rend(); ++It) {
      if (!Act.valid(*It))
        continue; // The ring recycled this snapshot.
      int64_t Delta = X - It->X0;
      if (Delta < 1 || Delta > WC.MaxDelta || Delta % Unit != 0)
        continue;
      WarpPlan Plan;
      if (WarpCheck R = Engine.checkWarp(Act.Snapshots[It->Slot], Cache,
                                         Epochs, Scope, It->X0, X, Plan);
          R != WarpCheck::Pass) {
        ++Stats.FailedWarpChecks;
        Stats.FailedBy.count(R);
        continue;
      }
      // Fast-forward counters by N copies of the match window
      // (Theorem 4, Eq. (19)), checked: a count past 2^64 fails the
      // run instead of wrapping.
      CounterState Now = CounterState::capture(Stats);
      uint64_t N = static_cast<uint64_t>(Plan.N);
      uint64_t Window = mulCount(N, Now.L1Acc - It->Counters.L1Acc);
      addCount(Stats.Level[0].Accesses, Window);
      addCount(Stats.Level[0].Misses,
               mulCount(N, Now.L1Miss - It->Counters.L1Miss));
      addCount(Stats.Level[1].Accesses,
               mulCount(N, Now.L2Acc - It->Counters.L2Acc));
      addCount(Stats.Level[1].Misses,
               mulCount(N, Now.L2Miss - It->Counters.L2Miss));
      addCount(Stats.WarpedAccesses, Window);
      ++Stats.Warps;
      if (DepthProfile) {
        // The verified state bijection preserves per-set recency
        // positions (rotations rename sets, block shifts rename lines;
        // neither moves a line within its set's recency order), so the
        // hit-depth sequence of every warped repetition equals the match
        // window's: scale the window's histogram delta like the
        // counters above.
        const std::vector<uint64_t> &H0 = Act.SnapshotHists[It->Slot];
        for (size_t D = 0; D < DepthHist.size(); ++D)
          addCount(DepthHist[D], mulCount(N, DepthHist[D] - H0[D]));
      }
      Engine.applyWarp(Cache, Epochs, Scope, Plan);
      X += Plan.N * Plan.Delta;
      Warped = true;
      break;
    }
    if (Warped)
      continue; // Re-enter at the fast-forwarded iteration.
    // Store: marker on first occurrence, snapshot on the second (or
    // immediately for short loops), with a minimum spacing between
    // snapshots of the same bucket.
    if (!EagerSnapshots && Bk.Entries.empty() &&
        Bk.SeenWithoutSnapshot == 0) {
      Bk.SeenWithoutSnapshot = 1;
    } else if (X - Act.LastStoreX >= WC.MinSnapshotSpacing ||
               EagerSnapshots) {
      // Drop entries whose ring slot was recycled, then store.
      std::erase_if(Bk.Entries,
                    [&](const StoredEntry &E) { return !Act.valid(E); });
      if (Bk.Entries.size() < WC.MaxSnapshotsPerBucket) {
        Bk.Entries.push_back(Act.store(Cache, WC.SnapshotRingSize, X,
                                       CounterState::capture(Stats),
                                       DepthProfile ? &DepthHist : nullptr,
                                       Now));
        if (ProbeHook)
          ProbeHook(ProbeView{Cache, Stats, Epochs, Scope, Key,
                              &Act.Snapshots[Bk.Entries.back().Slot]});
      }
    }
    Walk.iteration(L, Iter, X);
    ++X;
  }
  // No probe point left. The rest of a batchable loop is the walk's
  // lanes event; any other loop is stepped to its end here, so the
  // profit guard below counts the warps of its nested loops too.
  if (!Walk.batches(L))
    for (; X <= Hi; ++X)
      Walk.iteration(L, Iter, X);
  if (Floor)
    return X;

  // Profit guard: a loop stops probing as soon as the accesses its warps
  // saved fall below what its probes and stores cost. The cost is a
  // fixed access-equivalent estimate, TotalLines / 8 + 1 per probe and
  // TotalLines per store, dating from when a probe hashed and a store
  // copied the whole state. Both now touch only the sets changed since;
  // the constants are kept as they are, not retuned to that. Counts, not
  // measured seconds, so warp decisions are the same on every run.
  if (WC.EnableProfitGuard) {
    ProbeCost[L.Id] += Probes * (TotalLines / 8 + 1) +
                       Act.StoresThisActivation * TotalLines;
    ProbeGain[L.Id] += Stats.WarpedAccesses - GainBefore;
    if (ProbeGain[L.Id] < ProbeCost[L.Id])
      LoopDisabled[L.Id] = 1;
  }
  return X;
}
