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

/// Thrown at an activation top when the warp pilot gives up on the run.
struct PilotStop {};

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
      LoopFailures(Program.loops().size(), 0),
      LoopDisabled(Program.loops().size(), 0),
      ProbeCost(Program.loops().size(), 0),
      ProbeGain(Program.loops().size(), 0),
      GuardedActivations(Program.loops().size(), 0),
      DeltaUnit(Program.loops().size(), -1) {
  Stats.NumLevels = CacheCfg.numLevels();
  for (const CacheConfig &C : CacheCfg.Levels)
    TotalLines += C.numLines();
}

void WarpingSimulator::enableDepthProfile() {
  const CacheConfig &L1 = CacheCfg.Levels.front();
  assert(CacheCfg.numLevels() == 1 && L1.Policy == PolicyKind::Lru &&
         L1.WriteAlloc == WriteAllocate::Yes &&
         "depth profiling needs single-level write-allocate LRU (hit "
         "way == per-set stack distance)");
  DepthProfile = true;
  DepthHist.assign(L1.Assoc, 0);
  Step.DepthHist = DepthHist.data();
}

SimStats WarpingSimulator::run() {
  telemetry::TimePoint Start = telemetry::now();
  try {
    ScopWalk(Program, Options.IncludeScalars, Options.BatchConcrete, Step)
        .run();
  } catch (const PilotStop &) {
    Abandoned = true;
  }
  Stats.Seconds = telemetry::secondsSince(Start);
  uint64_t Rehashed = 0, Copied = 0;
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

int64_t WarpingSimulator::activation(ScopWalk<Visitor> &Walk,
                                     const LoopNode &L, IterVec &Iter,
                                     int64_t Lo, int64_t Hi) {
  // The warp pilot (setWarpPilot): no warp by the limit stops the run,
  // the first warp lifts the limit.
  if (Stats.Level[0].Accesses >= PilotLimit) {
    if (Stats.Warps == 0)
      throw PilotStop{};
    PilotLimit = UINT64_MAX;
  }
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
  bool WarpedAny = false;
  bool EagerSnapshots = Hi - Lo < WC.EagerSnapshotTripLimit;
  uint64_t GainBefore = Stats.WarpedAccesses;

  int64_t X = Lo;
  while (X <= Hi && Probes < WC.MaxProbeIters) {
    ++Probes;
    const uint64_t Now = Cache.tick();
    uint64_t Key = Engine.stateKey(Cache, Epochs, Scope, Act.Keys, Now);
    if (ProbeHook)
      ProbeHook(ProbeView{Cache, Epochs, Scope, Key, nullptr});
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
      WarpedAny = true;
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
          ProbeHook(ProbeView{Cache, Epochs, Scope, Key,
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

  // Learning: loops that probe a lot without ever warping stop probing.
  if (WarpedAny)
    LoopFailures[L.Id] = 0;
  else if (Probes >= WC.MinProbesForLearning &&
           ++LoopFailures[L.Id] >= WC.DisableAfterFailedActivations)
    LoopDisabled[L.Id] = 1;
  // Profit guard: warping must pay for its probing and snapshot cost
  // (in access-equivalents; a probe hashes the whole state, a snapshot
  // copies it).
  if (WC.EnableProfitGuard) {
    ProbeCost[L.Id] += Probes * (TotalLines / 8 + 1) +
                       Act.StoresThisActivation * TotalLines;
    ProbeGain[L.Id] += Stats.WarpedAccesses - GainBefore;
    if (++GuardedActivations[L.Id] >= WC.ProfitGuardActivations &&
        ProbeGain[L.Id] < ProbeCost[L.Id])
      LoopDisabled[L.Id] = 1;
  }
  return X;
}
