//===- wcs/sim/WarpingSimulator.h - Algorithm 2 ----------------*- C++ -*-===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Warping symbolic cache simulation (paper Algorithm 2). Each loop-node
/// activation keeps a hash map of the symbolic cache states reached at
/// the top of its iterations (fresh per activation: warping is attempted
/// only across iterations of one loop while the enclosing iterators are
/// fixed, as in the paper). When the current state's key recurs, the
/// engine verifies the match under set rotations, bounds the number of
/// warpable iterations (IterationsToWarp), and fast-forwards: iteration
/// counter, per-level access/miss counters and the symbolic state all
/// advance analytically.
///
/// Storage discipline: the first occurrence of a key records only a
/// marker; a snapshot is taken on the second occurrence (on the first in
/// short loops, see WarpConfig::EagerSnapshotTripLimit); later
/// occurrences attempt warps against the stored snapshots. One rule,
/// the profit guard (WarpConfig::EnableProfitGuard), stops a loop's
/// probing: after each activation, once the accesses the loop's warps
/// saved fall below what its probes and stores cost, keeping kernels
/// that never warp near ordinary-simulation cost.
///
/// Probes cost what changed. The symbolic hierarchy stamps every set it
/// changes (SetAssocCache::tick), and each probe ticks it. The key
/// rehashes only the sets stamped since the activation's previous probe
/// and combines the cached set hashes with their MRA-relative positions
/// (WarpEngine::stateKey, O(sets)); snapshots live in a pooled ring whose
/// slots remember the tick of their last store, so storing into a
/// written slot copies only the sets stamped since, plus the rotation
/// base, the MRA set and the depth histogram. A check runs the cheap,
/// state-independent warp bounds before the line pairs and stops at the
/// first conflict that leaves no room for a repetition. Keys, snapshots
/// and warp decisions are the same as with full hashing and copying;
/// the registry counters sim.warp.key_sets_rehashed and
/// sim.warp.snapshot_sets_copied count the sets each did touch.
///
/// Stepping. The simulator is a visitor of the program-order walk
/// (ScopWalk, BatchWalk.h): the access and lanes events go to the
/// HierarchyStepper it shares with the concrete simulator, and this
/// class adds Algorithm 2 at every loop top. There each activation opens
/// one epoch of the simulator's EpochTable (its enclosing-iterator
/// prefix), so a tag is 16 bytes (see SymbolicCache.h); an epoch
/// collection runs, when due, as an activation opens, with the live
/// hierarchy, the valid snapshots of the open activations and the open
/// activations' own epochs as roots. Probe points are the tops of the
/// first MaxProbeIters iterations of a loop that may probe; the loop top
/// steps those iterations itself, one access at a time, and leaves the
/// rest to the walk. With SimOptions::BatchConcrete, the rest of a
/// batchable innermost loop -- a whole activation of a loop that cannot
/// probe or whose probing the profit guard stopped, or the tail after
/// MaxProbeIters -- is a lanes event, and the hierarchy's
/// accessBatch refreshes each tag from the lane's node, the
/// activation's epoch and the iteration. There, as in the concrete
/// simulator, a run of iterations that touch the same blocks is
/// simulated only until one iteration hits everywhere; the rest are
/// counted as hits, and each touched line takes the tag of the run's
/// last iteration. Probed iterations are never skipped. The state every
/// probe sees, and so every warp decision, is the same either way. The
/// warp fast-forward scales counters with checked arithmetic: a count
/// past 2^64 - 1 throws std::overflow_error("counter overflow").
///
//===----------------------------------------------------------------------===//

#ifndef WCS_SIM_WARPINGSIMULATOR_H
#define WCS_SIM_WARPINGSIMULATOR_H

#include "wcs/scop/Program.h"
#include "wcs/sim/BatchWalk.h"
#include "wcs/sim/SimConfig.h"
#include "wcs/sim/SimStats.h"
#include "wcs/sim/SymbolicCache.h"
#include "wcs/sim/WarpEngine.h"

#include <functional>
#include <memory>

namespace wcs {

/// Warping symbolic simulator (paper Algorithm 2).
class WarpingSimulator {
public:
  WarpingSimulator(const ScopProgram &Program, const HierarchyConfig &Cache,
                   SimOptions Options = SimOptions());

  /// Simulates the whole program on an initially empty hierarchy.
  SimStats run();

  /// Enables L1 hit-depth profiling: run() then additionally produces
  /// the histogram of per-set stack distances of all hits (depthHist()).
  /// Requires a single-level write-allocate LRU configuration, where a
  /// hit's pre-update way IS its per-set stack distance; the histogram
  /// of an A-way run is thus the Mattson histogram truncated at depth A
  /// (everything at or beyond A is a miss), from which the miss count
  /// of EVERY associativity up to A follows. Warps contribute their
  /// repetitions analytically: the depth sequence of a verified match
  /// window repeats exactly (Theorem 3's state bijection preserves
  /// per-set recency positions, which are invariant under the set
  /// rotations and block shifts a warp applies), so the window's
  /// histogram delta is scaled by the repetition count -- the
  /// trace-pass analogue of warping itself, and the engine behind
  /// trace/PeriodicPass. Call before run().
  void enableDepthProfile();

  /// Hit counts by L1 stack depth (size = L1 associativity); valid
  /// after a run() with enableDepthProfile().
  const std::vector<uint64_t> &depthHist() const { return DepthHist; }

  /// Warp pilot: run() stops at the first loop-activation top at which
  /// \p Accesses or more accesses were stepped without a single warp,
  /// and abandoned() then holds; its stats count what was stepped. The
  /// check is one compare per activation and lifts at the first warp,
  /// so a run that warps in time runs and decides exactly as without a
  /// pilot. Call before run().
  void setWarpPilot(uint64_t Accesses) { PilotLimit = Accesses; }

  /// True when the warp pilot stopped run().
  bool abandoned() const { return Abandoned; }

  /// The most entries the epoch table held during run(): bounded by a
  /// small multiple of the distinct prefixes still referenced, not by
  /// the number of loop activations.
  size_t epochHighWater() const { return Epochs.highWater(); }

  /// What a probe hook sees: the live state at a probe, the probing
  /// activation's scope and the incremental key; Stored is the snapshot
  /// this probe stored, or null.
  struct ProbeView {
    const SymbolicHierarchy &State;
    const EpochTable &Epochs;
    const WarpScope &Scope;
    uint64_t Key;
    const SymbolicHierarchy *Stored;
  };

  /// Calls \p Hook at every probe, once the key is computed, and again
  /// after each snapshot store: how the tests check the incremental key
  /// and snapshots against full recomputation. Call before run().
  void setProbeHook(std::function<void(const ProbeView &)> Hook);

  ~WarpingSimulator();

private:
  /// The walk's visitor: the shared step, plus Algorithm 2 at every loop
  /// top.
  struct Visitor : HierarchyStepper<SymTag> {
    WarpingSimulator &Sim;
    int64_t loopTop(ScopWalk<Visitor> &Walk, const LoopNode &L,
                    IterVec &Iter, int64_t Lo, int64_t Hi) {
      return Sim.activation(Walk, L, Iter, Lo, Hi);
    }
  };

  /// Algorithm 2 over one activation of \p L with bounds [\p Lo, \p Hi]:
  /// opens its epoch, probes and warps at the tops of its first
  /// iterations, and returns the first iteration left to the walk.
  int64_t activation(ScopWalk<Visitor> &Walk, const LoopNode &L,
                     IterVec &Iter, int64_t Lo, int64_t Hi);

  /// Per-nesting-depth activation scratch (hash map + snapshot storage),
  /// pooled across activations to avoid allocation churn in loops with
  /// many short activations.
  struct Activation;
  Activation &activationAtDepth(unsigned Depth);

  /// Opens the epoch of a loop activation whose enclosing iterators are
  /// \p Prefix, collecting unreferenced epochs first when due.
  void openEpoch(const IterVec &Prefix);

  const ScopProgram &Program;
  HierarchyConfig CacheCfg;
  SymbolicHierarchy Cache;
  WarpEngine Engine;
  SimOptions Options;
  SimStats Stats;
  EpochTable Epochs;
  /// The walk's visitor. Its Epochs hold the epochs of the open loop
  /// activations by depth; entry D is the activation whose pool is
  /// Pools[D].
  Visitor Step;
  /// Profit guard per loop node: probing is off once the accesses its
  /// warps saved (ProbeGain) fall below its probe and store cost, both in
  /// access equivalents.
  std::vector<uint8_t> LoopDisabled;
  std::vector<uint64_t> ProbeCost;
  std::vector<uint64_t> ProbeGain;
  /// Per-loop viable-delta unit (-1 = not yet computed; 0 = never warps).
  std::vector<int64_t> DeltaUnit;
  uint64_t TotalLines = 0;
  std::vector<std::unique_ptr<Activation>> Pools;
  /// Depth profiling (enableDepthProfile): hit counts by L1 stack depth.
  std::vector<uint64_t> DepthHist;
  bool DepthProfile = false;
  /// Warp pilot (setWarpPilot): the stepped accesses at which a run
  /// without a warp stops; UINT64_MAX once lifted or never set.
  uint64_t PilotLimit = UINT64_MAX;
  bool Abandoned = false;
  std::function<void(const ProbeView &)> ProbeHook;
};

} // namespace wcs

#endif // WCS_SIM_WARPINGSIMULATOR_H
