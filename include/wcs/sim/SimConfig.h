//===- wcs/sim/SimConfig.h - Simulation options -----------------*- C++ -*-===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Options shared by the simulators, the engineering bounds of the
/// warping search and the warp pilot's constants. All of them are
/// soundness-neutral: exceeding a bound, or the pilot firing, only
/// forfeits warping opportunities, never correctness (validated by the
/// warping == non-warping equivalence suite).
///
/// Only IncludeScalars changes a counter, so only it is serialized (in
/// wcs-request and wcs-results documents). The bounds and BatchConcrete
/// are in-process knobs: the tests' stress settings and the wcs-bench
/// ablation rows set them, and the rows' tags name them. A caller that
/// sets them owns their sanity; SnapshotRingSize, for one, must be
/// nonzero.
///
//===----------------------------------------------------------------------===//

#ifndef WCS_SIM_SIMCONFIG_H
#define WCS_SIM_SIMCONFIG_H

#include <cstdint>

namespace wcs {

/// Bounds of the warping search (Algorithm 2). In-process only; never
/// serialized (see the file comment).
struct WarpConfig {
  bool Enable = true;

  /// State keys are only computed for the first MaxProbeIters iterations
  /// of a loop activation. The window must cover the cold-start
  /// transient: periodic states only appear once the initial cache
  /// content has been flushed, which for a dense stream takes on the
  /// order of (cache lines) * (elements per block) iterations.
  unsigned MaxProbeIters = 4096;

  /// Snapshots are stored in a per-activation ring: when full, the
  /// oldest snapshot is overwritten (and its stored entry invalidated).
  /// Recycling makes cold-start transients harmless -- their useless
  /// snapshots age out -- while one matching snapshot suffices to warp
  /// the whole tail of a loop. Together with MinSnapshotSpacing, the
  /// ring covers the last SnapshotRingSize * MinSnapshotSpacing
  /// iterations, which should be at least MaxDelta.
  unsigned SnapshotRingSize = 64;

  /// Snapshots compared per state-key bucket.
  unsigned MaxSnapshotsPerBucket = 2;

  /// Minimum iteration distance between stored snapshots (global within
  /// an activation). State keys often recur at adjacent iterations (the
  /// key is deliberately insensitive to the warped iterator); spacing
  /// stretches the ring's reach and avoids copying near-duplicates.
  int64_t MinSnapshotSpacing = 16;

  /// Loops with at most this many iterations snapshot on the *first*
  /// occurrence of a key instead of the second. Short loops (outer time
  /// loops in particular) cannot afford to burn a whole state period on
  /// the two-phase discipline. Their snapshots are not few: at PolyBench
  /// MEDIUM nearly every loop is this short, so nearly every probe
  /// stores one (jacobi-2d's 1,024-set, 16-way periodic-pass bank stored
  /// about 1,000 snapshots of 16,384 lines). A store into a recycled
  /// ring slot therefore copies only the sets changed since that slot
  /// was written (see WarpingSimulator.h).
  int64_t EagerSnapshotTripLimit = 128;

  /// Maximum match distance delta = x1 - x0 considered for warping.
  /// Under PLRU / Quad-age LRU the way-placement pattern of a dense
  /// stream can take several block periods to recur (empirically ~16
  /// blocks), so this must comfortably exceed
  /// (elements per block) * (a few way-placement cycles).
  int64_t MaxDelta = 512;

  /// Profit guard, the one rule that stops a loop node's probing: after
  /// each of its activations, once the accesses its warps saved fall
  /// below the access-equivalent cost of its probes and snapshot stores
  /// so far, the node probes no more. A loop that never warps thus
  /// probes in its first activation only, and one that warps with poor
  /// return (a short inner loop whose pattern period is a large fraction
  /// of its trip count, say) falls back to plain symbolic simulation.
  /// Off, every activation probes.
  bool EnableProfitGuard = true;
};

/// The warp pilot of every warping run (WarpingSimulator::setWarpPilot):
/// a run that has stepped 1/WarpPilotFraction of its trace without a
/// single warp finishes on the concrete floor. The first warp lifts it,
/// so a run that warps in time decides exactly as without a pilot.
inline constexpr uint64_t WarpPilotFraction = 8;

/// Stepped accesses below which a run without a warp does not count its
/// trace for the pilot: short runs pay no count, and a run that warps
/// early (a stencil) never counts at all.
inline constexpr uint64_t WarpPilotCountFloor = uint64_t(1) << 16;

/// Options shared by all simulators.
struct SimOptions {
  /// Include scalar (zero-dimensional) accesses. The paper's tool counts
  /// array accesses only (Sec. 6.4), so the default is off.
  bool IncludeScalars = false;

  /// Batched address generation, in both simulators. The program-order
  /// walk (ScopWalk, sim/BatchWalk.h) hands every innermost loop whose
  /// body is plain (unguarded) affine accesses to its lanes event, which
  /// lowers it to stride-incremented address chunks handed to
  /// CacheHierarchy::accessBatch, instead of one step and one hierarchy
  /// call per access. The warping simulator batches every such stretch
  /// it is not probing -- whole activations of loops that cannot probe
  /// or stopped probing, and the tail after WarpConfig::MaxProbeIters --
  /// and refreshes the symbolic tags inside the batch loop, until its
  /// warp pilot fires and the concrete batch loop takes over. Where every
  /// lane moves less than a block per iteration, the batched walk also
  /// skips: repetitions of an iteration that hits everywhere in the L1
  /// are counted, not simulated (HierarchyStepper,
  /// CacheHierarchy::accessBatch). Counters and warp decisions are
  /// bit-identical either way (the equivalence and fuzz suites run
  /// both); off = the walk's per-access reference mode, which never
  /// skips, kept as the test reference, the bench baseline and the
  /// escape hatch.
  bool BatchConcrete = true;

  WarpConfig Warp;
};

} // namespace wcs

#endif // WCS_SIM_SIMCONFIG_H
