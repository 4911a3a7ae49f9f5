//===- wcs/trace/PeriodicPass.h - Warp-aware distance pass ------*- C++ -*-===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The periodic (warp-aware) stack-distance pass: a sublinear
/// replacement for the linear trace walk behind the sweep driver's LRU
/// fast path. Polyhedral programs put caches through long periodic
/// phases; the plain pass (trace/StackDistance) walks every access of
/// every phase, so at large problem sizes a single warping simulation
/// undercuts the whole shared pass. This pass closes that gap by making
/// the histogram computation itself warp:
///
///   - One warping simulation of the geometry's largest requested
///     associativity runs with depth profiling enabled
///     (WarpingSimulator::enableDepthProfile): under LRU, a hit's
///     pre-update way is its per-set stack distance, so the run yields
///     the hits of the Mattson histogram below that associativity plus
///     one count of the rest -- and, by the inclusion property, the
///     exact miss count of EVERY associativity up to it.
///
///   - Periodic segments of the access stream are detected and verified
///     by the warping machinery itself (rotation-invariant state keys,
///     Theorem 3 state matching, the IterationsToWarp applicability
///     bounds): once one period has been walked concretely, the
///     remaining N-1 repetitions contribute their histogram delta
///     scaled analytically instead of being replayed. Soundness is
///     inherited wholesale -- every relaxation in the warp engine errs
///     toward concrete stepping, never toward an unsound skip, so the
///     resulting histogram is bit-identical to the linear pass (on
///     non-periodic programs the run degrades to an ordinary concrete
///     walk and the result is still exact, just not faster).
///
/// The resulting DistanceHistogram enters a SetDistanceBank of the
/// profiled width through the bulk entry point
/// (SetDistanceBank::addPeriodicContribution).
///
/// A warp pilot may cut the pass short: the pass pays only where the
/// cache state recurs, so a caller that can condition the bank another
/// way (the sweep's linear walk) gives up a pass that has stepped a set
/// number of accesses without one warp (WarpingSimulator::
/// setWarpPilot), and the result reports the abandonment and its cost.
///
//===----------------------------------------------------------------------===//

#ifndef WCS_TRACE_PERIODICPASS_H
#define WCS_TRACE_PERIODICPASS_H

#include "wcs/scop/Program.h"
#include "wcs/sim/SimConfig.h"
#include "wcs/sim/SimStats.h"
#include "wcs/trace/StackDistance.h"

#include <cassert>
#include <cstdint>

namespace wcs {

/// Outcome of one warp-aware periodic pass.
struct PeriodicPassResult {
  /// The Mattson histogram of the profiled geometry at width MaxAssoc:
  /// Hist[d] counts hits at per-set stack distance d (d < MaxAssoc),
  /// Beyond counts everything else (colds and distances >= MaxAssoc --
  /// exactly the profiled cache's misses).
  DistanceHistogram Histogram;
  /// The profiled ways: the width of the banks the pass conditions.
  unsigned MaxAssoc = 0;
  /// Counters of the underlying warping run; Stats.Seconds is the pass
  /// cost, Stats.WarpedAccesses / Warps its periodicity diagnostics.
  SimStats Stats;
  /// The warp pilot stopped the pass: Stats count the accesses it
  /// stepped, and Histogram is empty -- it must not condition a bank.
  bool Abandoned = false;

  /// Conditions \p Bank (of the same geometry, MaxAssoc wide) on the
  /// pass result: one bulk update. Returns false -- leaving the bank
  /// untouched -- when the bank rejects the update because its counters
  /// would overflow; the caller must then condition the bank through the
  /// linear pass instead.
  [[nodiscard]] bool addTo(SetDistanceBank &Bank) const {
    assert(!Abandoned && "an abandoned pass holds no histogram");
    assert(Bank.maxAssoc() == MaxAssoc && "the bank has the pass's width");
    return Bank.addPeriodicContribution(Histogram, 1);
  }
};

/// Runs the periodic pass for geometry (\p BlockBytes, \p NumSets),
/// answering write-allocate LRU points of every associativity up to
/// \p MaxAssoc. \p NumSets must be a power of two and \p MaxAssoc within
/// the LRU associativity limit (4096). The pass is abandoned once it has
/// stepped \p PilotAccesses accesses without a warp (checked at loop
/// activation tops); UINT64_MAX runs it to the end.
PeriodicPassResult runPeriodicPass(const ScopProgram &Program,
                                   unsigned BlockBytes, unsigned NumSets,
                                   unsigned MaxAssoc,
                                   const SimOptions &Opts = SimOptions(),
                                   uint64_t PilotAccesses = UINT64_MAX);

} // namespace wcs

#endif // WCS_TRACE_PERIODICPASS_H
