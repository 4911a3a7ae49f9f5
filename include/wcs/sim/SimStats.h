//===- wcs/sim/SimStats.h - Simulation counters -----------------*- C++ -*-===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Counters produced by the simulators: per-level access/miss counts plus
/// warping diagnostics (share of non-warped accesses, Fig. 6 top panel).
///
//===----------------------------------------------------------------------===//

#ifndef WCS_SIM_SIMSTATS_H
#define WCS_SIM_SIMSTATS_H

#include <cstdint>
#include <string>

namespace wcs {

/// The outcome of one warp check (WarpEngine::checkWarp): a pass, or
/// the first test it failed. The engine runs the tests in this order,
/// so a check that would fail several counts under the first.
enum class WarpCheck : uint8_t {
  Pass,
  Shift,   ///< No functional block shift for some access node.
  Room,    ///< The warp bounds leave no room for one repetition (N < 1).
  Unknown, ///< A Fourier-Motzkin bound overflowed.
  State,   ///< Line pairs, policy words or the bijection differ.
  Agree,   ///< The bijection disagrees with the warped blocks.
};

/// Failed warp checks by reason; they sum to SimStats::FailedWarpChecks.
struct WarpCheckFailures {
  uint64_t Shift = 0;
  uint64_t State = 0;
  uint64_t Room = 0;
  uint64_t Unknown = 0;
  uint64_t Agree = 0;

  uint64_t total() const { return Shift + State + Room + Unknown + Agree; }
  void count(WarpCheck R) {
    switch (R) {
    case WarpCheck::Pass:
      break;
    case WarpCheck::Shift:
      ++Shift;
      break;
    case WarpCheck::Room:
      ++Room;
      break;
    case WarpCheck::Unknown:
      ++Unknown;
      break;
    case WarpCheck::State:
      ++State;
      break;
    case WarpCheck::Agree:
      ++Agree;
      break;
    }
  }
};

/// Access/miss counters of one cache level.
struct LevelStats {
  uint64_t Accesses = 0;
  uint64_t Misses = 0;

  uint64_t hits() const { return Accesses - Misses; }
  double missRatio() const {
    return Accesses == 0 ? 0.0 : static_cast<double>(Misses) / Accesses;
  }
};

/// Full result of one simulation run.
struct SimStats {
  unsigned NumLevels = 1;
  LevelStats Level[2];

  /// Accesses performed by explicit (symbolic or concrete) simulation.
  uint64_t SimulatedAccesses = 0;
  /// Accesses accounted for analytically by warping (Theorem 4).
  uint64_t WarpedAccesses = 0;
  /// Number of successful warp applications.
  uint64_t Warps = 0;
  /// Warp candidates that matched the state hash but failed verification
  /// or the applicability checks of IterationsToWarp.
  uint64_t FailedWarpChecks = 0;
  /// FailedWarpChecks by reason.
  WarpCheckFailures FailedBy;
  /// Accesses a warping run stepped on the concrete floor after its warp
  /// pilot fired (no warp by 1/WarpPilotFraction of the trace); 0 when
  /// the pilot never fired. Part of SimulatedAccesses.
  uint64_t PilotTailAccesses = 0;

  /// Wall-clock seconds spent inside the simulation loop.
  double Seconds = 0.0;

  /// Counts one simulated access by its outcome at each level.
  void countAccess(bool L1Hit, bool L2Accessed, bool L2Hit) {
    ++SimulatedAccesses;
    ++Level[0].Accesses;
    Level[0].Misses += !L1Hit;
    Level[1].Accesses += L2Accessed;
    Level[1].Misses += L2Accessed && !L2Hit;
  }

  uint64_t totalAccesses() const { return Level[0].Accesses; }
  /// Share of accesses that had to be simulated explicitly (Fig. 6 top).
  double nonWarpedShare() const {
    uint64_t T = totalAccesses();
    return T == 0 ? 1.0 : static_cast<double>(SimulatedAccesses) / T;
  }

  std::string str() const;
};

} // namespace wcs

#endif // WCS_SIM_SIMSTATS_H
