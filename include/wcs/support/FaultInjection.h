//===- wcs/support/FaultInjection.h - Seeded fault injection ----*- C++ -*-===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded, env/flag-armed fault points for hardening tests. A fault
/// point is a named site in the serving stack or the sweep driver that
/// can be made to fail with a configured probability:
///
///   store.write          ResultStore::insert tears the append mid-line
///                        and fails (crash-equivalent: the log grows a
///                        torn tail that the next open truncates; the
///                        store refuses further appends until reopened)
///   socket.send          Protocol sendLine fails before writing
///   socket.recv          Protocol LineReader::readLine fails
///   scheduler.job        Scheduler job execution throws mid-compute
///   sweep.periodic-pass  runSweep discards a finished periodic pass as
///                        if its bank had rejected the result, so the
///                        bank falls back to the linear walk
///
/// Arm with a spec string ("point:prob,point:prob,...") via arm() or
/// the WCS_FAULT environment variable (seed: WCS_FAULT_SEED); draws are
/// a deterministic function of (seed, draw index), so a failing run
/// replays exactly. Compiled in always; when disarmed every shouldFail
/// is one relaxed atomic load (the telemetry span discipline), so the
/// hooks cost nothing in production.
///
//===----------------------------------------------------------------------===//

#ifndef WCS_SUPPORT_FAULTINJECTION_H
#define WCS_SUPPORT_FAULTINJECTION_H

#include <atomic>
#include <cstdint>
#include <string>

namespace wcs {
namespace faultinject {

namespace detail {
/// Nonzero while any fault point is armed. Relaxed is enough: arming
/// happens before the traffic a test observes, and a stale read in the
/// handover instant merely injects (or skips) one draw.
inline std::atomic<unsigned> Armed{0};
bool shouldFailSlow(const char *Point);
} // namespace detail

/// True when the armed configuration says the named fault point fails
/// this time. The caller then fails the operation as if the real
/// counterpart (disk, peer, kernel) had. Disarmed: one relaxed load.
inline bool shouldFail(const char *Point) {
  if (detail::Armed.load(std::memory_order_relaxed) == 0)
    return false;
  return detail::shouldFailSlow(Point);
}

/// Arms fault points from \p Spec ("store.write:0.05,socket.send:0.1").
/// Probabilities are in [0, 1]; unknown point names are rejected (a
/// typo that never fires is worse than an error). Resets the draw
/// counter so equal (Spec, Seed) pairs replay identically.
bool arm(const std::string &Spec, uint64_t Seed, std::string *Err);

/// Arms from WCS_FAULT / WCS_FAULT_SEED when set; no-op (and true)
/// when WCS_FAULT is absent or empty. False on a malformed spec.
bool armFromEnv(std::string *Err);

/// Disarms every fault point and zeroes the injected counters.
void disarm();

/// True when any fault point is armed.
bool armed();

/// The armed spec in canonical form (diagnostics/logging), empty when
/// disarmed.
std::string armedSpec();

/// Faults injected since the last arm(), in total or for one point.
uint64_t injectedCount();
uint64_t injectedCount(const std::string &Point);

} // namespace faultinject
} // namespace wcs

#endif // WCS_SUPPORT_FAULTINJECTION_H
