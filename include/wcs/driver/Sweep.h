//===- wcs/driver/Sweep.h - Single-pass cache-hierarchy sweep ---*- C++ -*-===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Design-space sweep driver: evaluates one program against a whole grid
/// of cache-hierarchy configurations for far less than one simulation
/// per configuration. Two mechanisms stack:
///
///  - Single-level write-allocate LRU points are answered analytically
///    from shared stack-distance passes: a per-set stack-distance bank
///    (SetDistanceBank) per distinct (block size, set count) geometry,
///    and every associativity of a geometry -- and thus every capacity
///    point -- falls out of the Mattson inclusion property without
///    further work. K LRU capacity points cost one shared pass instead
///    of K simulations. Each bank is built for the widest associativity
///    its points ask for: up to 64 ways it keeps LRU rows of that width
///    (a row scan per access, on the simulators' batch kernel), wider it
///    keeps exact per-set trackers (a tree walk per access). Each bank
///    pays for one pass, of one of two bit-identical flavors, chosen
///    per bank:
///      - a warp-aware periodic pass (trace/PeriodicPass), which skips
///        periodic trace phases analytically and is sublinear in trace
///        length like warping itself, but pays only where the cache
///        state recurs;
///      - the linear walk (feedBanks), which feeds its banks the
///        program-order walk's chunks, runs as repeat markers. The banks
///        it feeds are split into one group per worker, and each group
///        is one task that walks the program once.
///    A counting pre-walk (one step per loop activation) measures the
///    trace. Short traces, and sweeps whose WarpSweepMinAccesses is
///    UINT64_MAX, walk every bank linearly. Longer traces start one
///    periodic pass per bank under a warp pilot: a pass that has
///    stepped 1/WarpPilotFraction of the trace without one warp is
///    abandoned, and its bank joins the linear walk. A threshold of 0
///    runs every periodic pass to its end.
///
///  - Two-level NINE points are grouped by their L1 configuration: the
///    L1-miss-filtered access stream of each distinct L1 is recorded
///    ONCE (trace/FilteredStream) and answers every L2 sharing that L1
///    -- LRU write-allocate L2s analytically from stack-distance banks
///    conditioned on the stream (sized to their widest L2 like the
///    single-level banks), all other L2s by replaying the (much
///    shorter) recorded stream through a concrete L2 as deduplicated
///    BatchRunner jobs. K two-level points over G distinct L1s cost G
///    L1 simulations plus cheap replays instead of K full simulations.
///
///  - All remaining points (single-level FIFO / PLRU / QLRU,
///    no-write-allocate LRU, inclusive/exclusive hierarchies, and
///    two-level points whose stream recording overran its cap) are
///    deduplicated -- grids routinely expand to identical
///    configurations -- and fanned across BatchRunner workers, on the
///    warping backend by default.
///
/// Results carry per-point provenance (method, backend, attributed wall
/// time), and a SweepReport serializes as a schema-versioned
/// "wcs-sweep" document, reusing the Json/Results plumbing of the
/// wcs-results files.
///
//===----------------------------------------------------------------------===//

#ifndef WCS_DRIVER_SWEEP_H
#define WCS_DRIVER_SWEEP_H

#include "wcs/driver/BatchRunner.h"
#include "wcs/driver/SpecParse.h"
#include "wcs/support/Json.h"

#include <cstdint>
#include <string>
#include <vector>

namespace wcs {

/// How one sweep point's counters were obtained.
enum class SweepMethod {
  StackDistance, ///< Shared per-set stack-distance pass (LRU fast path).
  /// Shared L1-miss-filtered stream (two-level NINE fast path); the
  /// point's Backend tells the second stage apart: StackDistance for
  /// L2s answered from a conditioned bank, Concrete for replayed L2s.
  FilteredStream,
  Simulated, ///< Dedicated simulation job through BatchRunner.
  /// Answered from the wcs-serve content-addressed result store: the
  /// counters were computed by an earlier request (whose own method
  /// provenance was one of the above at insert time) and returned
  /// verbatim, bit-identical to fresh simulation.
  Store,
};

const char *sweepMethodName(SweepMethod M);

/// Inverse of sweepMethodName. Returns false on an unknown name, leaving
/// \p Out untouched.
bool parseSweepMethodName(const std::string &Name, SweepMethod &Out);

/// Outcome of one grid point.
struct SweepPoint {
  HierarchyConfig Cache;
  SweepMethod Method = SweepMethod::Simulated;
  SimBackend Backend = SimBackend::Warping;
  bool Ok = false;
  std::string Error;
  /// Counters; Stats.Seconds is the wall time attributed to this point:
  /// its job's time, or, for a stack-distance point, equal shares of its
  /// bank's periodic pass, the pre-walk and, if its bank was walked, the
  /// linear walk. The stack-distance points' seconds, failed points
  /// included, sum to SweepReport::stackDistanceSeconds().
  SimStats Stats;
};

/// The warp pilot of the sweep's periodic flavor: a bank's periodic pass
/// that has stepped 1/WarpPilotFraction of the trace's accesses without
/// a single warp is abandoned, and the bank is fed by the linear walk.
/// A pass that is kept runs and decides exactly as without a pilot.
inline constexpr uint64_t WarpPilotFraction = 8;

/// How to run a sweep. Sim.IncludeScalars and Backend change counters;
/// everything else is a per-run knob that only changes how this process
/// computes them (the warping search bounds in Sim.Warp, Threads, the
/// stream cap and the pass-flavor threshold), so sweep requests never
/// serialize, hash or key it (see SweepRequest).
struct SweepOptions {
  SimOptions Sim;
  /// Worker threads for the simulated partition, the filtered-stream
  /// recordings, the periodic passes and the linear walks (0 = all
  /// cores).
  unsigned Threads = 1;
  /// Backend for points no fast path can answer.
  SimBackend Backend = SimBackend::Warping;
  /// Cap on the STORED records of one L1-miss-filtered stream (memory
  /// guard: a record is 8 bytes). Streams are run-length encoded, so
  /// periodic streams stay far below their logical length; a recording
  /// that would exceed the cap even compressed is aborted and its grid
  /// points fall back to full simulation with method "simulated".
  /// 0 = unlimited. The default bounds a stream at 512 MiB.
  uint64_t MaxFilteredRecords = 1ull << 26;
  /// Warp-aware sweeping: the trace length (in accesses) at which the
  /// single-level LRU banks start per-geometry periodic passes
  /// (trace/PeriodicPass) under the warp pilot (WarpPilotFraction)
  /// instead of taking the linear walk. Results are bit-identical either
  /// way; this only moves cost. A counting pre-walk (countAccesses)
  /// measures the whole trace: it counts trip count x lanes per
  /// innermost activation, so it takes one step per loop activation
  /// rather than one per access (0.06-1.43 ms per grid-a request of the
  /// sweep-medium benchmark on a shared 4-core host). Below the
  /// threshold the linear walk is already cheap and the per-bank
  /// warping runs would not pay for themselves (a cache that never
  /// fills never warps). 0 = always periodic, every pass run to its end
  /// (no pilot); 1 = a pilot-run periodic pass for every bank of any
  /// trace; UINT64_MAX = always the linear walk, without the pre-walk
  /// (the wcs-sim --no-warp-sweep escape hatch).
  uint64_t WarpSweepMinAccesses = 2ull << 20;
};

/// Everything runSweep returns -- per-point results in input order plus
/// the shared-pass and partition figures -- and, with its three labels,
/// the "wcs-sweep" document that tools write and wcs-serve answers
/// with. The document carries the labels, Threads, the points and the
/// figures its serializer names; NumBanks, StackDistancePoints,
/// PeriodicAbandoned, FilteredPoints, ReplayJobs and WallSeconds are
/// in-process figures that a read leaves at 0. The periodic-pass and per-method-seconds
/// figures joined the v1 schema after its first release: always
/// written, optional on read (defaulting to 0/false/empty, which is
/// what pre-periodic sweeps genuinely had), so older v1 files keep
/// parsing.
struct SweepReport {
  std::string Tool;     ///< Producing tool ("wcs-sim", "wcs-serve").
  std::string Program;  ///< Swept program (kernel name or file).
  std::string SizeName; ///< Problem-size label, empty when inapplicable.
  std::vector<SweepPoint> Points; ///< Indexed by input config order.
  /// Cost of the linear shared pass: its walks' seconds summed (plus the
  /// pre-walk when every bank walked linearly).
  double TracePassSeconds = 0.0;
  uint64_t TraceAccesses = 0;     ///< Accesses in the shared pass(es).
  unsigned NumBanks = 0;          ///< Distinct (block, sets) geometries.
  size_t StackDistancePoints = 0; ///< Points answered analytically.
  /// Warp-aware sweeping: true when the banks started periodic passes
  /// (one warping depth-profile run per geometry) instead of the linear
  /// walk.
  bool PeriodicPass = false;
  /// Sum of per-bank pass times and the pre-walk, discarded passes
  /// included (a bank whose pass was abandoned, failed or had its result
  /// rejected is conditioned by a linear walk instead, timed in
  /// TracePassSeconds).
  double PeriodicPassSeconds = 0.0;
  /// Periodic passes the warp pilot abandoned.
  unsigned PeriodicAbandoned = 0;
  uint64_t PeriodicWarps = 0; ///< Warps of the passes used.
  /// Accesses the passes used skipped analytically.
  uint64_t PeriodicWarpedAccesses = 0;
  size_t FilteredPoints = 0;      ///< Points answered via filtered streams.
  unsigned FilteredGroups = 0;    ///< Distinct L1 configs recorded.
  uint64_t FilteredRecords = 0;   ///< Logical records across all streams.
  uint64_t FilteredStoredRecords = 0; ///< Stored after RLE compression.
  double RecordSeconds = 0.0;     ///< Stream recording + bank feeding.
  /// L1 configs of groups demoted to full simulation because their
  /// recording overran the stream cap even after compression; tools
  /// surface these so the method change is visible interactively.
  std::vector<std::string> DemotedL1s;
  size_t SimulatedJobs = 0;       ///< Jobs actually run (after dedup).
  size_t ReplayJobs = 0;          ///< Of those, filtered-stream replays.
  size_t DedupedPoints = 0;       ///< Simulated points sharing a job.
  double SimulatedSeconds = 0.0;  ///< Sum of full-simulation job times.
  double ReplaySeconds = 0.0;     ///< Sum of stream-replay job times.
  double WallSeconds = 0.0;
  unsigned Threads = 1;

  bool allOk() const;
  /// Wall time attributed to the stack-distance method (whichever pass
  /// flavor ran).
  double stackDistanceSeconds() const {
    return TracePassSeconds + PeriodicPassSeconds;
  }
  /// Wall time attributed to the filtered-stream method (recording +
  /// bank conditioning + replays).
  double filteredSeconds() const { return RecordSeconds + ReplaySeconds; }
  /// One-line partition/cost summary for tools.
  std::string summary() const;
};

/// Sweeps \p Program over \p Configs. Configurations may repeat; every
/// input index gets a point. The program must outlive the call.
SweepReport runSweep(const ScopProgram &Program,
                     const std::vector<HierarchyConfig> &Configs,
                     const SweepOptions &Opts);

/// Splits \p Configs into sub-sweep groups along exactly the seams
/// runSweep's internal partition never shares across: all single-level
/// write-allocate LRU points form ONE group (they share the
/// stack-distance pass and its banks), two-level NINE points group by
/// their L1 configuration (one recorded filtered stream per distinct
/// L1), and every other point groups by its exact configuration (the
/// BatchRunner dedup key). Each returned group lists input indices in
/// input order; every index appears in exactly one group.
///
/// The invariant this buys: running each group through its own
/// runSweep call yields counters bit-identical to one combined call
/// over all of \p Configs -- per-point results never depend on which
/// other points ride along, only the COST does, and the grouping keeps
/// every intra-request sharing opportunity (shared pass, shared
/// stream, job dedup) inside one group. This is what lets the
/// wcs-serve scheduler interleave jobs from many requests without
/// giving up the sharing that makes sweeps fast. Invalid
/// configurations group by their exact configuration like the
/// simulated remainder (they fail identically wherever they run).
std::vector<std::vector<size_t>>
partitionSweepGroups(const std::vector<HierarchyConfig> &Configs);

/// Accumulates the aggregate pass/partition figures of \p From into
/// \p Into: additive figures (pass seconds, job counts, record
/// counts...) sum, TraceAccesses takes the max (same program, same
/// trace -- summing would double-count), PeriodicPass ORs, DemotedL1s
/// appends. Labels, Points and Threads are left untouched: the caller
/// owns point placement. Used to reassemble one SweepReport from
/// per-group sub-sweeps (see partitionSweepGroups).
void mergeSweepReports(SweepReport &Into, const SweepReport &From);

//===----------------------------------------------------------------------===//
// The wcs-sweep results document
//===----------------------------------------------------------------------===//

/// Sweep-file format identifier and version; same regime as the
/// wcs-results schema (readers reject any mismatch).
inline constexpr const char SweepSchemaName[] = "wcs-sweep";
inline constexpr int64_t SweepSchemaVersion = 1;

/// One-line per-method breakdown of a sweep -- point counts and
/// attributed seconds per method, periodic-pass provenance -- used
/// verbatim by wcs-sim (on the live report) and by wcs-report's
/// single-file rendering, so the live run and the artifact rendering
/// can never drift apart.
std::string methodBreakdownLine(const SweepReport &D);

json::Value toJson(const SweepPoint &P);
bool fromJson(const json::Value &V, SweepPoint &Out, std::string *Err);
json::Value toJson(const SweepReport &D);
bool fromJson(const json::Value &V, SweepReport &Out, std::string *Err);

bool writeSweepFile(const std::string &Path, const SweepReport &D,
                    std::string *Err);
bool readSweepFile(const std::string &Path, SweepReport &Out,
                   std::string *Err);

} // namespace wcs

#endif // WCS_DRIVER_SWEEP_H
