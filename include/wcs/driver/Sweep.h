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
///    (a row scan per access), wider it keeps exact per-set profilers
///    (a tree walk per access). The pass itself comes in two flavors:
///    for long traces (decided by a cheap counting pre-walk) each bank
///    is produced by a warp-aware periodic pass (trace/PeriodicPass)
///    that skips periodic trace phases analytically and is sublinear in
///    trace length like warping itself; short traces, and sweeps with
///    WarpSweep off, use ONE linear trace walk feeding all banks.
///    Both flavors are bit-identical.
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
/// time) and serialize as a schema-versioned "wcs-sweep" document,
/// reusing the Json/Results plumbing of the wcs-results files.
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
  /// Counters; Stats.Seconds is the wall time attributed to this point
  /// (its job's time, or an equal share of the shared trace pass for
  /// stack-distance points).
  SimStats Stats;
};

struct SweepOptions {
  SimOptions Sim;
  /// Worker threads for the simulated partition, the filtered-stream
  /// recordings and the periodic passes (0 = all cores).
  unsigned Threads = 1;
  /// Backend for points no fast path can answer.
  SimBackend Backend = SimBackend::Warping;
  /// Cap on the STORED records of one L1-miss-filtered stream (memory
  /// guard: a record is 16 bytes). Streams are run-length encoded, so
  /// periodic streams stay far below their logical length; a recording
  /// that would exceed the cap even compressed is aborted and its grid
  /// points fall back to full simulation with method "simulated".
  /// 0 = unlimited. The default bounds a stream at 1 GiB.
  uint64_t MaxFilteredRecords = 1ull << 26;
  /// Warp-aware sweeping: produce the single-level LRU banks by
  /// per-geometry periodic passes (trace/PeriodicPass) when the trace
  /// is long, instead of the linear shared walk. Results are
  /// bit-identical either way; this only moves the crossover at which
  /// the sweep beats independent warping runs. false = always the
  /// linear walk (the wcs-sim --no-warp-sweep escape hatch).
  bool WarpSweep = true;
  /// Trace length (in accesses) at which the periodic pass takes over
  /// from the linear walk. Decided by a counting pre-walk that aborts
  /// at the threshold, so the probe costs a few ms at most. Below it
  /// the linear walk is already cheap and the per-bank warping runs
  /// would not pay for themselves (a cache that never fills never
  /// warps). 0 = periodic whenever WarpSweep is on.
  uint64_t WarpSweepMinAccesses = 2ull << 20;
};

/// Everything runSweep returns: per-point results in input order plus
/// the shared-pass and partition figures.
struct SweepReport {
  std::vector<SweepPoint> Points; ///< Indexed by input config order.
  double TracePassSeconds = 0.0;  ///< Cost of the linear shared pass.
  uint64_t TraceAccesses = 0;     ///< Accesses in the shared pass(es).
  unsigned NumBanks = 0;          ///< Distinct (block, sets) geometries.
  size_t StackDistancePoints = 0; ///< Points answered analytically.
  /// Warp-aware sweeping: true when the banks came from periodic
  /// passes (one warping depth-profile run per geometry) instead of
  /// the linear walk.
  bool PeriodicPass = false;
  double PeriodicPassSeconds = 0.0;   ///< Sum of per-bank pass times.
  uint64_t PeriodicWarps = 0;         ///< Warps across all passes.
  uint64_t PeriodicWarpedAccesses = 0;///< Accesses skipped analytically.
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
/// appends. Points and Threads are left untouched: the caller owns
/// point placement. Used to reassemble one SweepReport from per-group
/// sub-sweeps (see partitionSweepGroups).
void mergeSweepReports(SweepReport &Into, const SweepReport &From);

//===----------------------------------------------------------------------===//
// The wcs-sweep results document
//===----------------------------------------------------------------------===//

/// Sweep-file format identifier and version; same regime as the
/// wcs-results schema (readers reject any mismatch).
inline constexpr const char SweepSchemaName[] = "wcs-sweep";
inline constexpr int64_t SweepSchemaVersion = 1;

/// A whole sweep file: producer metadata, shared-pass figures, points.
/// The periodic-pass and per-method-seconds figures joined the v1
/// schema after its first release: always written, optional on read
/// (defaulting to 0/false/empty, which is what pre-periodic sweeps
/// genuinely had), so older v1 files keep parsing.
struct SweepDoc {
  std::string Tool;     ///< Producing tool ("wcs-sim").
  std::string Program;  ///< Swept program (kernel name or file).
  std::string SizeName; ///< Problem-size label, empty when inapplicable.
  unsigned Threads = 1;
  double TracePassSeconds = 0.0;
  uint64_t TraceAccesses = 0;
  bool PeriodicPass = false;          ///< Warp-aware pass produced the banks.
  double PeriodicPassSeconds = 0.0;   ///< Sum of per-bank pass times.
  uint64_t PeriodicWarps = 0;
  uint64_t PeriodicWarpedAccesses = 0;
  unsigned FilteredGroups = 0;  ///< Distinct L1 streams recorded.
  uint64_t FilteredRecords = 0; ///< Logical records across all streams.
  uint64_t FilteredStoredRecords = 0; ///< Stored after RLE compression.
  double RecordSeconds = 0.0;   ///< Stream recording + bank feeding.
  double ReplaySeconds = 0.0;   ///< Stream-replay job times.
  double SimulatedSeconds = 0.0;///< Full-simulation job times.
  std::vector<std::string> DemotedL1s; ///< Cap-demoted L1 groups.
  size_t SimulatedJobs = 0;
  size_t DedupedPoints = 0;
  std::vector<SweepPoint> Points;
};

/// One-line per-method breakdown of a sweep document -- point counts
/// and attributed seconds per method, periodic-pass provenance -- used
/// verbatim by wcs-sim (on a freshly packaged report) and by
/// wcs-report's single-file rendering, so the live run and the
/// artifact rendering can never drift apart.
std::string methodBreakdownLine(const SweepDoc &D);

json::Value toJson(const SweepPoint &P);
bool fromJson(const json::Value &V, SweepPoint &Out, std::string *Err);
json::Value toJson(const SweepDoc &D);
bool fromJson(const json::Value &V, SweepDoc &Out, std::string *Err);

bool writeSweepFile(const std::string &Path, const SweepDoc &D,
                    std::string *Err);
bool readSweepFile(const std::string &Path, SweepDoc &Out, std::string *Err);

/// Packages a sweep report as a document.
SweepDoc makeSweepDoc(std::string Tool, std::string Program,
                      std::string SizeName, const SweepReport &Report);

} // namespace wcs

#endif // WCS_DRIVER_SWEEP_H
