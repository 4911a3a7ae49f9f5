//===- wcs/driver/Results.h - Structured results serialization -*- C++ -*-===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The machine-readable face of the simulator: JSON serialization of the
/// simulation counters (SimStats), configurations (CacheConfig,
/// HierarchyConfig, SimOptions) and batch outcomes (BatchResult), plus
/// the schema-versioned results-file container that wcs-sim --json and
/// wcs-bench write and wcs-report diffs. Every toJson emits keys in a
/// fixed order, so a given run always serializes to byte-identical
/// text; every fromJson validates kinds and rejects unknown enum
/// spellings so a results file survives a round trip exactly or fails
/// loudly.
///
/// SimOptions serializes as {include_scalars}, the one option that
/// changes a counter. The warping search bounds (WarpConfig) and the
/// batching switch only change how a point is computed, so they stay
/// in-process; readers skip the "warp" object older files carry.
///
//===----------------------------------------------------------------------===//

#ifndef WCS_DRIVER_RESULTS_H
#define WCS_DRIVER_RESULTS_H

#include "wcs/cache/CacheConfig.h"
#include "wcs/driver/BatchRunner.h"
#include "wcs/sim/SimConfig.h"
#include "wcs/sim/SimStats.h"
#include "wcs/support/Json.h"

#include <string>
#include <vector>

namespace wcs {

/// Results-file format identifier and version. The version bumps on any
/// change a reader could misinterpret silently; readers reject files
/// whose schema name or version does not match exactly.
inline constexpr const char ResultsSchemaName[] = "wcs-results";
inline constexpr int64_t ResultsSchemaVersion = 1;

json::Value toJson(const LevelStats &S);
json::Value toJson(const SimStats &S);
json::Value toJson(const CacheConfig &C);
json::Value toJson(const HierarchyConfig &H);
json::Value toJson(const SimOptions &O);
json::Value toJson(const BatchResult &R);

/// Each fromJson parses the corresponding toJson output. On malformed
/// input it returns false and, when \p Err is non-null, stores a
/// diagnostic; \p Out is unspecified then.
bool fromJson(const json::Value &V, LevelStats &Out, std::string *Err);
bool fromJson(const json::Value &V, SimStats &Out, std::string *Err);
bool fromJson(const json::Value &V, CacheConfig &Out, std::string *Err);
bool fromJson(const json::Value &V, HierarchyConfig &Out, std::string *Err);
bool fromJson(const json::Value &V, SimOptions &Out, std::string *Err);
bool fromJson(const json::Value &V, BatchResult &Out, std::string *Err);

/// One simulation outcome in a results file: a batch result plus the
/// context (backend, cache hierarchy, simulation options) needed to
/// interpret and diff it.
/// Tag is the diff key — wcs-report matches entries of two files by Tag,
/// so producers must make it unique within a file (e.g.
/// "fig06/gemm/PLRU/warping").
struct ResultEntry {
  std::string Tag;
  SimBackend Backend = SimBackend::Warping;
  HierarchyConfig Cache;
  SimOptions Options;
  bool Ok = false;
  std::string Error;
  SimStats Stats;
  /// Per-repetition wall-time samples in seconds (wcs-bench --reps N).
  /// When present, Stats.Seconds is their mean; single-sample producers
  /// leave this empty and readers fall back to {Stats.Seconds}.
  /// Serialized as "samples", optional on read so pre-reps baseline
  /// files still parse.
  std::vector<double> Samples;
};

/// A whole results file: producer metadata plus entries.
struct ResultsDoc {
  std::string Tool;     ///< Producing tool ("wcs-sim", "wcs-bench").
  std::string SizeName; ///< Problem-size label, empty when inapplicable.
  unsigned Threads = 1; ///< Worker threads the batch ran on.
  std::vector<ResultEntry> Entries;

  /// The entry tagged \p Tag, or nullptr.
  const ResultEntry *find(const std::string &Tag) const;
};

json::Value toJson(const ResultEntry &E);
bool fromJson(const json::Value &V, ResultEntry &Out, std::string *Err);

/// The document serializer stamps schema name + version; the parser
/// rejects a missing or mismatching stamp (including files from a future
/// schema version).
json::Value toJson(const ResultsDoc &D);
bool fromJson(const json::Value &V, ResultsDoc &Out, std::string *Err);

bool writeResultsFile(const std::string &Path, const ResultsDoc &D,
                      std::string *Err);
bool readResultsFile(const std::string &Path, ResultsDoc &Out,
                     std::string *Err);

/// Zips a batch work list with its report into result entries (jobs and
/// results are index-aligned by BatchRunner). Entries inherit the job
/// Tag, backend and cache config verbatim.
std::vector<ResultEntry> makeResultEntries(const std::vector<BatchJob> &Jobs,
                                           const BatchReport &Report);

} // namespace wcs

#endif // WCS_DRIVER_RESULTS_H
