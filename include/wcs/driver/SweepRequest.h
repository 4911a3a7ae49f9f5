//===- wcs/driver/SweepRequest.h - The sweep request/response API -*- C++ -*-=//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one request type behind every sweep, CLI or served: a
/// JSON-round-trippable "wcs-request" v1 document naming a program (a
/// PolyBench kernel reference or inline wcs-dialect source), a one- or
/// two-level grid, and the SweepOptions to run it under. `wcs-sim
/// --sweep` constructs a SweepRequest from its flags and executes it;
/// `wcs-serve` accepts the same document over a socket -- so one request
/// document reproduces any sweep bit-identically in either mode, and
/// CLI flags are a thin adapter rather than a second parser.
///
/// The companion "wcs-response" v1 document wraps the familiar
/// wcs-sweep payload with serving provenance: the request's content
/// hash and the store hit/miss split. Canonicalization for the
/// wcs-serve result store also lives here: sweepPointKey() renders the
/// (program, options, hierarchy config) identity of one grid point --
/// deliberately excluding the grid, so overlapping grids from
/// different clients share points -- and requestHash() fingerprints a
/// whole request for response provenance.
///
//===----------------------------------------------------------------------===//

#ifndef WCS_DRIVER_SWEEPREQUEST_H
#define WCS_DRIVER_SWEEPREQUEST_H

#include "wcs/driver/Sweep.h"
#include "wcs/polybench/Polybench.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace wcs {

/// Request-file format identifier and version; same regime as the
/// wcs-results schema (readers reject any mismatch).
inline constexpr const char RequestSchemaName[] = "wcs-request";
inline constexpr int64_t RequestSchemaVersion = 1;
inline constexpr const char ResponseSchemaName[] = "wcs-response";
inline constexpr int64_t ResponseSchemaVersion = 1;

/// One sweep, fully specified: program x grid x options. Every field
/// that affects a single counter is in here and serialized; fields
/// that only affect execution (worker threads) are per-run knobs on
/// SweepOptions and deliberately NOT part of the document, so the same
/// request hashes identically no matter where it runs.
struct SweepRequest {
  /// Program, variant A: a registry reference -- PolyBench kernel name
  /// plus problem size. Used when Kernel is non-empty.
  std::string Kernel;
  ProblemSize Size = ProblemSize::Mini;

  /// Program, variant B: inline wcs-dialect source with an explicit
  /// parameter binding (std::map, so serialization order -- and thus
  /// the content hash -- is independent of insertion order). Used when
  /// Kernel is empty.
  std::string Source;
  std::string SourceName; ///< Label for documents ("query.wcs").
  std::map<std::string, int64_t> Params;

  SweepLevelGrid L1;
  bool HasL2 = false;
  SweepLevelGrid L2;
  InclusionPolicy Inclusion = InclusionPolicy::NonInclusiveNonExclusive;

  /// How to simulate (SimOptions, backend, warp-sweep knobs). Threads
  /// is ignored by the serializers, see above.
  SweepOptions Options;

  /// Serving deadline in seconds (0 = none). Enforced by the wcs-serve
  /// scheduler from request admission: on expiry the daemon answers
  /// with the points computed so far and honest "deadline exceeded"
  /// errors for the rest. Serialized as "deadline_seconds" only when
  /// set, so deadline-free requests hash as they always did; and it is
  /// deliberately NOT part of sweepPointKey() -- a deadline changes how
  /// long the daemon tries, never what a point means, so deadlined and
  /// undeadlined requests share stored points. The in-process
  /// runSweepRequest path ignores it.
  double DeadlineSeconds = 0.0;

  /// Label for the SweepDoc Program / SizeName fields: the kernel name
  /// (variant A) or SourceName (variant B); the size name, or "" for
  /// inline source.
  std::string programLabel() const;
  std::string sizeLabel() const;
};

/// The most grid points one request may expand to. The largest grid any
/// benchmark workload sends has 21 points; without a cap, a 30 KB
/// request listing one capacity 1,000 times per level expands to a
/// million points and can exhaust a daemon's memory.
constexpr uint64_t MaxSweepPoints = 65536;

/// Fast structural check with a diagnostic: exactly one program
/// variant, a non-empty L1 grid, at most MaxSweepPoints grid points
/// (counted without expanding anything). Serialization and preparation
/// both run it; tools can call it early for better error placement.
bool validateSweepRequest(const SweepRequest &Req, std::string *Err);

json::Value toJson(const SweepRequest &R);
bool fromJson(const json::Value &V, SweepRequest &Out, std::string *Err);

bool writeRequestFile(const std::string &Path, const SweepRequest &R,
                      std::string *Err);
bool readRequestFile(const std::string &Path, SweepRequest &Out,
                     std::string *Err);

/// A request made runnable: the parsed/built program plus the expanded
/// hierarchy-config list (input grid order).
struct PreparedSweep {
  ScopProgram Program;
  std::vector<HierarchyConfig> Configs;
};

/// Builds the program and expands the grid. Returns false with a
/// diagnostic on unknown kernels, frontend parse errors or invalid
/// grid points.
bool prepareSweep(const SweepRequest &Req, PreparedSweep &Out,
                  std::string *Err);

/// Prepares and runs \p Req in one call (the wcs-sim --sweep path).
/// \p Threads overrides Req.Options.Threads for this run only.
bool runSweepRequest(const SweepRequest &Req, unsigned Threads,
                     PreparedSweep &Prep, SweepReport &Report,
                     std::string *Err);

/// The canonical content identity of one grid point of \p Req: a
/// compact JSON dump of {program, options, cache}. Grid and request
/// identity are deliberately absent, so any two requests that evaluate
/// the same program under the same options at the same hierarchy
/// config produce the same key -- that is what lets overlapping grids
/// share stored points. Keys are byte-deterministic (std::map params,
/// fixed-order toJson).
std::string sweepPointKey(const SweepRequest &Req,
                          const HierarchyConfig &H);

/// 16-hex-digit fingerprint of the whole canonicalized request
/// document; wcs-response provenance.
std::string requestHash(const SweepRequest &Req);

//===----------------------------------------------------------------------===//
// The wcs-response document
//===----------------------------------------------------------------------===//

/// What wcs-serve sends back for one request: the standard wcs-sweep
/// payload (every point carries method provenance; store-served points
/// have method "store") plus the serving figures.
struct SweepResponse {
  bool Ok = false;
  std::string Error;       ///< Set when Ok is false; Sweep is empty then.
  std::string RequestHash; ///< requestHash() of the request served.
  uint64_t StoreHits = 0;   ///< Points answered from the store.
  uint64_t StoreMisses = 0; ///< Points freshly simulated (then stored).
  /// Points answered by subscribing to another in-flight request that
  /// was already computing the same key (the concurrent-scheduler
  /// extension of store sharing to the live pipeline). The three
  /// counters partition the grid: hits + inflight_hits + misses ==
  /// points. Serialized as "inflight_hits", optional on read so
  /// pre-scheduler responses still parse.
  uint64_t InFlightHits = 0;
  uint64_t StoreEntries = 0; ///< Store size after serving this request.
  /// With Error="overloaded" (admission-cap shedding): how long the
  /// daemon suggests waiting before resubmitting, from its current
  /// queue depth and measured per-point compute time. Serialized as
  /// "retry_after_seconds" only when > 0; optional on read.
  double RetryAfterSeconds = 0.0;
  SweepDoc Sweep;
};

json::Value toJson(const SweepResponse &R);
bool fromJson(const json::Value &V, SweepResponse &Out, std::string *Err);

} // namespace wcs

#endif // WCS_DRIVER_SWEEPREQUEST_H
