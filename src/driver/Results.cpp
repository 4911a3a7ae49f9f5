//===- src/driver/Results.cpp - Structured results serialization ----------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "wcs/driver/Results.h"

#include "wcs/support/JsonReader.h"

#include <sstream>

using namespace wcs;
using namespace wcs::jsonfield;
using json::Value;

//===----------------------------------------------------------------------===//
// Counters
//===----------------------------------------------------------------------===//

Value wcs::toJson(const LevelStats &S) {
  Value V = Value::object();
  V.set("accesses", S.Accesses);
  V.set("misses", S.Misses);
  return V;
}

bool wcs::fromJson(const Value &V, LevelStats &Out, std::string *Err) {
  return needUInt(V, "accesses", Out.Accesses, Err) &&
         needUInt(V, "misses", Out.Misses, Err);
}

Value wcs::toJson(const SimStats &S) {
  Value V = Value::object();
  Value Levels = Value::array();
  for (unsigned L = 0; L < S.NumLevels; ++L)
    Levels.push(toJson(S.Level[L]));
  V.set("levels", std::move(Levels));
  V.set("simulated_accesses", S.SimulatedAccesses);
  V.set("warped_accesses", S.WarpedAccesses);
  V.set("warps", S.Warps);
  V.set("failed_warp_checks", S.FailedWarpChecks);
  Value Reasons = Value::object();
  Reasons.set("shift", S.FailedBy.Shift);
  Reasons.set("state", S.FailedBy.State);
  Reasons.set("room", S.FailedBy.Room);
  Reasons.set("unknown", S.FailedBy.Unknown);
  Reasons.set("agree", S.FailedBy.Agree);
  V.set("failed_check_reasons", std::move(Reasons));
  // Only runs whose warp pilot fired carry it.
  if (S.PilotTailAccesses != 0)
    V.set("pilot_tail_accesses", S.PilotTailAccesses);
  V.set("seconds", S.Seconds);
  return V;
}

bool wcs::fromJson(const Value &V, SimStats &Out, std::string *Err) {
  const Value *Levels;
  if (!needArray(V, "levels", Levels, Err))
    return false;
  constexpr size_t MaxLevels = sizeof(Out.Level) / sizeof(Out.Level[0]);
  if (Levels->size() < 1 || Levels->size() > MaxLevels)
    return failMsg(Err, "'levels' must hold 1 or 2 entries");
  Out = SimStats();
  Out.NumLevels = static_cast<unsigned>(Levels->size());
  for (size_t L = 0; L < Levels->size(); ++L)
    if (!fromJson(Levels->at(L), Out.Level[L], Err))
      return false;
  if (!needUInt(V, "simulated_accesses", Out.SimulatedAccesses, Err) ||
      !needUInt(V, "warped_accesses", Out.WarpedAccesses, Err) ||
      !needUInt(V, "warps", Out.Warps, Err) ||
      !needUInt(V, "failed_warp_checks", Out.FailedWarpChecks, Err) ||
      !needDouble(V, "seconds", Out.Seconds, Err))
    return false;
  // Optional: documents written before the reasons existed lack them.
  if (const Value *Reasons = V.find("failed_check_reasons")) {
    WarpCheckFailures &F = Out.FailedBy;
    if (!needUInt(*Reasons, "shift", F.Shift, Err) ||
        !needUInt(*Reasons, "state", F.State, Err) ||
        !needUInt(*Reasons, "room", F.Room, Err) ||
        !needUInt(*Reasons, "unknown", F.Unknown, Err) ||
        !needUInt(*Reasons, "agree", F.Agree, Err))
      return false;
  }
  // Optional: absent when the pilot never fired, and from older
  // documents.
  return optUInt(V, "pilot_tail_accesses", Out.PilotTailAccesses, Err);
}

//===----------------------------------------------------------------------===//
// Configurations
//===----------------------------------------------------------------------===//

Value wcs::toJson(const CacheConfig &C) {
  Value V = Value::object();
  V.set("size_bytes", C.SizeBytes);
  V.set("assoc", C.Assoc);
  V.set("block_bytes", C.BlockBytes);
  V.set("policy", policyName(C.Policy));
  V.set("write_allocate", C.WriteAlloc == WriteAllocate::Yes);
  return V;
}

bool wcs::fromJson(const Value &V, CacheConfig &Out, std::string *Err) {
  std::string Policy;
  bool WriteAlloc;
  if (!needUInt(V, "size_bytes", Out.SizeBytes, Err) ||
      !needU32(V, "assoc", Out.Assoc, Err) ||
      !needU32(V, "block_bytes", Out.BlockBytes, Err) ||
      !needString(V, "policy", Policy, Err) ||
      !needBool(V, "write_allocate", WriteAlloc, Err))
    return false;
  if (!parsePolicyName(Policy, Out.Policy))
    return failMsg(Err, "unknown replacement policy '" + Policy + "'");
  Out.WriteAlloc = WriteAlloc ? WriteAllocate::Yes : WriteAllocate::No;
  return true;
}

Value wcs::toJson(const HierarchyConfig &H) {
  Value V = Value::object();
  Value Levels = Value::array();
  for (const CacheConfig &C : H.Levels)
    Levels.push(toJson(C));
  V.set("levels", std::move(Levels));
  V.set("inclusion", inclusionName(H.Inclusion));
  return V;
}

bool wcs::fromJson(const Value &V, HierarchyConfig &Out, std::string *Err) {
  const Value *Levels;
  std::string Inclusion;
  if (!needArray(V, "levels", Levels, Err) ||
      !needString(V, "inclusion", Inclusion, Err))
    return false;
  Out.Levels.clear();
  for (size_t L = 0; L < Levels->size(); ++L) {
    CacheConfig C;
    if (!fromJson(Levels->at(L), C, Err))
      return false;
    Out.Levels.push_back(C);
  }
  if (!parseInclusionName(Inclusion, Out.Inclusion))
    return failMsg(Err, "unknown inclusion policy '" + Inclusion + "'");
  return true;
}

Value wcs::toJson(const SimOptions &O) {
  Value V = Value::object();
  V.set("include_scalars", O.IncludeScalars);
  return V;
}

bool wcs::fromJson(const Value &V, SimOptions &Out, std::string *Err) {
  return needBool(V, "include_scalars", Out.IncludeScalars, Err);
}

//===----------------------------------------------------------------------===//
// The results file
//===----------------------------------------------------------------------===//

Value wcs::toJson(const ResultEntry &E) {
  Value V = Value::object();
  V.set("tag", E.Tag);
  V.set("backend", backendName(E.Backend));
  V.set("cache", toJson(E.Cache));
  V.set("options", toJson(E.Options));
  V.set("ok", E.Ok);
  V.set("error", E.Error);
  V.set("stats", toJson(E.Stats));
  // Only multi-sample producers carry the array; a single-sample entry
  // serializes exactly as it did before --reps existed.
  if (!E.Samples.empty()) {
    Value S = Value::array();
    for (double Sample : E.Samples)
      S.push(Value(Sample));
    V.set("samples", std::move(S));
  }
  return V;
}

bool wcs::fromJson(const Value &V, ResultEntry &Out, std::string *Err) {
  std::string Backend;
  const Value *Cache, *Options, *Stats;
  if (!needString(V, "tag", Out.Tag, Err) ||
      !needString(V, "backend", Backend, Err) ||
      !needMember(V, "cache", Cache, Err) ||
      !fromJson(*Cache, Out.Cache, Err) ||
      !needMember(V, "options", Options, Err) ||
      !fromJson(*Options, Out.Options, Err) ||
      !needBool(V, "ok", Out.Ok, Err) ||
      !needString(V, "error", Out.Error, Err) ||
      !needMember(V, "stats", Stats, Err) ||
      !fromJson(*Stats, Out.Stats, Err))
    return false;
  if (!parseBackendName(Backend, Out.Backend))
    return failMsg(Err, "unknown backend '" + Backend + "'");
  Out.Samples.clear();
  if (const Value *Samples = V.find("samples")) {
    if (!Samples->isArray())
      return failMsg(Err, "member 'samples' must be an array");
    for (size_t N = 0; N < Samples->size(); ++N) {
      if (!Samples->at(N).isNumber())
        return failMsg(Err, "member 'samples' must hold numbers");
      Out.Samples.push_back(Samples->at(N).asDouble());
    }
  }
  return true;
}

const ResultEntry *ResultsDoc::find(const std::string &Tag) const {
  for (const ResultEntry &E : Entries)
    if (E.Tag == Tag)
      return &E;
  return nullptr;
}

Value wcs::toJson(const ResultsDoc &D) {
  Value V = Value::object();
  V.set("schema", ResultsSchemaName);
  V.set("schema_version", ResultsSchemaVersion);
  V.set("tool", D.Tool);
  V.set("size", D.SizeName);
  V.set("threads", D.Threads);
  Value Entries = Value::array();
  for (const ResultEntry &E : D.Entries)
    Entries.push(toJson(E));
  V.set("entries", std::move(Entries));
  return V;
}

bool wcs::fromJson(const Value &V, ResultsDoc &Out, std::string *Err) {
  if (!needSchema(V, ResultsSchemaName, ResultsSchemaVersion, Err))
    return false;
  const Value *Entries;
  if (!needString(V, "tool", Out.Tool, Err) ||
      !needString(V, "size", Out.SizeName, Err) ||
      !needU32(V, "threads", Out.Threads, Err) ||
      !needArray(V, "entries", Entries, Err))
    return false;
  Out.Entries.clear();
  Out.Entries.reserve(Entries->size());
  for (size_t N = 0; N < Entries->size(); ++N) {
    ResultEntry E;
    if (!fromJson(Entries->at(N), E, Err)) {
      if (Err) {
        std::ostringstream OS;
        OS << "entry " << N << ": " << *Err;
        *Err = OS.str();
      }
      return false;
    }
    Out.Entries.push_back(std::move(E));
  }
  return true;
}

bool wcs::writeResultsFile(const std::string &Path, const ResultsDoc &D,
                           std::string *Err) {
  return json::writeFile(Path, toJson(D), Err);
}

bool wcs::readResultsFile(const std::string &Path, ResultsDoc &Out,
                          std::string *Err) {
  Value V;
  if (!json::readFile(Path, V, Err))
    return false;
  std::string ParseErr;
  if (!fromJson(V, Out, &ParseErr)) {
    if (Err)
      *Err = Path + ": " + ParseErr;
    return false;
  }
  return true;
}

std::vector<ResultEntry>
wcs::makeResultEntries(const std::vector<BatchJob> &Jobs,
                       const BatchReport &Report) {
  std::vector<ResultEntry> Entries;
  size_t N = std::min(Jobs.size(), Report.Results.size());
  Entries.reserve(N);
  for (size_t J = 0; J < N; ++J) {
    ResultEntry E;
    E.Tag = Report.Results[J].Tag;
    E.Backend = Jobs[J].Backend;
    E.Cache = Jobs[J].Cache;
    E.Options = Jobs[J].Options;
    E.Ok = Report.Results[J].Ok;
    E.Error = Report.Results[J].Error;
    E.Stats = Report.Results[J].Stats;
    Entries.push_back(std::move(E));
  }
  return Entries;
}
