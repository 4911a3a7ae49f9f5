//===- src/driver/SweepRequest.cpp - The sweep request/response API -------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "wcs/driver/SweepRequest.h"

#include "wcs/driver/Results.h"
#include "wcs/frontend/Frontend.h"
#include "wcs/support/Hashing.h"
#include "wcs/support/JsonReader.h"

using namespace wcs;
using namespace wcs::jsonfield;
using json::Value;

std::string SweepRequest::programLabel() const {
  if (!Kernel.empty())
    return Kernel;
  return SourceName.empty() ? "scop" : SourceName;
}

std::string SweepRequest::sizeLabel() const {
  return Kernel.empty() ? "" : problemSizeName(Size);
}

bool wcs::validateSweepRequest(const SweepRequest &Req, std::string *Err) {
  if (Req.Kernel.empty() && Req.Source.empty())
    return failMsg(Err, "request names no program (kernel or source)");
  if (!Req.Kernel.empty() && !Req.Source.empty())
    return failMsg(Err, "request names both a kernel and inline source");
  if (Req.L1.SizesBytes.empty())
    return failMsg(Err, "request has an empty L1 grid");
  // The cross product's size, saturating, before anything is expanded.
  uint64_t Points = 1;
  auto Times = [&Points](const SweepLevelGrid &G) {
    for (uint64_t N : {G.SizesBytes.size(), G.Assocs.size(),
                       G.Policies.size()})
      if (__builtin_mul_overflow(Points, N, &Points))
        Points = UINT64_MAX;
  };
  Times(Req.L1);
  if (Req.HasL2)
    Times(Req.L2);
  if (Points > MaxSweepPoints) {
    std::string Count = (Points == UINT64_MAX ? "at least " : "") +
                        std::to_string(Points);
    return failMsg(Err, "grid expands to " + Count +
                            " points, over the cap of " +
                            std::to_string(MaxSweepPoints) +
                            " points per request");
  }
  if (!Req.HasL2 && Req.Inclusion !=
                        InclusionPolicy::NonInclusiveNonExclusive)
    return failMsg(Err, "inclusion policy requires an L2 grid");
  return true;
}

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

namespace {

Value gridToJson(const SweepLevelGrid &G) {
  Value V = Value::object();
  Value Sizes = Value::array();
  for (uint64_t S : G.SizesBytes)
    Sizes.push(Value(S));
  V.set("sizes_bytes", std::move(Sizes));
  Value Assocs = Value::array();
  for (unsigned A : G.Assocs)
    Assocs.push(Value(static_cast<uint64_t>(A)));
  V.set("assocs", std::move(Assocs));
  Value Policies = Value::array();
  for (PolicyKind P : G.Policies)
    Policies.push(Value(policyName(P)));
  V.set("policies", std::move(Policies));
  V.set("block_bytes", static_cast<uint64_t>(G.BlockBytes));
  return V;
}

bool gridFromJson(const Value &V, SweepLevelGrid &Out, std::string *Err) {
  SweepLevelGrid G;
  G.Assocs.clear();
  G.Policies.clear();
  const Value *Sizes, *Assocs, *Policies;
  if (!needArray(V, "sizes_bytes", Sizes, Err) ||
      !needArray(V, "assocs", Assocs, Err) ||
      !needArray(V, "policies", Policies, Err) ||
      !needU32(V, "block_bytes", G.BlockBytes, Err))
    return false;
  for (const Value &S : Sizes->items()) {
    if (S.kind() != Value::Kind::Int || S.asInt() < 0)
      return failMsg(Err, "sizes_bytes entries must be non-negative "
                          "integers");
    G.SizesBytes.push_back(S.asUInt());
  }
  for (const Value &A : Assocs->items()) {
    // 0 is the fully-associative sentinel, valid in documents.
    if (A.kind() != Value::Kind::Int || A.asInt() < 0 ||
        A.asInt() > 4096)
      return failMsg(Err, "assocs entries must be integers in [0, 4096]");
    G.Assocs.push_back(static_cast<unsigned>(A.asUInt()));
  }
  for (const Value &P : Policies->items()) {
    PolicyKind K;
    if (!P.isString() || !parsePolicyName(P.asString(), K))
      return failMsg(Err, "unknown policy in grid");
    G.Policies.push_back(K);
  }
  if (G.SizesBytes.empty())
    return failMsg(Err, "grid names no capacity");
  if (G.Assocs.empty() || G.Policies.empty())
    return failMsg(Err, "grid has empty assocs or policies");
  Out = std::move(G);
  return true;
}

Value programToJson(const SweepRequest &R) {
  Value P = Value::object();
  if (!R.Kernel.empty()) {
    P.set("kernel", R.Kernel);
    P.set("size", problemSizeName(R.Size));
    return P;
  }
  P.set("name", R.programLabel());
  P.set("source", R.Source);
  Value Params = Value::object();
  for (const auto &[Name, Val] : R.Params) // std::map: sorted, canonical.
    Params.set(Name, Val);
  P.set("params", std::move(Params));
  return P;
}

/// Only what changes a point's counters: the per-run knobs of
/// SweepOptions (threads, stream cap, pass-flavor threshold) and the
/// engine's search bounds are never written, and the members older
/// documents carry for them are skipped on read.
Value optionsToJson(const SweepOptions &O) {
  Value V = Value::object();
  V.set("sim", toJson(O.Sim));
  V.set("backend", backendName(O.Backend));
  return V;
}

bool optionsFromJson(const Value &V, SweepOptions &Out, std::string *Err) {
  const Value *Sim;
  std::string Backend;
  if (!needMember(V, "sim", Sim, Err) || !fromJson(*Sim, Out.Sim, Err) ||
      !needString(V, "backend", Backend, Err))
    return false;
  if (!parseBackendName(Backend, Out.Backend))
    return failMsg(Err, "unknown backend '" + Backend + "'");
  return true;
}

} // namespace

Value wcs::toJson(const SweepRequest &R) {
  Value V = Value::object();
  V.set("schema", RequestSchemaName);
  V.set("schema_version", RequestSchemaVersion);
  V.set("program", programToJson(R));
  Value Grid = Value::object();
  Grid.set("l1", gridToJson(R.L1));
  if (R.HasL2)
    Grid.set("l2", gridToJson(R.L2));
  Grid.set("inclusion", inclusionName(R.Inclusion));
  V.set("grid", std::move(Grid));
  V.set("options", optionsToJson(R.Options));
  // Only when set: deadline-free requests must keep their historical
  // bytes (and hash). The deadline lives at the top level, NOT in
  // "options", because sweepPointKey() canonicalizes options -- a
  // deadline bounds serving time without changing what a point means,
  // so it must not split the store keyspace.
  if (R.DeadlineSeconds > 0)
    V.set("deadline_seconds", R.DeadlineSeconds);
  return V;
}

bool wcs::fromJson(const Value &V, SweepRequest &Out, std::string *Err) {
  if (!needSchema(V, RequestSchemaName, RequestSchemaVersion, Err))
    return false;
  SweepRequest R;
  const Value *Prog, *Grid, *Opts;
  if (!needObject(V, "program", Prog, Err) ||
      !needObject(V, "grid", Grid, Err) ||
      !needObject(V, "options", Opts, Err))
    return false;
  if (Prog->find("kernel")) {
    std::string SizeName;
    if (!needString(*Prog, "kernel", R.Kernel, Err) ||
        !needString(*Prog, "size", SizeName, Err))
      return false;
    if (!parseProblemSize(SizeName, R.Size))
      return failMsg(Err, "unknown problem size '" + SizeName + "'");
  } else {
    const Value *Params;
    if (!needString(*Prog, "name", R.SourceName, Err) ||
        !needString(*Prog, "source", R.Source, Err) ||
        !needObject(*Prog, "params", Params, Err))
      return false;
    for (const json::Member &M : Params->members()) {
      if (M.Val.kind() != Value::Kind::Int)
        return failMsg(Err, "param '" + M.Key + "' must be an integer");
      R.Params[M.Key] = M.Val.asInt();
    }
  }
  std::string Inclusion;
  const Value *L1;
  if (!needObject(*Grid, "l1", L1, Err) ||
      !gridFromJson(*L1, R.L1, Err) ||
      !needString(*Grid, "inclusion", Inclusion, Err))
    return false;
  if (!parseInclusionName(Inclusion, R.Inclusion))
    return failMsg(Err, "unknown inclusion policy '" + Inclusion + "'");
  if (const Value *L2 = Grid->find("l2")) {
    R.HasL2 = true;
    if (!gridFromJson(*L2, R.L2, Err))
      return false;
  }
  if (!optionsFromJson(*Opts, R.Options, Err))
    return false;
  // Joined the v1 schema with wcs-serve hardening: optional on read
  // (0 = no deadline, what deadline-free documents say by omission).
  if (!optDouble(V, "deadline_seconds", R.DeadlineSeconds, Err))
    return false;
  if (R.DeadlineSeconds < 0)
    return failMsg(Err, "deadline_seconds must be non-negative");
  if (!validateSweepRequest(R, Err))
    return false;
  Out = std::move(R);
  return true;
}

bool wcs::writeRequestFile(const std::string &Path, const SweepRequest &R,
                           std::string *Err) {
  return json::writeFile(Path, toJson(R), Err);
}

bool wcs::readRequestFile(const std::string &Path, SweepRequest &Out,
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

//===----------------------------------------------------------------------===//
// Execution
//===----------------------------------------------------------------------===//

bool wcs::prepareSweep(const SweepRequest &Req, PreparedSweep &Out,
                       std::string *Err) {
  if (!validateSweepRequest(Req, Err))
    return false;
  if (!Req.Kernel.empty()) {
    std::string BuildErr;
    Out.Program = buildKernel(Req.Kernel, Req.Size, &BuildErr);
    if (!BuildErr.empty())
      return failMsg(Err, BuildErr);
  } else {
    ParseResult PR = parseScop(Req.Source, Req.Params, Req.programLabel());
    if (!PR.ok())
      return failMsg(Err, Req.programLabel() + ": " + PR.message());
    Out.Program = std::move(PR.Program);
  }
  Out.Configs.clear();
  return expandSweepGrid(Req.L1, Req.HasL2 ? &Req.L2 : nullptr,
                         Req.Inclusion, Out.Configs, Err);
}

bool wcs::runSweepRequest(const SweepRequest &Req, unsigned Threads,
                          PreparedSweep &Prep, SweepReport &Report,
                          std::string *Err) {
  if (!prepareSweep(Req, Prep, Err))
    return false;
  SweepOptions SO = Req.Options;
  SO.Threads = Threads;
  Report = runSweep(Prep.Program, Prep.Configs, SO);
  return true;
}

//===----------------------------------------------------------------------===//
// Content addressing
//===----------------------------------------------------------------------===//

std::string wcs::sweepPointKey(const SweepRequest &Req,
                               const HierarchyConfig &H) {
  Value V = Value::object();
  V.set("program", programToJson(Req));
  V.set("options", optionsToJson(Req.Options));
  V.set("cache", toJson(H));
  return V.dump(false);
}

std::string wcs::requestHash(const SweepRequest &Req) {
  return hashHex(hashString(toJson(Req).dump(false)));
}

//===----------------------------------------------------------------------===//
// The wcs-response document
//===----------------------------------------------------------------------===//

Value wcs::toJson(const SweepResponse &R) {
  Value V = Value::object();
  V.set("schema", ResponseSchemaName);
  V.set("schema_version", ResponseSchemaVersion);
  V.set("ok", R.Ok);
  V.set("error", R.Error);
  V.set("request_hash", R.RequestHash);
  V.set("store_hits", R.StoreHits);
  V.set("store_misses", R.StoreMisses);
  V.set("inflight_hits", R.InFlightHits);
  V.set("store_entries", R.StoreEntries);
  if (R.RetryAfterSeconds > 0)
    V.set("retry_after_seconds", R.RetryAfterSeconds);
  if (R.Ok)
    V.set("sweep", toJson(R.Sweep));
  return V;
}

bool wcs::fromJson(const Value &V, SweepResponse &Out, std::string *Err) {
  if (!needSchema(V, ResponseSchemaName, ResponseSchemaVersion, Err))
    return false;
  SweepResponse R;
  if (!needBool(V, "ok", R.Ok, Err) ||
      !needString(V, "error", R.Error, Err) ||
      !needString(V, "request_hash", R.RequestHash, Err) ||
      !needUInt(V, "store_hits", R.StoreHits, Err) ||
      !needUInt(V, "store_misses", R.StoreMisses, Err) ||
      // Joined the v1 schema with the concurrent scheduler: optional
      // on read (0, which is what serial servers genuinely produce),
      // always written.
      !optUInt(V, "inflight_hits", R.InFlightHits, Err) ||
      !needUInt(V, "store_entries", R.StoreEntries, Err) ||
      // "retry_after_seconds" rides on overload-shed responses only;
      // optional on read like every field that joined v1 late.
      !optDouble(V, "retry_after_seconds", R.RetryAfterSeconds, Err))
    return false;
  if (R.Ok) {
    const Value *Sweep;
    if (!needObject(V, "sweep", Sweep, Err) ||
        !fromJson(*Sweep, R.Sweep, Err))
      return false;
  }
  Out = std::move(R);
  return true;
}
