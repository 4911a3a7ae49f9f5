//===- perfbench/Bench.cpp - Shared pieces of the wcs benchmark -----------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>

using namespace wcs;
using namespace wcs::perfbench;

namespace {
constexpr const char GoldenSchemaName[] = "wcs-perfbench-golden";
constexpr int64_t GoldenSchemaVersion = 1;
constexpr size_t MaxReasons = 20;
} // namespace

double Samples::sum() const {
  double S = 0.0;
  for (double V : Values)
    S += V;
  return S;
}

double Samples::quantile(double Q) const {
  if (Values.empty())
    return 0.0;
  std::vector<double> Sorted = Values;
  std::sort(Sorted.begin(), Sorted.end());
  double Pos = Q * static_cast<double>(Sorted.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, Sorted.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return Sorted[Lo] + (Sorted[Hi] - Sorted[Lo]) * Frac;
}

json::Value Samples::json() const {
  json::Value A = json::Value::array();
  for (double V : Values)
    A.push(V);
  return A;
}

Counters wcs::perfbench::countersOf(const SimStats &S) {
  Counters C = {S.Level[0].Accesses, S.Level[0].Misses, 0, 0};
  if (S.NumLevels > 1) {
    C[2] = S.Level[1].Accesses;
    C[3] = S.Level[1].Misses;
  }
  return C;
}

std::string wcs::perfbench::countersStr(const Counters &C) {
  return "L1 " + std::to_string(C[0]) + "/" + std::to_string(C[1]) +
         " L2 " + std::to_string(C[2]) + "/" + std::to_string(C[3]);
}

bool Golden::load(const std::string &Path, const std::string &Workload,
                  std::string *Err) {
  json::Value V;
  if (!json::readFile(Path, V, Err))
    return false;
  if (V["schema"].asString() != GoldenSchemaName ||
      V["schema_version"].asInt() != GoldenSchemaVersion ||
      V["workload"].asString() != Workload || !V["counters"].isObject()) {
    if (Err)
      *Err = Path + ": not a " + GoldenSchemaName + " v1 document for " +
             Workload;
    return false;
  }
  Table.clear();
  for (const json::Member &M : V["counters"].members()) {
    if (!M.Val.isArray() || M.Val.size() != 4) {
      if (Err)
        *Err = Path + ": malformed counters for '" + M.Key + "'";
      return false;
    }
    Counters C;
    for (size_t I = 0; I < 4; ++I)
      C[I] = M.Val.at(I).asUInt();
    Table[M.Key] = C;
  }
  return true;
}

bool Golden::save(const std::string &Path, const std::string &Workload,
                  std::string *Err) const {
  json::Value V = json::Value::object();
  V.set("schema", GoldenSchemaName);
  V.set("schema_version", GoldenSchemaVersion);
  V.set("workload", Workload);
  V.set("layout", "[L1 accesses, L1 misses, L2 accesses, L2 misses]");
  json::Value Cs = json::Value::object();
  for (const auto &[Key, C] : Table) {
    json::Value A = json::Value::array();
    for (uint64_t X : C)
      A.push(X);
    Cs.set(Key, std::move(A));
  }
  V.set("counters", std::move(Cs));
  return json::writeFile(Path, V, Err);
}

const Counters *Golden::find(const std::string &Key) const {
  auto It = Table.find(Key);
  return It == Table.end() ? nullptr : &It->second;
}

void Ledger::fail(std::string Why) {
  ++Attempted;
  ++Failed;
  if (Reasons.size() < MaxReasons)
    Reasons.push_back(std::move(Why));
}

bool Ledger::check(const Golden &G, const std::string &Key,
                   const Counters &Got) {
  const Counters *Want = G.find(Key);
  if (!Want) {
    fail(Key + ": no golden counters");
    return false;
  }
  if (*Want != Got) {
    fail(Key + ": counters " + countersStr(Got) + " != golden " +
         countersStr(*Want));
    return false;
  }
  pass();
  return true;
}

std::string wcs::perfbench::goldenPath(const RunContext &Ctx,
                                       const std::string &Workload) {
  return Ctx.GoldenDir + "/" + Workload + ".json";
}

bool wcs::perfbench::makeSweepRequest(const std::string &Kernel,
                                      ProblemSize Size, const GridSpec &G,
                                      SweepRequest &Out, std::string *Err) {
  Out = SweepRequest();
  Out.Kernel = Kernel;
  Out.Size = Size;
  if (!parseSweepLevelGrid(G.L1, Out.L1, Err))
    return false;
  Out.HasL2 = G.L2 != nullptr;
  return !G.L2 || parseSweepLevelGrid(G.L2, Out.L2, Err);
}

std::string wcs::perfbench::pointKey(const std::string &Prefix,
                                     const HierarchyConfig &H) {
  return Prefix + "/" + H.str();
}

bool wcs::perfbench::recordSweepGolden(const SweepRequest &Req,
                                       const std::string &Prefix,
                                       Golden &Out, std::string *Err) {
  PreparedSweep Prep;
  SweepReport Rep;
  if (!runSweepRequest(Req, 2, Prep, Rep, Err))
    return false;
  std::vector<BatchJob> Jobs;
  for (const HierarchyConfig &H : Prep.Configs) {
    BatchJob J;
    J.Program = &Prep.Program;
    J.Cache = H;
    J.Backend = SimBackend::Concrete;
    Jobs.push_back(std::move(J));
  }
  BatchReport Ref = BatchRunner(2).run(Jobs);
  for (size_t I = 0; I < Prep.Configs.size(); ++I) {
    std::string Key = pointKey(Prefix, Prep.Configs[I]);
    const SweepPoint &P = Rep.Points[I];
    Counters Got = countersOf(P.Stats);
    Counters Want = countersOf(Ref.Results[I].Stats);
    if (!P.Ok || !Ref.Results[I].Ok || Got != Want) {
      if (Err)
        *Err = Key + ": sweep " + countersStr(Got) + " != concrete " +
               countersStr(Want);
      return false;
    }
    Out.record(Key, Want);
  }
  return true;
}

namespace {
volatile uint64_t ReferenceSink; ///< Keeps the reference's result alive.

/// One run of the gauge's reference: 20000 accesses of a seeded stream
/// (mostly 8-byte strides, one in eight a jump within 1 MiB) through a
/// 64-set 8-way LRU cache kept as move-to-front tag arrays. Returns its
/// host seconds.
double referenceRun() {
  static uint32_t Tags[64][8];
  Rng R(42);
  uint64_t Misses = 0, Addr = 0;
  telemetry::TimePoint T0 = telemetry::now();
  for (int I = 0; I < 20000; ++I) {
    Addr = (R.next() & 7) == 0 ? R.next() & 0xFFFFF : Addr + 8;
    uint32_t Line = static_cast<uint32_t>(Addr >> 6);
    uint32_t *Way = Tags[Line & 63];
    int Hit = 0;
    while (Hit < 7 && Way[Hit] != Line)
      ++Hit;
    if (Way[Hit] != Line)
      ++Misses;
    for (; Hit > 0; --Hit)
      Way[Hit] = Way[Hit - 1];
    Way[0] = Line;
  }
  ReferenceSink = Misses;
  return telemetry::secondsSince(T0);
}
} // namespace

double HostGauge::probe() {
  Samples Runs;
  for (int I = 0; I < 3; ++I)
    Runs.add(referenceRun());
  double S = Runs.median();
  Probes.add(S);
  return S;
}

bool wcs::perfbench::resetPeakRss() {
  malloc_trim(0);
  std::ofstream F("/proc/self/clear_refs");
  F << "5";
  F.close();
  return F.good();
}

double wcs::perfbench::peakRssMiB() {
  std::ifstream F("/proc/self/status");
  std::string Line;
  while (std::getline(F, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::atof(Line.c_str() + 6) / 1024.0; // The line is in kB.
  return 0.0;
}

uint64_t Rng::next() {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

std::string wcs::perfbench::layerOf(const std::string &Name) {
  if (Name == "batch.job")
    return "sim";
  if (Name == "sweep.run" || Name == "sweep.partition" ||
      Name == "batch.run")
    return "driver";
  if (Name.rfind("sweep.", 0) == 0)
    return "trace"; // Stack-distance, periodic and filtered passes.
  if (Name == "serve.expand")
    return "frontend"; // The daemon's prepareSweep: parse and lower.
  if (Name.rfind("scheduler.", 0) == 0)
    return "serve";
  std::string Prefix = Name.substr(0, Name.find('.'));
  for (const char *L : Layers)
    if (Prefix == L)
      return Prefix;
  return "";
}

std::map<std::string, double>
wcs::perfbench::layerSelfSeconds(const telemetry::TraceSnapshot &Snap) {
  // Spans arrive sorted by (thread, start, -duration), so on one thread
  // a parent precedes its children and a stack of open intervals finds
  // each span's direct parent.
  std::map<std::string, double> Self;
  std::vector<double> Own(Snap.Spans.size());
  std::vector<size_t> Open;
  for (size_t I = 0; I < Snap.Spans.size(); ++I) {
    const telemetry::DrainedSpan &S = Snap.Spans[I];
    Own[I] = S.DurSeconds;
    while (!Open.empty()) {
      const telemetry::DrainedSpan &P = Snap.Spans[Open.back()];
      // The nanosecond slack absorbs rounding of the drained doubles.
      if (P.Tid == S.Tid && S.StartSeconds + S.DurSeconds <=
                                P.StartSeconds + P.DurSeconds + 1e-9)
        break;
      Open.pop_back();
    }
    if (!Open.empty())
      Own[Open.back()] -= S.DurSeconds;
    Open.push_back(I);
  }
  for (size_t I = 0; I < Snap.Spans.size(); ++I) {
    std::string L = layerOf(Snap.Spans[I].Name);
    if (!L.empty())
      Self[L] += Own[I];
  }
  return Self;
}
