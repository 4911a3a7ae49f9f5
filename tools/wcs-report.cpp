//===- tools/wcs-report.cpp - Results diff and regression gate ------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
// Diffs two results files (wcs-results schema, written by wcs-sim --json
// or wcs-bench) entry by entry and prints a per-kernel speedup /
// miss-delta table. Counters are deterministic, so any miss or access
// drift is a correctness bug; wall-clock is noisy, so time only gates
// through a threshold on the geometric-mean ratio.
//
// Given a single file, wcs-report instead renders a wcs-sweep document
// (written by wcs-sim --sweep-json) as capacity-axis tables: one table
// per configuration series, rows ordered by the capacity of the swept
// level, misses per level per row -- the misses-vs-capacity view of the
// paper's Fig. 9 rather than one flat row per grid point. A wcs-response
// document (from wcs-serve --client) renders the same way, prefixed by
// its serving provenance: request hash and the store hit/miss split.
//
//   wcs-report baseline.json current.json
//   wcs-report bench/baseline.json BENCH_results.json --check --threshold 2
//   wcs-report sweep.json
//   wcs-report response.json
//
// Exit status: 0 clean; 1 when --check trips; 2 on usage or I/O errors.
// --check trips on any counter drift, on entries that disappeared or
// failed, and on geomean time ratio above the threshold. Entries only
// present in the current file are informational (new kernels are not a
// regression), and so are warp decisions: entries whose warps or warped
// accesses differ from the baseline are counted and printed, never
// gated, since a change to the warping search moves them by design
// while the accesses and misses must stay put.
//
//===----------------------------------------------------------------------===//

#include "wcs/driver/Results.h"
#include "wcs/driver/Sweep.h"
#include "wcs/driver/SweepRequest.h"
#include "wcs/support/Stats.h"
#include "wcs/support/Telemetry.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

using namespace wcs;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: wcs-report BASELINE.json CURRENT.json [options]\n"
      "       wcs-report SWEEP.json\n"
      "  --check          gate: exit 1 on any miss/access drift, on\n"
      "                   missing or failed entries, or on time regression\n"
      "                   (entries whose warps or warped accesses changed\n"
      "                   are counted, not gated)\n"
      "  --threshold X    time gate: fail when geomean(current/baseline)\n"
      "                   wall-time ratio exceeds X (default 1.25); when\n"
      "                   either file carries per-rep samples (wcs-bench\n"
      "                   --reps) the gate widens by the measured noise\n"
      "                   (2 sigma of the geomean), so a noisy runner\n"
      "                   cannot fail a genuinely unchanged build\n"
      "  --quiet          print only drifting entries and the summary\n"
      "With a single file (a wcs-sweep, wcs-response or wcs-metrics\n"
      "document), renders it: sweeps as capacity-axis tables (misses vs\n"
      "swept-level capacity, one table per configuration series), a\n"
      "wcs-response additionally with its request hash and store\n"
      "hit/miss figures, and a wcs-metrics document (wcs-serve\n"
      "--metrics) as top spans by cumulative time, the store hit rate\n"
      "and the request-latency histogram (--check does not apply).\n");
}

/// Total misses across levels (the headline drift number of one entry).
uint64_t totalMisses(const SimStats &S) {
  uint64_t M = 0;
  for (unsigned L = 0; L < S.NumLevels; ++L)
    M += S.Level[L].Misses;
  return M;
}

/// Wall-time floor for the time gate. Tiny --size small entries on fast
/// runners can legitimately measure 0 s; feeding that into the
/// current/baseline ratio would divide by zero (and a 0-vs-0 pair would
/// put NaN into the geomean, silently disabling the gate). Clamping to
/// a nanosecond keeps every compared entry in the gate with a finite,
/// bounded contribution.
constexpr double MinGateSeconds = 1e-9;
/// Per-entry ratio clamp: one degenerate timing must not be able to
/// move the geomean by more than 1000x in either direction.
constexpr double MaxGateRatio = 1e3;

/// Clamps one entry's wall time for the time gate; returns true (and
/// warns once) when clamping was needed.
bool clampSeconds(const char *Tag, const char *Which, double &S) {
  if (std::isfinite(S) && S >= MinGateSeconds)
    return false;
  std::fprintf(stderr,
               "warning: %s: %s wall time %g s is zero or non-finite; "
               "clamping to %g s for the time gate\n",
               Tag, Which, S, MinGateSeconds);
  S = MinGateSeconds;
  return true;
}

/// One entry's wall-time distribution. Multi-sample entries (wcs-bench
/// --reps) get a real mean/stddev; legacy single-sample entries degrade
/// to {Stats.Seconds, 0} and contribute nothing to the noise allowance,
/// so a pre-reps baseline gates exactly as it always did.
struct Timing {
  double Mean = 0.0;
  double StdErr = 0.0; ///< Standard error OF THE MEAN, not per-sample.
  unsigned N = 1;
};

Timing entryTiming(const ResultEntry &E) {
  if (E.Samples.size() < 2)
    return {E.Stats.Seconds, 0.0, 1};
  MeanStddev MS;
  for (double S : E.Samples)
    MS.add(S);
  return {MS.mean(), MS.stderror(), MS.count()};
}

/// True when the two runs produced identical counters (everything except
/// wall-clock, which legitimately varies run to run).
bool countersEqual(const SimStats &A, const SimStats &B) {
  if (A.NumLevels != B.NumLevels)
    return false;
  for (unsigned L = 0; L < A.NumLevels; ++L)
    if (A.Level[L].Accesses != B.Level[L].Accesses ||
        A.Level[L].Misses != B.Level[L].Misses)
      return false;
  return true;
}

//===----------------------------------------------------------------------===//
// Sweep-document rendering (single-file mode)
//===----------------------------------------------------------------------===//

std::string capacityStr(uint64_t Bytes) {
  return Bytes % 1024 == 0 ? std::to_string(Bytes / 1024) + "KiB"
                           : std::to_string(Bytes) + "B";
}

/// The per-level descriptor of a series: everything of the level's
/// config except the capacity when \p IsAxis. Fully-associative points
/// keep "full" rather than a way count, so a fully-associative capacity
/// ladder (whose way count grows with the capacity) forms one series.
std::string levelDesc(const CacheConfig &C, bool IsAxis) {
  std::string S;
  if (!IsAxis)
    S += capacityStr(C.SizeBytes) + " ";
  S += C.isFullyAssociative() && IsAxis
           ? std::string("full-assoc")
           : std::to_string(C.Assoc) + "-way";
  S += std::string(" ") + policyName(C.Policy);
  S += " " + std::to_string(C.BlockBytes) + "B-lines";
  S += C.WriteAlloc == WriteAllocate::Yes ? " WA" : " NWA";
  return S;
}

/// Renders a wcs-sweep document as capacity-axis tables: points are
/// grouped into series that differ only in the capacity of the swept
/// ("axis") level, and each series prints one row per capacity with the
/// per-level miss counts. The axis is the level with the most distinct
/// capacities among the document's points (computed per level-count
/// class, so mixed single/two-level documents render sensibly).
int renderSweep(const SweepReport &Doc, const std::string &Path) {
  std::printf("sweep    %s  (%s%s%s, %zu points, %u threads)\n",
              Path.c_str(), Doc.Tool.c_str(),
              Doc.Program.empty() ? "" : " ", Doc.Program.c_str(),
              Doc.Points.size(), Doc.Threads);
  if (!Doc.SizeName.empty())
    std::printf("size     %s\n", Doc.SizeName.c_str());
  if (Doc.PeriodicPass)
    std::printf("shared   periodic warp pass %.3f s (%llu accesses, "
                "%llu warped, %llu warps); %u filtered L1 streams "
                "%.3f s (%llu records, %llu stored); %zu jobs (%zu "
                "deduped points)\n",
                Doc.PeriodicPassSeconds,
                static_cast<unsigned long long>(Doc.TraceAccesses),
                static_cast<unsigned long long>(
                    Doc.PeriodicWarpedAccesses),
                static_cast<unsigned long long>(Doc.PeriodicWarps),
                Doc.FilteredGroups, Doc.RecordSeconds,
                static_cast<unsigned long long>(Doc.FilteredRecords),
                static_cast<unsigned long long>(
                    Doc.FilteredStoredRecords),
                Doc.SimulatedJobs, Doc.DedupedPoints);
  else
    std::printf("shared   trace pass %.3f s (%llu accesses); %u filtered "
                "L1 streams %.3f s (%llu records); %zu jobs (%zu deduped "
                "points)\n",
                Doc.TracePassSeconds,
                static_cast<unsigned long long>(Doc.TraceAccesses),
                Doc.FilteredGroups, Doc.RecordSeconds,
                static_cast<unsigned long long>(Doc.FilteredRecords),
                Doc.SimulatedJobs, Doc.DedupedPoints);

  // Per-method breakdown: point counts per method (from the points
  // themselves) and the seconds the document attributes to each, so a
  // sweep file alone substantiates its speedup claims. Shared with the
  // wcs-sim live output (methodBreakdownLine).
  std::printf("methods  %s\n", methodBreakdownLine(Doc).c_str());
  for (const std::string &L1 : Doc.DemotedL1s)
    std::printf("demoted  L1 group %s fell back to full simulation "
                "(stream cap)\n",
                L1.c_str());

  size_t Failed = 0;
  for (const SweepPoint &P : Doc.Points)
    if (!P.Ok) {
      std::printf("FAILED   %s: %s\n", P.Cache.str().c_str(),
                  P.Error.c_str());
      ++Failed;
    }

  // Pick the axis level per level-count class: the one whose capacity
  // varies most across the class's points.
  std::map<unsigned, unsigned> AxisOf; ///< numLevels -> axis level.
  for (unsigned NumLevels : {1u, 2u}) {
    std::vector<std::set<uint64_t>> Caps(NumLevels);
    for (const SweepPoint &P : Doc.Points)
      if (P.Ok && P.Cache.numLevels() == NumLevels)
        for (unsigned L = 0; L < NumLevels; ++L)
          Caps[L].insert(P.Cache.Levels[L].SizeBytes);
    unsigned Axis = NumLevels - 1;
    for (unsigned L = 0; L < NumLevels; ++L)
      if (Caps[L].size() > Caps[Axis].size())
        Axis = L;
    AxisOf[NumLevels] = Axis;
  }

  // Group points into series and order rows by axis capacity.
  struct Series {
    std::vector<size_t> Points;
  };
  std::map<std::string, Series> BySeries;
  for (size_t I = 0; I < Doc.Points.size(); ++I) {
    const SweepPoint &P = Doc.Points[I];
    if (!P.Ok)
      continue;
    unsigned Axis = AxisOf[P.Cache.numLevels()];
    std::string Key;
    for (unsigned L = 0; L < P.Cache.numLevels(); ++L) {
      if (L != 0)
        Key += " + ";
      Key += "L" + std::to_string(L + 1) + "[" +
             levelDesc(P.Cache.Levels[L], L == Axis) + "]";
    }
    if (P.Cache.numLevels() == 2)
      Key += std::string(" (") + inclusionName(P.Cache.Inclusion) + ")";
    Key += "  axis: L" + std::to_string(Axis + 1) + " capacity";
    BySeries[Key].Points.push_back(I);
  }

  for (auto &[Key, S] : BySeries) {
    unsigned Axis = AxisOf[Doc.Points[S.Points.front()].Cache.numLevels()];
    std::stable_sort(S.Points.begin(), S.Points.end(),
                     [&](size_t A, size_t B) {
                       return Doc.Points[A].Cache.Levels[Axis].SizeBytes <
                              Doc.Points[B].Cache.Levels[Axis].SizeBytes;
                     });
    std::printf("\nseries   %s\n", Key.c_str());
    std::printf("%10s %14s %14s %10s %-16s %9s\n", "capacity",
                "L1-misses", "L2-misses", "ratio", "method", "time[s]");
    for (size_t I : S.Points) {
      const SweepPoint &P = Doc.Points[I];
      const SimStats &St = P.Stats;
      char L2Buf[24] = "-";
      if (St.NumLevels > 1)
        std::snprintf(L2Buf, sizeof(L2Buf), "%llu",
                      static_cast<unsigned long long>(
                          St.Level[1].Misses));
      // The headline ratio: misses of the LAST level over all accesses
      // (the hierarchy's traffic to memory), Fig. 9's y axis.
      double Ratio =
          St.Level[0].Accesses == 0
              ? 0.0
              : static_cast<double>(
                    St.Level[St.NumLevels - 1].Misses) /
                    static_cast<double>(St.Level[0].Accesses);
      std::printf("%10s %14llu %14s %9.3f%% %-16s %9.4f\n",
                  capacityStr(P.Cache.Levels[Axis].SizeBytes).c_str(),
                  static_cast<unsigned long long>(St.Level[0].Misses),
                  L2Buf, 100.0 * Ratio, sweepMethodName(P.Method),
                  St.Seconds);
    }
  }
  if (Failed) {
    std::printf("\n%zu point(s) FAILED\n", Failed);
    return 1;
  }
  return 0;
}

/// Renders a wcs-response document: the serving provenance (request
/// hash, store hit/miss split), then the embedded sweep through the
/// same tables as a plain wcs-sweep file.
int renderResponse(const SweepResponse &R, const std::string &Path) {
  std::printf("response %s  (request %s)\n", Path.c_str(),
              R.RequestHash.c_str());
  if (!R.Ok) {
    std::printf("REFUSED  %s\n", R.Error.c_str());
    return 1;
  }
  uint64_t Total = R.StoreHits + R.StoreMisses;
  std::printf("store    %llu/%llu points from store (%.1f%% hit rate), "
              "%llu simulated; store holds %llu entries\n",
              static_cast<unsigned long long>(R.StoreHits),
              static_cast<unsigned long long>(Total),
              Total == 0 ? 0.0 : 100.0 * static_cast<double>(R.StoreHits) /
                                     static_cast<double>(Total),
              static_cast<unsigned long long>(R.StoreMisses),
              static_cast<unsigned long long>(R.StoreEntries));
  return renderSweep(R.Sweep, Path);
}

//===----------------------------------------------------------------------===//
// Metrics-document rendering (single-file mode)
//===----------------------------------------------------------------------===//

/// Renders one latency histogram as labeled buckets with a bar chart.
void renderHistogram(const MetricsDoc::Hist &H) {
  std::printf("\n%s  (%llu observations, total %.4f s)\n", H.Name.c_str(),
              static_cast<unsigned long long>(H.Count), H.Sum);
  uint64_t Max = 0;
  for (uint64_t C : H.Counts)
    Max = std::max(Max, C);
  for (size_t B = 0; B < H.Counts.size(); ++B) {
    char Label[32];
    if (B < H.Bounds.size())
      std::snprintf(Label, sizeof(Label), "<= %g s", H.Bounds[B]);
    else
      std::snprintf(Label, sizeof(Label), " > %g s",
                    H.Bounds.empty() ? 0.0 : H.Bounds.back());
    int Bar =
        Max == 0 ? 0 : static_cast<int>(40 * H.Counts[B] / Max);
    std::printf("  %-12s %8llu  %.*s\n", Label,
                static_cast<unsigned long long>(H.Counts[B]), Bar,
                "########################################");
  }
}

/// Renders a wcs-metrics document (wcs-serve --metrics): the store hit
/// rate, the top spans by cumulative time, and every histogram.
int renderMetrics(const MetricsDoc &D, const std::string &Path) {
  std::printf("metrics  %s%s\n", Path.c_str(),
              D.Tool.empty() ? "" : ("  (" + D.Tool + ")").c_str());

  // How much serving work the store and in-flight sharing absorbed.
  uint64_t Hits = D.counter("serve.store_hits");
  uint64_t InFlight = D.counter("serve.inflight_hits");
  uint64_t Misses = D.counter("serve.store_misses");
  uint64_t Total = Hits + InFlight + Misses;
  if (Total > 0)
    std::printf("store    %llu of %llu points shared (%.1f%% hit rate: "
                "%llu store, %llu in-flight), %llu computed\n",
                static_cast<unsigned long long>(Hits + InFlight),
                static_cast<unsigned long long>(Total),
                100.0 * static_cast<double>(Hits + InFlight) /
                    static_cast<double>(Total),
                static_cast<unsigned long long>(Hits),
                static_cast<unsigned long long>(InFlight),
                static_cast<unsigned long long>(Misses));

  if (!D.Spans.empty()) {
    std::vector<const MetricsDoc::SpanAgg *> Top;
    Top.reserve(D.Spans.size());
    for (const MetricsDoc::SpanAgg &S : D.Spans)
      Top.push_back(&S);
    std::stable_sort(Top.begin(), Top.end(),
                     [](const auto *A, const auto *B) {
                       return A->TotalSeconds > B->TotalSeconds;
                     });
    size_t N = std::min<size_t>(Top.size(), 10);
    std::printf("\ntop %zu spans by cumulative time:\n", N);
    std::printf("  %-28s %10s %12s %12s\n", "span", "count", "total[s]",
                "mean[ms]");
    for (size_t I = 0; I < N; ++I) {
      const MetricsDoc::SpanAgg &S = *Top[I];
      std::printf("  %-28s %10llu %12.4f %12.4f\n", S.Name.c_str(),
                  static_cast<unsigned long long>(S.Count),
                  S.TotalSeconds,
                  S.Count == 0 ? 0.0
                               : 1e3 * S.TotalSeconds /
                                     static_cast<double>(S.Count));
    }
    if (Top.size() > N)
      std::printf("  (%zu more)\n", Top.size() - N);
  }

  for (const MetricsDoc::Hist &H : D.Histograms)
    renderHistogram(H);

  if (!D.Counters.empty()) {
    std::printf("\ncounters:\n");
    for (const auto &[Name, V] : D.Counters)
      std::printf("  %-32s %llu\n", Name.c_str(),
                  static_cast<unsigned long long>(V));
  }
  if (!D.Gauges.empty()) {
    std::printf("\ngauges:\n");
    for (const auto &[Name, V] : D.Gauges)
      std::printf("  %-32s %g\n", Name.c_str(), V);
  }
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  std::string BasePath, CurPath;
  bool Check = false, Quiet = false;
  double Threshold = 1.25;

  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (A == "--check") {
      Check = true;
    } else if (A == "--threshold") {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "error: --threshold needs an argument\n");
        return 2;
      }
      char *End = nullptr;
      Threshold = std::strtod(argv[++I], &End);
      // !(> 0) also rejects NaN, and !isfinite rejects inf: either would
      // silently disable the time gate (every comparison false / true).
      if (!End || *End != '\0' || !(Threshold > 0) ||
          !std::isfinite(Threshold)) {
        std::fprintf(stderr, "error: bad --threshold '%s'\n", argv[I]);
        return 2;
      }
    } else if (A == "--quiet") {
      Quiet = true;
    } else if (A == "--help" || A == "-h") {
      usage();
      return 0;
    } else if (!A.empty() && A[0] == '-') {
      std::fprintf(stderr, "error: unknown option '%s'\n", A.c_str());
      usage();
      return 2;
    } else if (BasePath.empty()) {
      BasePath = A;
    } else if (CurPath.empty()) {
      CurPath = A;
    } else {
      std::fprintf(stderr, "error: more than two files given\n");
      usage();
      return 2;
    }
  }
  if (BasePath.empty()) {
    usage();
    return 2;
  }
  if (CurPath.empty()) {
    // Single-file mode: render a wcs-sweep or wcs-response document,
    // told apart by the schema member.
    if (Check) {
      std::fprintf(stderr,
                   "error: --check diffs two results files; a single "
                   "sweep/response file only renders\n");
      return 2;
    }
    json::Value V;
    std::string Err;
    if (!json::readFile(BasePath, V, &Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 2;
    }
    const json::Value *Schema = V.find("schema");
    if (Schema && Schema->isString() &&
        Schema->asString() == ResponseSchemaName) {
      SweepResponse Resp;
      if (!fromJson(V, Resp, &Err)) {
        std::fprintf(stderr, "error: %s: %s\n", BasePath.c_str(),
                     Err.c_str());
        return 2;
      }
      return renderResponse(Resp, BasePath);
    }
    if (Schema && Schema->isString() &&
        Schema->asString() == MetricsSchemaName) {
      MetricsDoc MD;
      if (!fromJson(V, MD, &Err)) {
        std::fprintf(stderr, "error: %s: %s\n", BasePath.c_str(),
                     Err.c_str());
        return 2;
      }
      return renderMetrics(MD, BasePath);
    }
    SweepReport Doc;
    if (!fromJson(V, Doc, &Err)) {
      std::fprintf(stderr,
                   "error: %s: %s\n(single-file mode renders wcs-sweep "
                   "and wcs-response documents; diffing results needs "
                   "two files)\n",
                   BasePath.c_str(), Err.c_str());
      return 2;
    }
    return renderSweep(Doc, BasePath);
  }

  ResultsDoc Base, Cur;
  std::string Err;
  if (!readResultsFile(BasePath, Base, &Err) ||
      !readResultsFile(CurPath, Cur, &Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 2;
  }
  // Comparing runs of different problem sizes would surface as counter
  // drift on every entry — a configuration error, not a simulator
  // regression, so refuse it outright.
  if (!Base.SizeName.empty() && !Cur.SizeName.empty() &&
      Base.SizeName != Cur.SizeName) {
    std::fprintf(stderr,
                 "error: problem-size mismatch: baseline is %s, current "
                 "is %s; results are only comparable at the same size\n",
                 Base.SizeName.c_str(), Cur.SizeName.c_str());
    return 2;
  }

  std::printf("baseline %s  (%s%s%s, %zu entries)\n", BasePath.c_str(),
              Base.Tool.c_str(), Base.SizeName.empty() ? "" : " ",
              Base.SizeName.c_str(), Base.Entries.size());
  std::printf("current  %s  (%s%s%s, %zu entries)\n\n", CurPath.c_str(),
              Cur.Tool.c_str(), Cur.SizeName.empty() ? "" : " ",
              Cur.SizeName.c_str(), Cur.Entries.size());

  std::printf("%-40s %14s %11s %10s %10s %9s\n", "entry", "accesses",
              "miss-delta", "base[s]", "cur[s]", "speedup");

  size_t Compared = 0, Drifted = 0, Missing = 0, Failed = 0;
  size_t WarpsChanged = 0; ///< Counted, not gated.
  GeoMean RatioMean;
  // Log-space variance of the geomean ratio, accumulated from each
  // pair's standard errors (first-order: Var[log(c/b)] ~ (se_c/c)^2 +
  // (se_b/b)^2). Zero for sample-free files.
  double SumVarLog = 0.0;
  for (const ResultEntry &B : Base.Entries) {
    const ResultEntry *C = Cur.find(B.Tag);
    if (!C) {
      std::printf("%-40s MISSING from current\n", B.Tag.c_str());
      ++Missing;
      continue;
    }
    if (!B.Ok || !C->Ok) {
      std::printf("%-40s FAILED (%s)\n", B.Tag.c_str(),
                  !C->Ok ? C->Error.c_str() : "baseline entry failed");
      ++Failed;
      continue;
    }
    ++Compared;
    bool Equal = countersEqual(B.Stats, C->Stats);
    if (!Equal)
      ++Drifted;
    if (B.Stats.Warps != C->Stats.Warps ||
        B.Stats.WarpedAccesses != C->Stats.WarpedAccesses)
      ++WarpsChanged;
    int64_t MissDelta = static_cast<int64_t>(totalMisses(C->Stats)) -
                        static_cast<int64_t>(totalMisses(B.Stats));
    // Every compared entry feeds the time gate: degenerate timings are
    // clamped (with a warning) instead of silently dropped or allowed
    // to poison the geomean with NaN. Multi-sample entries compare by
    // their means and contribute their standard errors to the noise
    // allowance.
    Timing BaseT = entryTiming(B), CurT = entryTiming(*C);
    double BaseS = BaseT.Mean, CurS = CurT.Mean;
    bool Clamped = clampSeconds(B.Tag.c_str(), "baseline", BaseS);
    Clamped |= clampSeconds(B.Tag.c_str(), "current", CurS);
    double Ratio = CurS / BaseS;
    if (Clamped)
      Ratio = std::min(std::max(Ratio, 1.0 / MaxGateRatio), MaxGateRatio);
    RatioMean.add(Ratio);
    if (Ratio > 0 && !Clamped) {
      double RelBase = BaseT.StdErr / BaseS, RelCur = CurT.StdErr / CurS;
      SumVarLog += RelBase * RelBase + RelCur * RelCur;
    }
    if (!Quiet || !Equal)
      std::printf("%-40s %14llu %11lld %10.4f %10.4f %8.2fx%s%s\n",
                  B.Tag.c_str(),
                  static_cast<unsigned long long>(
                      C->Stats.totalAccesses()),
                  static_cast<long long>(MissDelta), BaseT.Mean,
                  CurT.Mean, Ratio > 0 ? 1.0 / Ratio : 0.0,
                  BaseT.N > 1 || CurT.N > 1 ? "  (mean)" : "",
                  Equal ? "" : "  COUNTER DRIFT");
  }

  size_t Extra = 0;
  for (const ResultEntry &C : Cur.Entries)
    if (!Base.find(C.Tag))
      ++Extra;

  // Neutral 1.0 when no pair had usable timings (nothing to gate on).
  double GeoRatio = RatioMean.count() ? RatioMean.value() : 1.0;
  // 2-sigma one-sided noise allowance on the geomean: with per-rep
  // samples the gate only trips when the regression clears both the
  // threshold AND what measurement noise alone could explain. Without
  // samples SigmaGeo is 0 and the gate is exactly the classic one.
  double SigmaGeo =
      RatioMean.count() ? std::sqrt(SumVarLog) / RatioMean.count() : 0.0;
  double Gate = Threshold * std::exp(2.0 * SigmaGeo);
  std::printf("\ncompared %zu entries: %zu counter drift(s), %zu missing, "
              "%zu failed, %zu new\n",
              Compared, Drifted, Missing, Failed, Extra);
  std::printf("%zu entries changed warp decisions (not gated)\n",
              WarpsChanged);
  std::printf("geomean time ratio current/baseline: %.3f "
              "(speedup %.2fx; gate threshold %.2f%s)\n",
              GeoRatio, GeoRatio > 0 ? 1.0 / GeoRatio : 0.0, Threshold,
              SigmaGeo > 0 ? " before noise allowance" : "");
  if (SigmaGeo > 0)
    std::printf("noise    geomean sigma %.4f from per-rep samples; "
                "effective gate %.3f (threshold x 2-sigma allowance)\n",
                SigmaGeo, Gate);

  if (!Check)
    return 0;
  bool Bad = false;
  if (Drifted) {
    std::printf("CHECK FAIL: %zu entries changed deterministic counters\n",
                Drifted);
    Bad = true;
  }
  if (Missing) {
    std::printf("CHECK FAIL: %zu baseline entries missing from current\n",
                Missing);
    Bad = true;
  }
  if (Failed) {
    std::printf("CHECK FAIL: %zu entries failed\n", Failed);
    Bad = true;
  }
  if (GeoRatio > Gate) {
    std::printf("CHECK FAIL: geomean time ratio %.3f exceeds %s %.3f\n",
                GeoRatio,
                SigmaGeo > 0 ? "noise-adjusted gate" : "threshold", Gate);
    Bad = true;
  }
  if (!Bad)
    std::printf("CHECK OK\n");
  return Bad ? 1 : 0;
}
