//===- perfbench/main.cpp - The wcs benchmark driver ----------------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
// wcs-perfbench --workload NAME --seed N --seconds S --trace 0|1
//               [--golden-dir DIR] [--tmp DIR] [--out DIR]
//               [--commit SHA] [--source-hash HASH]
// wcs-perfbench --make-golden --workload NAME [--golden-dir DIR]
//
// An untraced run (--trace 0) runs rounds while the next one still fits
// in S seconds, each after SetupReps timed set-ups, and reports the
// end-to-end metrics: set-ups, jobs and requests are timed by the host
// gauge (Bench.h), in reference seconds, and peak_rss_mb is the mean of
// the operations' own peak RSS (each its lowest over the rounds). A
// traced run (--trace 1) alternates two untraced and two traced rounds,
// with a bench-side span around every public layer call, writes the spans
// as a Perfetto-loadable trace and reports the per-layer metrics and the
// tracing overhead. Either way every job, point or request is checked
// against the committed golden counters, a results document with the
// run's provenance lands in --out, and the last stdout line is one JSON
// object:
//   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <thread>

using namespace wcs;
using namespace wcs::perfbench;

namespace {

/// Set-ups timed before every round and after the last one. setup_s is
/// the median of them all: spread over the run, it does not hang on how
/// disturbed the host was at one moment.
constexpr unsigned SetupReps = 5;

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  bool MakeGolden = false;
  std::string GoldenDir = "perfbench/golden";
  std::string TmpDir = ".bench_build/tmp";
  std::string OutDir = ".bench_build/results";
  std::string Commit = "unknown";
  std::string SourceHash = "unknown";
};

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "wcs-perfbench: %s\nusage: wcs-perfbench --workload "
               "kernels-medium|sweep-medium|serve-mixed --seed N --seconds S "
               "--trace 0|1 [--golden-dir DIR] [--tmp DIR] [--out DIR] "
               "[--commit SHA] [--source-hash HASH] [--make-golden]\n",
               Why);
  std::exit(2);
}

Options parseArgs(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--make-golden") {
      O.MakeGolden = true;
      continue;
    }
    if (I + 1 >= Argc)
      usage(("missing value for " + A).c_str());
    std::string V = Argv[++I];
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed")
      O.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::atof(V.c_str());
    else if (A == "--trace")
      O.Trace = V == "1";
    else if (A == "--golden-dir")
      O.GoldenDir = V;
    else if (A == "--tmp")
      O.TmpDir = V;
    else if (A == "--out")
      O.OutDir = V;
    else if (A == "--commit")
      O.Commit = V;
    else if (A == "--source-hash")
      O.SourceHash = V;
    else
      usage(("unknown option " + A).c_str());
  }
  return O;
}

std::unique_ptr<Workload> makeWorkload(const std::string &Name) {
  if (Name == "kernels-medium")
    return makeKernelsMedium();
  if (Name == "sweep-medium")
    return makeSweepMedium();
  if (Name == "serve-mixed")
    return makeServeMixed();
  return nullptr;
}

double lifetimePeakRssMiB() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

int makeGolden(Workload &W, const Options &O) {
  RunContext Ctx;
  Ctx.GoldenDir = O.GoldenDir;
  Golden G;
  std::string Err;
  if (!W.makeGolden(G, &Err) || !G.save(goldenPath(Ctx, W.name()), W.name(),
                                        &Err)) {
    std::fprintf(stderr, "wcs-perfbench: %s\n", Err.c_str());
    return 1;
  }
  std::printf("wrote %s\n", goldenPath(Ctx, W.name()).c_str());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O = parseArgs(Argc, Argv);
  std::unique_ptr<Workload> W = makeWorkload(O.Workload);
  if (!W)
    usage("unknown workload");
  if (O.MakeGolden)
    return makeGolden(*W, O);

  HostGauge Gauge;
  RunContext Ctx;
  Ctx.Seed = O.Seed;
  Ctx.GoldenDir = O.GoldenDir;
  Ctx.TmpDir = O.TmpDir;
  Ctx.Gauge = &Gauge;
  std::error_code EC;
  std::filesystem::create_directories(O.TmpDir, EC);
  std::filesystem::create_directories(O.OutDir, EC);
  std::string Err;
  if (!W->init(Ctx, &Err)) {
    std::fprintf(stderr, "wcs-perfbench: %s\n", Err.c_str());
    return 1;
  }

  Ledger L;
  Samples SetupS;
  auto TimeSetups = [&] {
    for (unsigned I = 0; I < SetupReps; ++I) {
      double Before = Gauge.probe();
      double S = W->setup(L);
      SetupS.add(Gauge.scale(S, Before, Gauge.probe()));
    }
  };
  TimeSetups();

  Report R;
  unsigned Rounds = 0;
  json::Value RoundSeconds = json::Value::array();
  auto TimeRound = [&] {
    telemetry::TimePoint T0 = telemetry::now();
    W->round(L);
    double S = telemetry::secondsSince(T0);
    RoundSeconds.push(S);
    ++Rounds;
    return S;
  };
  std::string TracePath;
  if (!O.Trace) {
    telemetry::TimePoint T0 = telemetry::now();
    for (;;) {
      if (Rounds > 0)
        TimeSetups();
      double LastRound = TimeRound();
      if (telemetry::secondsSince(T0) + LastRound > O.Seconds)
        break;
    }
    TimeSetups();
    R.add("setup_s", SetupS.median(), "s");
    W->endToEnd(R);
    // Workloads that measure their operations' own peaks report
    // peak_rss_mb; otherwise it is the process's lifetime peak.
    auto Peak = std::find_if(R.Metrics.begin(), R.Metrics.end(),
                             [](const Metric &M) {
                               return M.Name == "peak_rss_mb";
                             });
    if (Peak == R.Metrics.end())
      R.add("peak_rss_mb", lifetimePeakRssMiB(), "MiB");
    else if (Peak->Value <= 0.0)
      Peak->Value = lifetimePeakRssMiB();
    R.add("host_slowdown", Gauge.slowdown(), "ratio");
  } else {
    // Untraced and traced rounds alternate twice; the overhead compares
    // the faster of each kind, and the per-layer figures come from the
    // last traced round (the first one's spans are discarded).
    Samples Untraced, Traced;
    for (int I = 0; I < 2; ++I) {
      if (I > 0) {
        telemetry::disableTracing();
        W->setup(L);
      }
      Untraced.add(TimeRound());
      telemetry::enableTracing(1u << 16);
      W->setup(L);
      Traced.add(TimeRound());
    }
    W->traceExtras(L);
    telemetry::TraceSnapshot Snap = telemetry::drainTrace();
    telemetry::disableTracing();

    double FrontendS = 0.0;
    for (const telemetry::DrainedSpan &S : Snap.Spans)
      if (layerOf(S.Name) == "frontend")
        FrontendS += S.DurSeconds;
    R.add("frontend.build_s", FrontendS, "s");
    W->perLayer(R);
    std::map<std::string, double> Self = layerSelfSeconds(Snap);
    for (const char *Layer : Layers)
      R.add(std::string(Layer) + ".self_s", Self[Layer], "s");
    R.add("tracing.overhead_s", Traced.min() - Untraced.min(), "s");
    R.add("tracing.spans", static_cast<double>(Snap.Spans.size()), "count");
    R.add("tracing.dropped_spans", static_cast<double>(Snap.Dropped),
          "count");
    TracePath = O.OutDir + "/" + O.Workload + "-seed" +
                std::to_string(O.Seed) + ".trace.json";
    if (!json::writeFile(TracePath, telemetry::traceToJson(Snap), &Err))
      std::fprintf(stderr, "wcs-perfbench: %s\n", Err.c_str());
  }
  json::Value Prov = json::Value::object();
  Prov.set("git_commit", O.Commit);
  Prov.set("source_hash", O.SourceHash);
  Prov.set("compiler", WCS_PERFBENCH_COMPILER);
  Prov.set("build_type", WCS_PERFBENCH_BUILD_TYPE);
  Prov.set("nproc", std::thread::hardware_concurrency());
  Prov.set("workers", W->workers());
  Prov.set("clients", W->clients());
  Prov.set("seed", O.Seed);
  Prov.set("seconds", O.Seconds);
  Prov.set("gauge_ref_seconds", HostGauge::RefSeconds);
  Prov.set("rounds", Rounds);
  Prov.set("setup_seconds", SetupS.json());
  Prov.set("round_seconds", std::move(RoundSeconds));
  W.reset(); // Stops anything still using the scratch directory.
  std::filesystem::remove_all(O.TmpDir, EC);

  // Human-readable lines, then the results document, then the result.
  double ErrorRate = ratio(static_cast<double>(L.failed()),
                           static_cast<double>(L.attempted()));
  for (const Metric &M : R.Metrics)
    std::printf("%-32s %14.6f %s\n", M.Name.c_str(), M.Value, M.Unit.c_str());
  std::printf("%-32s %14.6f %s\n", "error_rate", ErrorRate, "ratio");
  for (const std::string &Why : L.failures())
    std::fprintf(stderr, "wcs-perfbench: FAILED %s\n", Why.c_str());

  json::Value Metrics = json::Value::object();
  for (const Metric &M : R.Metrics) {
    json::Value V = json::Value::object();
    V.set("value", M.Value);
    V.set("unit", M.Unit);
    Metrics.set(M.Name, std::move(V));
  }
  json::Value Doc = json::Value::object();
  Doc.set("schema", "wcs-perfbench-results");
  Doc.set("schema_version", 1);
  Doc.set("workload", O.Workload);
  Doc.set("mode", O.Trace ? "trace" : "run");
  Doc.set("provenance", std::move(Prov));
  Doc.set("details", R.Details);
  Doc.set("attempted", L.attempted());
  Doc.set("failed", L.failed());
  Doc.set("error_rate", ErrorRate);
  json::Value Failures = json::Value::array();
  for (const std::string &Why : L.failures())
    Failures.push(Why);
  Doc.set("failures", std::move(Failures));
  if (!TracePath.empty())
    Doc.set("trace_file", TracePath);
  Doc.set("metrics", Metrics);
  std::string DocPath = O.OutDir + "/" + O.Workload + "-seed" +
                        std::to_string(O.Seed) +
                        (O.Trace ? "-trace" : "-run") + ".json";
  if (!json::writeFile(DocPath, Doc, &Err))
    std::fprintf(stderr, "wcs-perfbench: %s\n", Err.c_str());

  json::Value Result = json::Value::object();
  Result.set("correct", L.failed() == 0 && L.attempted() > 0);
  Result.set("attempted", L.attempted());
  Result.set("failed", L.failed());
  Result.set("metrics", std::move(Metrics));
  std::printf("%s\n", Result.dump(false).c_str());
  return 0;
}
