//===- tools/wcs-sim.cpp - Command-line cache simulator -------------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
// The command-line face of the library, mirroring the paper's tool: it
// takes cache parameters and a polyhedral program (a PolyBench kernel by
// name, or a file in the wcs loop-nest dialect) and reports cache access
// and miss counts.
//
//   wcs-sim --kernel jacobi-2d --size large
//   wcs-sim --file mykernel.c --param N=1024 --l1 4096,8,plru
//           --l2 32768,16,qlru
//   wcs-sim --kernel gemm --compare
//   wcs-sim --all --size medium --jobs 8
//   wcs-sim --kernel gemm --sweep --sweep-l1 8K:256K:x2,assoc=4,8
//
// Simulation runs through the wcs::BatchRunner driver: --all sweeps the
// whole PolyBench registry as one batch and --jobs N fans the jobs over
// N worker threads (counters are identical for every N). --sweep
// evaluates a whole grid of cache configurations through the sweep
// driver instead: single-level LRU points are answered from one shared
// stack-distance pass, two-level NINE points (--sweep-l2) share one
// recorded L1-miss-filtered stream per distinct L1, and the rest are
// deduplicated simulation jobs.
//
//===----------------------------------------------------------------------===//

#include "wcs/driver/BatchRunner.h"
#include "wcs/driver/Results.h"
#include "wcs/driver/Sweep.h"
#include "wcs/driver/SweepRequest.h"
#include "wcs/frontend/Frontend.h"
#include "wcs/polybench/Polybench.h"
#include "wcs/support/StringUtil.h"
#include "wcs/support/Telemetry.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace wcs;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: wcs-sim [options]\n"
      "  --kernel NAME         simulate a PolyBench kernel (see --list)\n"
      "  --all                 simulate every PolyBench kernel (batch)\n"
      "  --size S              mini|small|medium|large|xlarge "
      "(default: large)\n"
      "  --file PATH           simulate a kernel file in the wcs dialect\n"
      "  --param NAME=VALUE    bind a parameter (repeatable; for --file)\n"
      "  --l1 BYTES,ASSOC,POL  L1 config (default 4096,8,plru)\n"
      "  --l2 BYTES,ASSOC,POL  add an L2 (pol: lru|fifo|plru|qlru)\n"
      "  --no-write-allocate   write misses bypass the L1\n"
      "  --scalars             include scalar accesses\n"
      "  --backend B           warp|concrete|trace|stack-distance\n"
      "                        (default: warp; stack-distance models\n"
      "                        single-level write-allocate LRU only)\n"
      "  --no-warp             same as --backend concrete\n"
      "  --compare             run warping + concrete and verify + report\n"
      "  --json FILE           also write the results as JSON "
      "(wcs-results schema;\n"
      "                        feed two such files to wcs-report)\n"
      "  --sweep               sweep a grid of cache configs in one run\n"
      "                        (single-level LRU points share\n"
      "                        stack-distance passes; the rest simulate)\n"
      "  --no-warp-sweep       force the linear shared trace pass (by\n"
      "                        default long traces use warp-aware\n"
      "                        periodic passes; results are identical;\n"
      "                        per run, like --jobs: never in a request)\n"
      "  --warp-sweep-threshold N\n"
      "                        trace length (accesses) at which the\n"
      "                        periodic pass takes over (default 2M;\n"
      "                        0 = always periodic; per run)\n"
      "  --sweep-l1 GRID       L1 grid: SIZES[,assoc=A,..][,policy=P,..]"
      "[,block=N]\n"
      "                        SIZES: capacities (8K) and/or ranges "
      "LO:HI:xF;\n"
      "                        assoc also takes 'full' "
      "(default 8K:256K:x2,assoc=8)\n"
      "  --sweep-l2 GRID       add an L2 axis (cross product with the L1 "
      "grid;\n"
      "                        points sharing an L1 share one recorded\n"
      "                        L1-miss-filtered stream, NINE semantics)\n"
      "  --sweep-json FILE     write the sweep as JSON (wcs-sweep "
      "schema)\n"
      "  --emit-request FILE   write the sweep as a wcs-request document\n"
      "                        and exit without running; the same\n"
      "                        document replays through wcs-sim or a\n"
      "                        wcs-serve daemon, bit-identically\n"
      "  --deadline S          stamp the request with a serving deadline\n"
      "                        of S seconds (a daemon returns partial\n"
      "                        results past it; ignored when the sweep\n"
      "                        runs in-process; default 0 = none)\n"
      "  --max-filtered-records N\n"
      "                        cap the stored records of one L1-miss\n"
      "                        stream (0 = unlimited; capped groups\n"
      "                        fall back to full simulation; per run)\n"
      "  --jobs N              simulate on N worker threads "
      "(default 1; 0 = all cores)\n"
      "  --trace-json FILE     record spans (passes, recordings, jobs)\n"
      "                        and write a Chrome trace-event file --\n"
      "                        loadable in Perfetto -- on exit\n"
      "  --dump                print the program tree before simulating\n"
      "  --list                list the PolyBench kernels and exit\n");
}

/// --trace-json sink, written via atexit so EVERY exit path -- batch,
/// sweep, early errors -- flushes the spans recorded so far.
std::string TraceJsonPath;

void writeTraceAtExit() {
  std::string Err;
  if (!telemetry::writeTraceFile(TraceJsonPath, &Err))
    std::fprintf(stderr, "error: %s\n", Err.c_str());
  else
    std::fprintf(stderr, "trace    wrote %s\n", TraceJsonPath.c_str());
}

void printStats(const char *Tag, const SimStats &S) {
  std::printf("%s:\n", Tag);
  std::printf("  accesses      %llu\n",
              static_cast<unsigned long long>(S.totalAccesses()));
  for (unsigned L = 0; L < S.NumLevels; ++L)
    std::printf("  L%u misses     %llu  (%.3f%% of L%u accesses)\n", L + 1,
                static_cast<unsigned long long>(S.Level[L].Misses),
                100.0 * S.Level[L].missRatio(), L + 1);
  std::printf("  simulated     %llu  warped %llu  (%.2f%% non-warped, "
              "%llu warps)\n",
              static_cast<unsigned long long>(S.SimulatedAccesses),
              static_cast<unsigned long long>(S.WarpedAccesses),
              100.0 * S.nonWarpedShare(),
              static_cast<unsigned long long>(S.Warps));
  if (S.FailedWarpChecks != 0)
    std::printf("  failed checks %llu  (shift %llu, state %llu, room %llu, "
                "unknown %llu, agree %llu)\n",
                static_cast<unsigned long long>(S.FailedWarpChecks),
                static_cast<unsigned long long>(S.FailedBy.Shift),
                static_cast<unsigned long long>(S.FailedBy.State),
                static_cast<unsigned long long>(S.FailedBy.Room),
                static_cast<unsigned long long>(S.FailedBy.Unknown),
                static_cast<unsigned long long>(S.FailedBy.Agree));
  if (S.PilotTailAccesses != 0)
    std::printf("  pilot         no warp by 1/%llu of the trace; %llu "
                "accesses on the concrete floor\n",
                static_cast<unsigned long long>(WarpPilotFraction),
                static_cast<unsigned long long>(S.PilotTailAccesses));
  std::printf("  time          %.4f s\n", S.Seconds);
}

} // namespace

int main(int argc, char **argv) {
  std::string Kernel, File, JsonPath;
  ProblemSize Size = ProblemSize::Large;
  std::map<std::string, int64_t> Params;
  CacheConfig L1{4096, 8, 64, PolicyKind::Plru, WriteAllocate::Yes};
  CacheConfig L2;
  bool Sweep = false, NoWarpSweep = false;
  SweepOptions SweepOpts; // Its per-run knobs never reach a request.
  std::string SweepL1Spec = "8K:256K:x2,assoc=8", SweepL2Spec,
      SweepJsonPath, EmitRequestPath;
  double DeadlineSeconds = 0.0;
  bool HasL2 = false, HasL1 = false, NoWriteAlloc = false;
  bool All = false, Compare = false, Dump = false;
  SimBackend Backend = SimBackend::Warping;
  bool BackendSet = false;
  unsigned Jobs = 1;
  SimOptions Opts;

  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto Next = [&]() -> const char * {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs an argument\n", A.c_str());
        std::exit(2);
      }
      return argv[++I];
    };
    if (A == "--kernel") {
      Kernel = Next();
    } else if (A == "--all") {
      All = true;
    } else if (A == "--jobs") {
      const char *N = Next();
      if (!parseJobCount(N, Jobs)) {
        std::fprintf(stderr,
                     "error: --jobs expects a non-negative number, got '%s'\n",
                     N);
        return 2;
      }
    } else if (A == "--backend") {
      const char *B = Next();
      if (!parseBackendName(B, Backend)) {
        std::fprintf(stderr, "error: unknown backend '%s'\n", B);
        return 2;
      }
      BackendSet = true;
    } else if (A == "--file") {
      File = Next();
    } else if (A == "--json") {
      JsonPath = Next();
    } else if (A == "--trace-json") {
      if (TraceJsonPath.empty()) {
        telemetry::enableTracing();
        std::atexit(writeTraceAtExit);
      }
      TraceJsonPath = Next();
    } else if (A == "--sweep") {
      Sweep = true;
    } else if (A == "--sweep-l1") {
      SweepL1Spec = Next();
      Sweep = true;
    } else if (A == "--sweep-l2") {
      SweepL2Spec = Next();
      Sweep = true;
    } else if (A == "--sweep-json") {
      SweepJsonPath = Next();
      Sweep = true;
    } else if (A == "--emit-request") {
      EmitRequestPath = Next();
      Sweep = true;
    } else if (A == "--deadline") {
      const char *N = Next();
      char *End = nullptr;
      double V = std::strtod(N, &End);
      if (End == N || *End != '\0' || !(V >= 0)) {
        std::fprintf(stderr,
                     "error: --deadline expects a non-negative number of "
                     "seconds, got '%s'\n",
                     N);
        return 2;
      }
      DeadlineSeconds = V;
      Sweep = true;
    } else if (A == "--max-filtered-records") {
      const char *N = Next();
      if (!parseUInt64(N, SweepOpts.MaxFilteredRecords, UINT64_MAX)) {
        std::fprintf(stderr,
                     "error: --max-filtered-records expects a "
                     "non-negative record count, got '%s'\n",
                     N);
        return 2;
      }
      Sweep = true;
    } else if (A == "--no-warp-sweep") {
      NoWarpSweep = true;
      Sweep = true;
    } else if (A == "--warp-sweep-threshold") {
      const char *N = Next();
      if (!parseUInt64(N, SweepOpts.WarpSweepMinAccesses, UINT64_MAX)) {
        std::fprintf(stderr,
                     "error: --warp-sweep-threshold expects a "
                     "non-negative access count, got '%s'\n",
                     N);
        return 2;
      }
      Sweep = true;
    } else if (A == "--size") {
      if (!parseProblemSize(Next(), Size)) {
        std::fprintf(stderr, "error: unknown size\n");
        return 2;
      }
    } else if (A == "--param") {
      const char *P = Next();
      std::string ParamName;
      int64_t ParamVal = 0;
      if (!parseParamBinding(P, ParamName, ParamVal)) {
        std::fprintf(stderr,
                     "error: --param expects NAME=VALUE with an integer "
                     "value, got '%s'\n",
                     P);
        return 2;
      }
      Params[ParamName] = ParamVal;
    } else if (A == "--l1") {
      if (!parseCacheSpec(Next(), L1)) {
        std::fprintf(stderr, "error: bad --l1 spec\n");
        return 2;
      }
      HasL1 = true;
    } else if (A == "--l2") {
      if (!parseCacheSpec(Next(), L2)) {
        std::fprintf(stderr, "error: bad --l2 spec\n");
        return 2;
      }
      HasL2 = true;
    } else if (A == "--no-write-allocate") {
      L1.WriteAlloc = WriteAllocate::No;
      NoWriteAlloc = true;
    } else if (A == "--scalars") {
      Opts.IncludeScalars = true;
    } else if (A == "--no-warp") {
      Backend = SimBackend::Concrete;
      BackendSet = true;
    } else if (A == "--compare") {
      Compare = true;
    } else if (A == "--dump") {
      Dump = true;
    } else if (A == "--list") {
      for (const KernelInfo &K : polybenchKernels())
        std::printf("%-16s %s\n", K.Name, K.Category);
      return 0;
    } else if (A == "--help" || A == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", A.c_str());
      usage();
      return 2;
    }
  }

  if (Compare && BackendSet) {
    std::fprintf(stderr, "error: --compare always runs the warping vs "
                         "concrete pair; drop --backend / --no-warp\n");
    return 2;
  }
  if (Sweep && (Compare || All)) {
    std::fprintf(stderr, "error: --sweep takes a single program "
                         "(--kernel or --file) and no --compare\n");
    return 2;
  }
  if (Sweep && (HasL1 || HasL2 || NoWriteAlloc)) {
    std::fprintf(stderr,
                 "error: --sweep configures caches through --sweep-l1 / "
                 "--sweep-l2; drop --l1/--l2/--no-write-allocate\n");
    return 2;
  }
  if (static_cast<int>(!Kernel.empty()) + static_cast<int>(!File.empty()) +
          static_cast<int>(All) !=
      1) {
    std::fprintf(stderr,
                 "error: give exactly one of --kernel / --file / --all\n");
    usage();
    return 2;
  }

  if (Sweep) {
    // The sweep path is a thin adapter over the wcs-request API: flags
    // become a SweepRequest, and the SAME request type runs here or --
    // via --emit-request and wcs-serve --client -- in a daemon,
    // producing bit-identical counters either way.
    std::string Err;
    SweepRequest Req;
    if (!Kernel.empty()) {
      Req.Kernel = Kernel;
      Req.Size = Size;
    } else {
      std::ifstream In(File);
      if (!In) {
        std::fprintf(stderr, "error: cannot open '%s'\n", File.c_str());
        return 1;
      }
      std::ostringstream SS;
      SS << In.rdbuf();
      Req.Source = SS.str();
      Req.SourceName = File;
      Req.Params = Params;
    }
    if (!parseSweepLevelGrid(SweepL1Spec, Req.L1, &Err) ||
        (!SweepL2Spec.empty() &&
         !parseSweepLevelGrid(SweepL2Spec, Req.L2, &Err))) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 2;
    }
    Req.HasL2 = !SweepL2Spec.empty();
    Req.Options = SweepOpts;
    Req.Options.Sim = Opts;
    if (BackendSet)
      Req.Options.Backend = Backend;
    if (NoWarpSweep)
      Req.Options.WarpSweepMinAccesses = UINT64_MAX;
    // Meaningful when the request reaches a daemon (--emit-request +
    // wcs-serve --client); the in-process sweep below ignores it.
    Req.DeadlineSeconds = DeadlineSeconds;

    if (!EmitRequestPath.empty()) {
      PreparedSweep Prep; // Validate fully before emitting.
      if (!prepareSweep(Req, Prep, &Err)) {
        std::fprintf(stderr, "error: %s\n", Err.c_str());
        return 1;
      }
      if (!writeRequestFile(EmitRequestPath, Req, &Err)) {
        std::fprintf(stderr, "error: %s\n", Err.c_str());
        return 1;
      }
      std::fprintf(stderr,
                   "request  wrote %s (%zu grid points, hash %s)\n",
                   EmitRequestPath.c_str(), Prep.Configs.size(),
                   requestHash(Req).c_str());
      return 0;
    }

    PreparedSweep Prep;
    SweepReport Rep;
    if (!runSweepRequest(Req, Jobs, Prep, Rep, &Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
    if (Dump)
      std::printf("%s\n", Prep.Program.str().c_str());

    std::printf("program  %s  (%zu grid points)\n\n",
                Prep.Program.Name.c_str(), Prep.Configs.size());
    // Cap-demoted groups change a point's method from filtered-stream
    // to full simulation; surface that here, not just in the document.
    for (const std::string &L1Group : Rep.DemotedL1s)
      std::fprintf(stderr,
                   "warning: filtered-stream recording of L1 group %s "
                   "overran the stream cap%s; its grid points fell back "
                   "to full simulation (method \"simulated\")\n",
                   L1Group.c_str(),
                   Req.Options.MaxFilteredRecords
                       ? ""
                       : " (unexpectedly, with an unlimited cap)");
    std::printf("%-44s %-14s %14s %10s %11s\n", "config", "method",
                "misses", "ratio", "time[s]");
    for (const SweepPoint &Pt : Rep.Points) {
      if (!Pt.Ok) {
        std::printf("%-44s FAILED: %s\n", Pt.Cache.str().c_str(),
                    Pt.Error.c_str());
        continue;
      }
      uint64_t Misses = 0;
      for (unsigned L = 0; L < Pt.Stats.NumLevels; ++L)
        Misses += Pt.Stats.Level[L].Misses;
      std::printf("%-44s %-14s %14llu %9.3f%% %11.4f\n",
                  Pt.Cache.str().c_str(), sweepMethodName(Pt.Method),
                  static_cast<unsigned long long>(Misses),
                  100.0 * Pt.Stats.Level[0].missRatio(),
                  Pt.Stats.Seconds);
    }
    std::fprintf(stderr, "sweep    %s\n", Rep.summary().c_str());
    // Per-method breakdown: where the sweep's time actually went, so
    // speedup claims are auditable straight from the run. Rendered by
    // the same formatter wcs-report uses on the written document, so
    // run output and artifact rendering cannot drift.
    std::fprintf(stderr, "methods  %s\n", methodBreakdownLine(Rep).c_str());

    if (!SweepJsonPath.empty()) {
      Rep.Tool = "wcs-sim";
      Rep.Program = Req.programLabel();
      Rep.SizeName = Req.sizeLabel();
      if (!writeSweepFile(SweepJsonPath, Rep, &Err)) {
        std::fprintf(stderr, "error: %s\n", Err.c_str());
        return 1;
      }
      std::fprintf(stderr, "results  wrote %zu points to %s\n",
                   Rep.Points.size(), SweepJsonPath.c_str());
    }
    return Rep.allOk() ? 0 : 1;
  }

  // The work list: one or thirty programs, owned here and shared by the
  // jobs (stable addresses via reserve).
  std::vector<ScopProgram> Programs;
  if (All) {
    const std::vector<KernelInfo> &Kernels = polybenchKernels();
    Programs.reserve(Kernels.size());
    for (const KernelInfo &K : Kernels) {
      std::string Err;
      Programs.push_back(buildKernel(K, Size, &Err));
      if (!Err.empty()) {
        std::fprintf(stderr, "error: %s: %s\n", K.Name, Err.c_str());
        return 1;
      }
    }
  } else if (!Kernel.empty()) {
    std::string Err;
    Programs.push_back(buildKernel(Kernel, Size, &Err));
    if (!Err.empty()) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
  } else {
    std::ifstream In(File);
    if (!In) {
      std::fprintf(stderr, "error: cannot open '%s'\n", File.c_str());
      return 1;
    }
    std::ostringstream SS;
    SS << In.rdbuf();
    ParseResult PR = parseScop(SS.str(), Params, File);
    if (!PR.ok()) {
      std::fprintf(stderr, "%s: %s\n", File.c_str(),
                   PR.message().c_str());
      return 1;
    }
    Programs.push_back(std::move(PR.Program));
  }

  HierarchyConfig H = HasL2 ? HierarchyConfig::twoLevel(L1, L2)
                            : HierarchyConfig::singleLevel(L1);
  std::string CfgErr = H.validate();
  if (!CfgErr.empty()) {
    std::fprintf(stderr, "error: %s\n", CfgErr.c_str());
    return 2;
  }
  std::printf("cache    %s\n", H.str().c_str());

  // Per program: one job for the chosen backend, or a concrete + warping
  // pair under --compare.
  std::vector<BatchJob> Work;
  for (const ScopProgram &P : Programs) {
    if (Dump)
      std::printf("%s\n", P.str().c_str());
    BatchJob J;
    J.Program = &P;
    J.Cache = H;
    J.Options = Opts;
    J.Tag = P.Name;
    if (Compare) {
      // Distinct tags per backend: results files key on the tag, so the
      // two halves of a pair must not collide.
      J.Backend = SimBackend::Concrete;
      J.Tag = P.Name + std::string("/") + backendName(J.Backend);
      Work.push_back(J);
      J.Backend = SimBackend::Warping;
      J.Tag = P.Name + std::string("/") + backendName(J.Backend);
      Work.push_back(std::move(J));
    } else {
      J.Backend = Backend;
      Work.push_back(std::move(J));
    }
  }

  BatchRunner Runner(Jobs);
  BatchReport Rep = Runner.run(Work);

  bool AllMatch = true;
  for (size_t PI = 0; PI < Programs.size(); ++PI) {
    const size_t Base = Compare ? 2 * PI : PI;
    for (size_t J = Base; J < Base + (Compare ? 2u : 1u); ++J)
      if (!Rep.Results[J].Ok) {
        std::fprintf(stderr, "error: %s: %s\n", Rep.Results[J].Tag.c_str(),
                     Rep.Results[J].Error.c_str());
        return 1;
      }
    std::printf("\nprogram  %s\n", Programs[PI].Name.c_str());
    if (Compare) {
      const SimStats &R = Rep.Results[Base].Stats;
      const SimStats &W = Rep.Results[Base + 1].Stats;
      printStats("non-warping (Algorithm 1)", R);
      printStats("warping (Algorithm 2)", W);
      bool Ok = R.totalAccesses() == W.totalAccesses();
      for (unsigned L = 0; L < R.NumLevels; ++L)
        Ok = Ok && R.Level[L].Misses == W.Level[L].Misses;
      AllMatch = AllMatch && Ok;
      std::printf("%s  (speedup %.2fx)\n",
                  Ok ? "results MATCH" : "results DIFFER (bug!)",
                  R.Seconds / W.Seconds);
    } else {
      const char *Tag = Backend == SimBackend::Warping
                            ? "warping (Algorithm 2)"
                        : Backend == SimBackend::Concrete
                            ? "non-warping (Algorithm 1)"
                        : Backend == SimBackend::Trace
                            ? "trace-driven"
                            : "stack-distance (analytical LRU)";
      printStats(Tag, Rep.Results[Base].Stats);
    }
  }

  if (!JsonPath.empty()) {
    ResultsDoc Doc;
    Doc.Tool = "wcs-sim";
    Doc.SizeName = File.empty() ? problemSizeName(Size) : "";
    Doc.Threads = Rep.Threads;
    Doc.Entries = makeResultEntries(Work, Rep);
    std::string Err;
    if (!writeResultsFile(JsonPath, Doc, &Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
    std::fprintf(stderr, "results  wrote %zu entries to %s\n",
                 Doc.Entries.size(), JsonPath.c_str());
  }

  if (Work.size() > 1)
    std::fprintf(stderr, "batch    %s\n", Rep.summary().c_str());
  if (Compare && Rep.Threads > 1)
    std::fprintf(stderr,
                 "note     speedups measured with %u concurrent jobs "
                 "include contention; use --jobs 1 for clean timings\n",
                 Rep.Threads);
  return AllMatch ? 0 : 1;
}
