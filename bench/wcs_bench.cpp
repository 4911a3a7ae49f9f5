//===- bench/wcs_bench.cpp - The benchmark driver -------------------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
// Runs the experiments behind the paper's evaluation figures and writes
// every result -- wall time plus the full warp counters -- as one
// wcs-results JSON file (default BENCH_results.json). The file is the
// input to wcs-report, which diffs two runs and gates CI on counter
// drift and time regressions. The suites:
//
//   fig06        warping vs non-warping per replacement policy (scaled
//                L1); prints the no-warp floor ratio (concrete s /
//                warping s over the pairs that did 0 warps) and the pairs
//                won, and requires the ratio >= 0.7 in the CI gate
//                configuration
//   fig07        warping vs non-warping at the chosen size and the next
//                larger
//   fig07-sweep  single-pass capacity sweep (stack-distance fast path)
//                vs independent per-config warping runs
//   fig07-warp-sweep
//                the same capacity ladder through the warp-aware
//                periodic pass (trace/PeriodicPass, forced on): the
//                sweep must beat the SUM of independent warping runs
//                -- the crossover the linear pass loses at large
//                problem sizes -- while staying bit-identical per point
//   fig08        the stack-distance model (HayStack substitute) vs
//                warping on the fully-associative LRU twin of the scaled
//                L1, the only cache model HayStack supports
//   fig09        non-warping vs warping on PolyCache's evaluation
//                hierarchy, scaled: 4 KiB 4-way + 32 KiB 4-way LRU
//   fig09-hier   two-level NINE grid through the filtered-stream engine
//                (one recorded L1-miss stream per distinct L1; L2s
//                answered from conditioned stack-distance banks or
//                stream replays) vs independent per-point concrete runs
//   fig10        misses per policy relative to set-associative LRU,
//                printed from the fig06 and fig08 results (selecting
//                fig10 selects both)
//   fig11        L1-miss accuracy against a "measured" reference: Fig. 13
//                at --size small, Fig. 14 at medium, Fig. 11 at large
//                (selecting fig11 selects fig06 and fig08)
//   fig12        non-warping tree simulation vs trace-driven simulation
//                (LRU)
//   hotloop      end-to-end accesses-per-second of the concrete backend:
//                batched address generation + policy-templated SoA cache
//                vs the per-access reference walk (BatchConcrete off),
//                bit-identical counters enforced, >= 2x aggregate
//                throughput required in the CI gate configuration
//   ablation     the warping search's engineering bounds: one warping
//                run per WarpConfig row on four representative kernels,
//                each verified against one non-warping run
//
// Every verified pair (warping/concrete, stack-distance/warping,
// concrete/trace) must produce identical miss counters before the file
// is written, so a results file never contains an unsound speedup.
// wcs-report's drift gate compares each entry's per-level accesses and
// misses only. Warps and warped accesses are deterministic too, but a
// change in how much an entry (an ablation row, say) warps is printed as
// "N entries changed warp decisions (not gated)", never gated.
// The sweep suites additionally verify that every fast-path miss count
// equals its independently simulated twin, and abort unless the sweep
// beats the independent runs it replaces in aggregate: >= 3x for the
// fig07-sweep single pass, >= 2x for the fig09-hier filtered-stream
// engine, >= 1x -- strictly better than the runs it replaces -- for the
// fig07-warp-sweep periodic pass. Two more contracts guard the stepping
// floor: hotloop's batched walk >= 2x the scalar one, and fig06's
// no-warp floor ratio >= 0.7.
//
//   wcs-bench --size small --out BENCH_results.json
//   wcs-bench --suite fig06 --suite fig12 --jobs 4
//
//===----------------------------------------------------------------------===//

#include "wcs/driver/BatchRunner.h"
#include "wcs/driver/Results.h"
#include "wcs/driver/Sweep.h"
#include "wcs/polybench/Polybench.h"
#include "wcs/sim/ConcreteSimulator.h"
#include "wcs/support/Stats.h"
#include "wcs/support/StringUtil.h"
#include "wcs/support/Telemetry.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <iterator>
#include <map>
#include <string>
#include <utility>
#include <vector>

using namespace wcs;

namespace {

struct SuiteInfo {
  const char *Name;
  const char *Help;
};

/// Every suite, with its --help line. All of them run by default.
const SuiteInfo AllSuites[] = {
    {"fig06", "Fig. 6: warping vs non-warping per policy"},
    {"fig07", "Fig. 7: the same at --size and the next larger size"},
    {"fig07-sweep", "single-pass capacity sweep vs independent runs"},
    {"fig07-warp-sweep", "that ladder through the warp-aware periodic pass"},
    {"fig08", "Fig. 8: HayStack substitute vs warping, FA-LRU"},
    {"fig09", "Fig. 9: non-warping vs warping, PolyCache hierarchy"},
    {"fig09-hier", "two-level grids through the filtered-stream engine"},
    {"fig10", "Fig. 10: misses per policy (runs fig06 and fig08)"},
    {"fig11", "Figs. 11/13/14: accuracy (runs fig06 and fig08)"},
    {"fig12", "Fig. 12: tree vs trace-driven simulation"},
    {"hotloop", "concrete accesses/second, batched vs scalar"},
    {"ablation", "warping search bounds, one run per WarpConfig row"},
};

void usage() {
  std::fprintf(
      stderr,
      "usage: wcs-bench [options]\n"
      "  --size S         mini|small|medium|large|xlarge (default small)\n"
      "  --out FILE       results file to write (default "
      "BENCH_results.json)\n"
      "  --suite NAME     run this suite; repeatable (default: all):\n");
  for (const SuiteInfo &S : AllSuites)
    std::fprintf(stderr, "    %-17s %s\n", S.Name, S.Help);
  std::fprintf(
      stderr,
      "  --jobs N         worker threads (0 = all cores; default 1 for\n"
      "                   clean timings)\n"
      "  --reps N         time the main batch N times (default 1); every\n"
      "                   entry records its per-rep wall-time samples and\n"
      "                   reports their mean, so wcs-report --check can\n"
      "                   gate against measured noise instead of one draw\n"
      "  --trace-json FILE\n"
      "                   record spans and write a Chrome trace-event\n"
      "                   file on exit (NOT for gated timings: the\n"
      "                   tracer, while cheap, is not free)\n");
}

/// --trace-json sink, written via atexit so every exit path flushes.
std::string TraceJsonPath;

void writeTraceAtExit() {
  std::string Err;
  if (!telemetry::writeTraceFile(TraceJsonPath, &Err))
    std::fprintf(stderr, "error: %s\n", Err.c_str());
  else
    std::fprintf(stderr, "trace: wrote %s\n", TraceJsonPath.c_str());
}

/// Runs \p Jobs on exactly \p Threads workers, dies if any job failed,
/// and prints the batch throughput summary to stderr.
BatchReport runBatchOn(const std::vector<BatchJob> &Jobs, unsigned Threads) {
  BatchRunner Runner(Threads);
  BatchReport Rep = Runner.run(Jobs);
  for (const BatchResult &R : Rep.Results)
    if (!R.Ok) {
      std::fprintf(stderr, "fatal: job %zu (%s) failed: %s\n", R.JobIndex,
                   R.Tag.c_str(), R.Error.c_str());
      std::exit(1);
    }
  std::fprintf(stderr, "batch: %s\n", Rep.summary().c_str());
  return Rep;
}

/// Aborts the run if two simulations of one program disagree on any
/// level's accesses or misses: no unsound speedup is ever recorded.
void requireEqualMisses(const char *Kernel, const SimStats &A,
                        const SimStats &B) {
  bool Ok = A.totalAccesses() == B.totalAccesses();
  for (unsigned L = 0; Ok && L < A.NumLevels && L < B.NumLevels; ++L)
    Ok = A.Level[L].Misses == B.Level[L].Misses &&
         A.Level[L].Accesses == B.Level[L].Accesses;
  if (Ok)
    return;
  std::fprintf(stderr,
               "fatal: simulator disagreement on %s:\n  A: %s\n  B: %s\n",
               Kernel, A.str().c_str(), B.str().c_str());
  std::exit(1);
}

/// Builds each (kernel, size) program once; std::deque keeps addresses
/// stable while jobs accumulate pointers into it.
class ProgramPool {
public:
  const ScopProgram *get(const KernelInfo &K, ProblemSize S) {
    auto Key = std::make_pair(std::string(K.Name), S);
    auto It = Index.find(Key);
    if (It != Index.end())
      return &Programs[It->second];
    std::string Err;
    Programs.push_back(buildKernel(K, S, &Err));
    if (!Err.empty()) {
      std::fprintf(stderr, "fatal: cannot build %s at %s: %s\n", K.Name,
                   problemSizeName(S), Err.c_str());
      std::exit(1);
    }
    Index.emplace(std::move(Key), Programs.size() - 1);
    return &Programs.back();
  }

private:
  std::deque<ScopProgram> Programs;
  std::map<std::pair<std::string, ProblemSize>, size_t> Index;
};

/// A pair of job indices whose counters must agree, plus the kernel name
/// for diagnostics and the group it is summarized under (the suite, or
/// one ablation row).
struct VerifyPair {
  size_t Slow, Fast;
  const char *Kernel;
  std::string Group;
};

/// The ablation suite's rows: the match-distance cap, the probe window,
/// eager vs two-phase snapshots, and the profit guard. Every row is
/// exact by construction; what changes is how much gets warped and at
/// what overhead.
std::vector<std::pair<std::string, WarpConfig>> ablationRows() {
  std::vector<std::pair<std::string, WarpConfig>> Rows;
  Rows.emplace_back("defaults", WarpConfig());
  for (int64_t D : {8, 64, 512}) {
    WarpConfig W;
    W.MaxDelta = D;
    Rows.emplace_back("max-delta=" + std::to_string(D), W);
  }
  for (unsigned P : {64u, 512u, 4096u}) {
    WarpConfig W;
    W.MaxProbeIters = P;
    Rows.emplace_back("probe-window=" + std::to_string(P), W);
  }
  WarpConfig NoEager;
  NoEager.EagerSnapshotTripLimit = 0;
  Rows.emplace_back("no-eager-snapshots", NoEager);
  WarpConfig NoGuard;
  NoGuard.EnableProfitGuard = false;
  Rows.emplace_back("no-profit-guard", NoGuard);
  return Rows;
}

/// The capacity axis of the fig07-sweep suite: fully-associative LRU
/// (the HayStack cache model) from 512 B to 256 KiB, doubling -- ten
/// points, all answered from ONE stack-distance pass per kernel while
/// the independent baseline pays one warping simulation per point.
/// 256 KiB is the largest capacity whose fully-associative twin stays
/// within the 4096-way LRU limit at 64 B lines.
std::vector<uint64_t> sweepCapacities() {
  std::vector<uint64_t> Sizes;
  for (uint64_t S = 512; S <= 256 * 1024; S *= 2)
    Sizes.push_back(S);
  return Sizes;
}

std::string capacityName(uint64_t Bytes) {
  return Bytes % 1024 == 0 ? std::to_string(Bytes / 1024) + "K"
                           : std::to_string(Bytes) + "B";
}

CacheConfig sweepPointConfig(uint64_t Bytes) {
  CacheConfig C;
  C.SizeBytes = Bytes;
  C.BlockBytes = 64;
  C.Assoc = static_cast<unsigned>(Bytes / 64); // Fully associative.
  C.Policy = PolicyKind::Lru;
  return C;
}

ProblemSize nextLarger(ProblemSize S) {
  unsigned I = static_cast<unsigned>(S);
  return I + 1 < NumProblemSizes ? static_cast<ProblemSize>(I + 1) : S;
}

/// The fig09-hier grid: two L1 configurations (the scaled test-system
/// PLRU L1 and its LRU twin) crossed with a six-point L2 axis, all
/// NINE, so six L2 points share each recorded L1 stream. The LRU leg is
/// a capacity ladder at a FIXED set count (8K/4-way .. 64K/32-way, all
/// 32 sets): one conditioned stack-distance bank per L1 answers all
/// four associativities at once (Mattson's inclusion property over the
/// filtered stream). The two QLRU points exercise the replay path.
std::vector<HierarchyConfig> hierGrid() {
  std::vector<HierarchyConfig> Grid;
  CacheConfig L1s[2] = {CacheConfig::scaledL1(), CacheConfig::scaledL1()};
  L1s[1].Policy = PolicyKind::Lru;
  for (const CacheConfig &L1 : L1s) {
    for (unsigned Assoc : {4u, 8u, 16u, 32u}) {
      CacheConfig L2{static_cast<uint64_t>(Assoc) * 32 * 64, Assoc, 64,
                     PolicyKind::Lru, WriteAllocate::Yes};
      Grid.push_back(HierarchyConfig::twoLevel(L1, L2));
    }
    for (uint64_t L2Bytes : {8u * 1024, 32u * 1024}) {
      CacheConfig L2{L2Bytes, 16, 64, PolicyKind::QuadAgeLru,
                     WriteAllocate::Yes};
      Grid.push_back(HierarchyConfig::twoLevel(L1, L2));
    }
  }
  return Grid;
}

/// Compact per-point tag segment, e.g. "plru4K+qlru32K".
std::string hierPointTag(const HierarchyConfig &H) {
  return toLowerAscii(policyName(H.Levels[0].Policy)) +
         capacityName(H.Levels[0].SizeBytes) + "+" +
         toLowerAscii(policyName(H.Levels[1].Policy)) +
         capacityName(H.Levels[1].SizeBytes);
}

} // namespace

int main(int argc, char **argv) {
  ProblemSize Size = ProblemSize::Small;
  std::string OutPath = "BENCH_results.json";
  std::vector<std::string> Suites;
  unsigned Jobs = 1;
  unsigned Reps = 1;

  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto Next = [&]() -> const char * {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs an argument\n", A.c_str());
        std::exit(2);
      }
      return argv[++I];
    };
    if (A == "--size") {
      if (!parseProblemSize(Next(), Size)) {
        std::fprintf(stderr, "error: unknown size\n");
        return 2;
      }
    } else if (A == "--out") {
      OutPath = Next();
    } else if (A == "--suite") {
      std::string S = Next();
      if (std::none_of(std::begin(AllSuites), std::end(AllSuites),
                       [&](const SuiteInfo &I) { return S == I.Name; })) {
        std::fprintf(stderr, "error: unknown suite '%s'\n", S.c_str());
        return 2;
      }
      Suites.push_back(std::move(S));
    } else if (A == "--jobs") {
      const char *N = Next();
      if (!parseJobCount(N, Jobs)) {
        std::fprintf(stderr,
                     "error: --jobs expects a non-negative number, got "
                     "'%s'\n",
                     N);
        return 2;
      }
    } else if (A == "--reps") {
      const char *N = Next();
      if (!parseJobCount(N, Reps) || Reps == 0) {
        std::fprintf(stderr,
                     "error: --reps expects a positive number, got "
                     "'%s'\n",
                     N);
        return 2;
      }
    } else if (A == "--trace-json") {
      if (TraceJsonPath.empty()) {
        telemetry::enableTracing();
        std::atexit(writeTraceAtExit);
      }
      TraceJsonPath = Next();
    } else if (A == "--help" || A == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", A.c_str());
      usage();
      return 2;
    }
  }
  if (Suites.empty())
    for (const SuiteInfo &I : AllSuites)
      Suites.push_back(I.Name);
  auto HasSuite = [&](const char *Name) {
    return std::find(Suites.begin(), Suites.end(), Name) != Suites.end();
  };
  // fig10 and fig11 print tables from the fig06 and fig08 results.
  if (HasSuite("fig10") || HasSuite("fig11"))
    for (const char *Dep : {"fig06", "fig08"})
      if (!HasSuite(Dep))
        Suites.push_back(Dep);

  ProgramPool Pool;
  std::vector<BatchJob> Work;
  std::vector<VerifyPair> Pairs;
  const std::vector<KernelInfo> &Kernels = polybenchKernels();

  auto pushJob = [&](const KernelInfo &K, ProblemSize S,
                     const HierarchyConfig &H, SimBackend Backend,
                     std::string Tag, const SimOptions &Options = {}) {
    BatchJob J;
    J.Program = Pool.get(K, S);
    J.Cache = H;
    J.Options = Options;
    J.Backend = Backend;
    J.Tag = std::move(Tag);
    Work.push_back(std::move(J));
    return Work.size() - 1;
  };
  auto pushPair = [&](const char *Suite, const KernelInfo &K, ProblemSize S,
                      const HierarchyConfig &H, SimBackend SlowBackend,
                      SimBackend FastBackend, const std::string &TagPrefix) {
    size_t Slow = pushJob(K, S, H, SlowBackend,
                          TagPrefix + "/" + backendName(SlowBackend));
    size_t Fast = pushJob(K, S, H, FastBackend,
                          TagPrefix + "/" + backendName(FastBackend));
    Pairs.push_back(VerifyPair{Slow, Fast, K.Name, Suite});
  };

  if (HasSuite("fig06")) {
    const PolicyKind Policies[] = {PolicyKind::Lru, PolicyKind::Fifo,
                                   PolicyKind::Plru,
                                   PolicyKind::QuadAgeLru};
    for (const KernelInfo &K : Kernels)
      for (PolicyKind P : Policies) {
        CacheConfig C = CacheConfig::scaledL1();
        C.Policy = P;
        pushPair("fig06", K, Size, HierarchyConfig::singleLevel(C),
                 SimBackend::Concrete, SimBackend::Warping,
                 std::string("fig06/") + K.Name + "/" + policyName(P));
      }
  }
  if (HasSuite("fig07")) {
    HierarchyConfig H = HierarchyConfig::singleLevel(CacheConfig::scaledL1());
    ProblemSize Sizes[2] = {Size, nextLarger(Size)};
    unsigned NumSizes = Sizes[0] == Sizes[1] ? 1 : 2;
    for (const KernelInfo &K : Kernels)
      for (unsigned SI = 0; SI < NumSizes; ++SI)
        pushPair("fig07", K, Sizes[SI], H, SimBackend::Concrete,
                 SimBackend::Warping,
                 std::string("fig07/") + K.Name + "/" +
                     problemSizeName(Sizes[SI]));
  }
  // The sweep suites' independent baselines: one job per grid point,
  // riding in the main batch. The sweeps themselves run after the batch
  // (each is a single shared pass or recording, measured serially).
  struct SweepKernelRef {
    const char *Kernel;
    const ScopProgram *Program;
    size_t FirstJob; ///< Index of the kernel's first indep job in Work.
  };
  auto pushIndepJobs = [&](const char *Suite,
                           const std::vector<HierarchyConfig> &Grid,
                           SimBackend Backend, auto PointTag) {
    std::vector<SweepKernelRef> Refs;
    for (const KernelInfo &K : Kernels) {
      Refs.push_back(SweepKernelRef{K.Name, Pool.get(K, Size), Work.size()});
      for (const HierarchyConfig &H : Grid)
        pushJob(K, Size, H, Backend,
                std::string(Suite) + "/" + K.Name + "/" + PointTag(H) +
                    "/indep");
    }
    return Refs;
  };
  const std::vector<uint64_t> Caps = sweepCapacities();
  std::vector<HierarchyConfig> CapGrid;
  for (uint64_t Cap : Caps)
    CapGrid.push_back(HierarchyConfig::singleLevel(sweepPointConfig(Cap)));
  auto CapTag = [](const HierarchyConfig &H) {
    return capacityName(H.Levels[0].SizeBytes);
  };
  std::vector<SweepKernelRef> SweepKernels, WarpSweepKernels, HierKernels;
  if (HasSuite("fig07-sweep"))
    SweepKernels = pushIndepJobs("fig07-sweep", CapGrid,
                                 SimBackend::Warping, CapTag);
  // Its own tag namespace: the suite can run without fig07-sweep.
  if (HasSuite("fig07-warp-sweep"))
    WarpSweepKernels = pushIndepJobs("fig07-warp-sweep", CapGrid,
                                     SimBackend::Warping, CapTag);
  const std::vector<HierarchyConfig> HierGrid = hierGrid();
  if (HasSuite("fig09-hier"))
    HierKernels = pushIndepJobs("fig09-hier", HierGrid,
                                SimBackend::Concrete, hierPointTag);

  if (HasSuite("fig12")) {
    CacheConfig C = CacheConfig::scaledL1();
    C.Policy = PolicyKind::Lru; // Trace simulators model LRU, not PLRU.
    HierarchyConfig H = HierarchyConfig::singleLevel(C);
    for (const KernelInfo &K : Kernels)
      pushPair("fig12", K, Size, H, SimBackend::Trace, SimBackend::Concrete,
               std::string("fig12/") + K.Name);
  }

  // HayStack itself is replaced by the exact stack-distance model, which
  // computes the same quantity (fully-associative LRU misses from reuse
  // distances), so miss counts pair one-to-one. Runtimes carry a caveat:
  // the substitute walks the trace, whereas HayStack is analytical and
  // largely size-independent, so only the "warping wins on stencils"
  // half of the paper's Fig. 8 shape transfers.
  if (HasSuite("fig08")) {
    CacheConfig FA = CacheConfig::scaledL1();
    FA.Assoc = FA.numLines();
    FA.Policy = PolicyKind::Lru;
    for (const KernelInfo &K : Kernels)
      pushPair("fig08", K, Size, HierarchyConfig::singleLevel(FA),
               SimBackend::StackDistance, SimBackend::Warping,
               std::string("fig08/") + K.Name);
  }
  // PolyCache has no replication package, so Fig. 9 reports the side
  // this repo controls: warping vs non-warping on PolyCache's cache
  // configuration, plus per-level misses.
  if (HasSuite("fig09")) {
    HierarchyConfig H = HierarchyConfig::twoLevel(
        CacheConfig{4 * 1024, 4, 64, PolicyKind::Lru, WriteAllocate::Yes},
        CacheConfig{32 * 1024, 4, 64, PolicyKind::Lru, WriteAllocate::Yes});
    for (const KernelInfo &K : Kernels)
      pushPair("fig09", K, Size, H, SimBackend::Concrete, SimBackend::Warping,
               std::string("fig09/") + K.Name);
  }
  // Hardware measurements are replaced by a reference that includes what
  // the simpler models omit -- scalar accesses -- on the scaled test
  // system with its true policies (PLRU L1, QLRU L2). The Dinero IV
  // substitute is trace-driven with scalars but has no PLRU, so it runs
  // the all-LRU twin. The warping (exact PLRU, arrays only) and HayStack
  // (fully-associative LRU) columns are the fig06 PLRU and fig08 runs: a
  // NINE L1 does not depend on its L2.
  if (HasSuite("fig11")) {
    HierarchyConfig Measured = HierarchyConfig::twoLevel(
        CacheConfig::scaledL1(), CacheConfig::scaledL2());
    HierarchyConfig Dinero = Measured;
    for (CacheConfig &C : Dinero.Levels)
      C.Policy = PolicyKind::Lru;
    SimOptions Scalars;
    Scalars.IncludeScalars = true;
    for (const KernelInfo &K : Kernels) {
      pushJob(K, Size, Measured, SimBackend::Trace,
              std::string("fig11/") + K.Name + "/measured", Scalars);
      pushJob(K, Size, Dinero, SimBackend::Trace,
              std::string("fig11/") + K.Name + "/dinero", Scalars);
    }
  }
  if (HasSuite("ablation")) {
    HierarchyConfig H = HierarchyConfig::singleLevel(CacheConfig::scaledL1());
    for (const char *Name : {"jacobi-2d", "adi", "atax", "gemm"}) {
      const KernelInfo &K = *findKernel(Name);
      std::string Prefix = std::string("ablation/") + Name + "/";
      size_t Ref = pushJob(K, Size, H, SimBackend::Concrete,
                           Prefix + "concrete");
      for (const auto &[Row, W] : ablationRows()) {
        SimOptions O;
        O.Warp = W;
        size_t Warp = pushJob(K, Size, H, SimBackend::Warping,
                              Prefix + Row + "/warping", O);
        Pairs.push_back(VerifyPair{Ref, Warp, K.Name, "ablation " + Row});
      }
    }
  }

  std::fprintf(stderr, "wcs-bench: %zu jobs (%zu verified pairs), size %s\n",
               Work.size(), Pairs.size(), problemSizeName(Size));
  BatchReport Rep = runBatchOn(Work, Jobs);

  // Soundness first: a results file must never record a speedup obtained
  // from diverging counters.
  for (const VerifyPair &P : Pairs)
    requireEqualMisses(P.Kernel, Rep.Results[P.Slow].Stats,
                       Rep.Results[P.Fast].Stats);

  // --reps: re-time the whole batch so every entry carries a wall-time
  // sample distribution (wcs-report's noise-aware gate needs more than
  // one draw to estimate anything). Counters must not move between
  // repetitions -- a drift here is a determinism bug, not noise.
  std::vector<std::vector<double>> BatchSamples(Work.size());
  for (size_t J = 0; J < Work.size(); ++J)
    BatchSamples[J].push_back(Rep.Results[J].Stats.Seconds);
  for (unsigned R = 1; R < Reps; ++R) {
    std::fprintf(stderr, "wcs-bench: timing rep %u/%u\n", R + 1, Reps);
    BatchReport Again = runBatchOn(Work, Jobs);
    for (size_t J = 0; J < Work.size(); ++J) {
      requireEqualMisses(Work[J].Tag.c_str(), Rep.Results[J].Stats,
                         Again.Results[J].Stats);
      BatchSamples[J].push_back(Again.Results[J].Stats.Seconds);
    }
  }

  // The sweep suite: per kernel, answer all capacity points from one
  // stack-distance pass, verify bit-identity against the independent
  // runs, and enforce the subsystem's >= 3x aggregate-speedup contract.
  std::vector<ResultEntry> SweepEntries;
  if (!SweepKernels.empty()) {
    double IndepTotal = 0.0, SweepTotal = 0.0;
    GeoMean PerKernel;
    for (const SweepKernelRef &SK : SweepKernels) {
      SweepOptions SO;
      SO.Threads = 1;
      SweepReport SRep = runSweep(*SK.Program, CapGrid, SO);
      double Indep = 0.0;
      for (size_t CI = 0; CI < Caps.size(); ++CI) {
        const SweepPoint &Pt = SRep.Points[CI];
        if (!Pt.Ok) {
          std::fprintf(stderr, "fatal: sweep point %s of %s failed: %s\n",
                       Pt.Cache.str().c_str(), SK.Kernel,
                       Pt.Error.c_str());
          return 1;
        }
        const BatchResult &IR = Rep.Results[SK.FirstJob + CI];
        // Soundness: the analytical fast path must agree with the
        // simulation it replaces, point for point.
        requireEqualMisses(SK.Kernel, IR.Stats, Pt.Stats);
        Indep += IR.Stats.Seconds;
        ResultEntry E;
        E.Tag = std::string("fig07-sweep/") + SK.Kernel + "/" +
                capacityName(Caps[CI]) + "/sweep";
        E.Backend = SimBackend::StackDistance;
        E.Cache = Pt.Cache;
        E.Ok = true;
        E.Stats = Pt.Stats;
        SweepEntries.push_back(std::move(E));
      }
      IndepTotal += Indep;
      SweepTotal += SRep.WallSeconds;
      if (SRep.WallSeconds > 0)
        PerKernel.add(Indep / SRep.WallSeconds);
    }
    double Aggregate = SweepTotal > 0 ? IndepTotal / SweepTotal : 0.0;
    std::printf("fig07-sweep: %zu kernels x %zu capacities, aggregate "
                "sweep speedup %.2fx (per-kernel geomean %.2fx)\n",
                SweepKernels.size(), Caps.size(), Aggregate,
                PerKernel.count() ? PerKernel.value() : 0.0);
    // The 3x contract is defined for the configuration the CI gate
    // runs: serial jobs (--jobs 1, so the independent runs are timed
    // without contention) at the gate sizes (measured: ~17x at small,
    // ~10x at medium). At large sizes warping's cost shrinks with
    // regularity while the shared pass stays linear in trace length,
    // and under --jobs N the independent jobs time each other; in both
    // cases the number is reported but not enforced (see ROADMAP:
    // warp-aware sweeping).
    if (Jobs != 1) // 0 = all cores, also contended.
      std::printf("fig07-sweep: speedup not enforced (independent runs "
                  "timed under --jobs %u contention)\n",
                  Jobs);
    if (Jobs == 1 && Size <= ProblemSize::Medium && Aggregate < 3.0) {
      std::fprintf(stderr,
                   "fatal: fig07-sweep aggregate speedup %.2fx is below "
                   "the 3x single-pass contract (%zu capacity points "
                   "per pass)\n",
                   Aggregate, Caps.size());
      return 1;
    }
  }

  // The warp-aware sweep suite: the same capacity ladder, answered by
  // the periodic pass (forced on, so CI exercises the warp-scaled
  // histogram machinery at every size). The contract inverts the
  // crossover the linear pass loses: ONE warping depth-profile run at
  // the ladder's largest associativity must undercut the SUM of the
  // independent warping runs it replaces -- which it does structurally,
  // since that sum contains the same largest-associativity run plus
  // nine cheaper ones -- while every point stays bit-identical.
  if (!WarpSweepKernels.empty()) {
    double IndepTotal = 0.0, SweepTotal = 0.0;
    GeoMean PerKernel;
    uint64_t Warps = 0;
    for (const SweepKernelRef &SK : WarpSweepKernels) {
      SweepOptions SO;
      SO.Threads = 1;
      SO.WarpSweepMinAccesses = 0; // Force the periodic flavor.
      SweepReport SRep = runSweep(*SK.Program, CapGrid, SO);
      if (!SRep.PeriodicPass) {
        std::fprintf(stderr,
                     "fatal: fig07-warp-sweep of %s did not take the "
                     "periodic pass\n",
                     SK.Kernel);
        return 1;
      }
      Warps += SRep.PeriodicWarps;
      double Indep = 0.0;
      for (size_t CI = 0; CI < Caps.size(); ++CI) {
        const SweepPoint &Pt = SRep.Points[CI];
        if (!Pt.Ok) {
          std::fprintf(stderr,
                       "fatal: warp-sweep point %s of %s failed: %s\n",
                       Pt.Cache.str().c_str(), SK.Kernel,
                       Pt.Error.c_str());
          return 1;
        }
        const BatchResult &IR = Rep.Results[SK.FirstJob + CI];
        // Soundness: the warp-scaled histogram must agree with the
        // simulation it replaces, point for point.
        requireEqualMisses(SK.Kernel, IR.Stats, Pt.Stats);
        Indep += IR.Stats.Seconds;
        ResultEntry E;
        E.Tag = std::string("fig07-warp-sweep/") + SK.Kernel + "/" +
                capacityName(Caps[CI]) + "/sweep";
        E.Backend = SimBackend::StackDistance;
        E.Cache = Pt.Cache;
        E.Ok = true;
        E.Stats = Pt.Stats;
        SweepEntries.push_back(std::move(E));
      }
      IndepTotal += Indep;
      SweepTotal += SRep.WallSeconds;
      if (SRep.WallSeconds > 0)
        PerKernel.add(Indep / SRep.WallSeconds);
    }
    double Aggregate = SweepTotal > 0 ? IndepTotal / SweepTotal : 0.0;
    std::printf("fig07-warp-sweep: %zu kernels x %zu capacities, "
                "aggregate periodic-pass speedup %.2fx (per-kernel "
                "geomean %.2fx, %llu warps)\n",
                WarpSweepKernels.size(), Caps.size(), Aggregate,
                PerKernel.count() ? PerKernel.value() : 0.0,
                static_cast<unsigned long long>(Warps));
    // The contract: the sweep must beat the independent runs it
    // replaces. Enforced in the CI gate's configuration (serial jobs,
    // gate sizes); elsewhere reported only, like the other suites.
    if (Jobs != 1)
      std::printf("fig07-warp-sweep: speedup not enforced (independent "
                  "runs timed under --jobs %u contention)\n",
                  Jobs);
    if (Jobs == 1 && Size <= ProblemSize::Medium && Aggregate < 1.0) {
      std::fprintf(stderr,
                   "fatal: fig07-warp-sweep aggregate speedup %.2fx "
                   "fails the >= 1x periodic-pass contract (the sweep "
                   "must beat the %zu warping runs it replaces)\n",
                   Aggregate, Caps.size());
      return 1;
    }
  }

  // The hierarchy suite: per kernel, run the two-level NINE grid
  // through the filtered-stream engine, verify bit-identity against the
  // independent concrete runs, and enforce the engine's >= 2x
  // aggregate-speedup contract (ISSUE 4): the grid shares each L1's
  // recorded stream across four L2 points, so the engine pays two L1
  // simulations plus cheap bank/replay work where the baseline pays
  // eight full two-level simulations.
  if (!HierKernels.empty()) {
    // The speedup contract -- and the demand that every point actually
    // ride the engine -- applies in the CI gate's configuration:
    // serial jobs at the gate sizes. At larger sizes a recording may
    // legitimately overrun the stream-memory cap and demote its group
    // to plain simulation; that is the engine's designed fallback, so
    // it is counted and reported, not fatal.
    const bool Enforced = Jobs == 1 && Size <= ProblemSize::Medium;
    double IndepTotal = 0.0, SweepTotal = 0.0;
    GeoMean PerKernel;
    size_t Demoted = 0;
    for (const SweepKernelRef &HK : HierKernels) {
      SweepOptions SO;
      SO.Threads = 1;
      SweepReport SRep = runSweep(*HK.Program, HierGrid, SO);
      double Indep = 0.0;
      for (size_t PI = 0; PI < HierGrid.size(); ++PI) {
        const SweepPoint &Pt = SRep.Points[PI];
        if (!Pt.Ok) {
          std::fprintf(stderr, "fatal: hier point %s of %s failed: %s\n",
                       Pt.Cache.str().c_str(), HK.Kernel,
                       Pt.Error.c_str());
          return 1;
        }
        if (Pt.Method != SweepMethod::FilteredStream) {
          if (Enforced) {
            std::fprintf(stderr,
                         "fatal: hier point %s of %s took method %s, "
                         "not the filtered-stream engine\n",
                         Pt.Cache.str().c_str(), HK.Kernel,
                         sweepMethodName(Pt.Method));
            return 1;
          }
          ++Demoted;
        }
        const BatchResult &IR = Rep.Results[HK.FirstJob + PI];
        // Soundness: the engine must agree with the full simulation it
        // replaces, point for point.
        requireEqualMisses(HK.Kernel, IR.Stats, Pt.Stats);
        Indep += IR.Stats.Seconds;
        ResultEntry E;
        E.Tag = std::string("fig09-hier/") + HK.Kernel + "/" +
                hierPointTag(Pt.Cache) + "/sweep";
        E.Backend = Pt.Backend;
        E.Cache = Pt.Cache;
        E.Ok = true;
        E.Stats = Pt.Stats;
        SweepEntries.push_back(std::move(E));
      }
      IndepTotal += Indep;
      SweepTotal += SRep.WallSeconds;
      if (SRep.WallSeconds > 0)
        PerKernel.add(Indep / SRep.WallSeconds);
    }
    double Aggregate = SweepTotal > 0 ? IndepTotal / SweepTotal : 0.0;
    std::printf("fig09-hier: %zu kernels x %zu grid points, aggregate "
                "filtered-stream speedup %.2fx (per-kernel geomean "
                "%.2fx)\n",
                HierKernels.size(), HierGrid.size(), Aggregate,
                PerKernel.count() ? PerKernel.value() : 0.0);
    if (Demoted)
      std::printf("fig09-hier: %zu point(s) fell back to full "
                  "simulation (stream cap); counters still verified\n",
                  Demoted);
    // Like fig07-sweep, the contract is defined for the CI gate's
    // configuration: serial jobs (the baseline timed without
    // contention) at the gate sizes. Elsewhere the number is reported
    // but not enforced.
    if (Jobs != 1)
      std::printf("fig09-hier: speedup not enforced (independent runs "
                  "timed under --jobs %u contention)\n",
                  Jobs);
    if (Enforced && Aggregate < 2.0) {
      std::fprintf(stderr,
                   "fatal: fig09-hier aggregate speedup %.2fx is below "
                   "the 2x filtered-stream contract (%zu-point L1-shared "
                   "grid)\n",
                   Aggregate, HierGrid.size());
      return 1;
    }
  }

  // The hot-loop suite: end-to-end accesses-per-second of the concrete
  // backend, batched (BatchConcrete on: stride-generated address chunks
  // through the policy-templated SoA cache) against the per-access
  // reference walk (BatchConcrete off). Both runs are timed serially and
  // verified bit-identical; the overhaul's >= 2x throughput contract is
  // enforced in the CI gate configuration (serial jobs, gate sizes).
  // All four policies of the scaled L1 are covered, same as fig06: LRU
  // exercises the recency memmove, the fixed-way policies the mask scan
  // and metadata updates.
  if (HasSuite("hotloop")) {
    double ScalarSeconds = 0.0, BatchSeconds = 0.0;
    uint64_t ScalarAccesses = 0, BatchAccesses = 0, BatchSkipped = 0;
    telemetry::Counter &Skipped =
        telemetry::registry().counter("sim.skipped_accesses");
    std::vector<ResultEntry> HotEntries;
    const PolicyKind HotPolicies[] = {PolicyKind::Lru, PolicyKind::Fifo,
                                      PolicyKind::Plru,
                                      PolicyKind::QuadAgeLru};
    for (const KernelInfo &K : Kernels) {
      const ScopProgram *P = Pool.get(K, Size);
      for (PolicyKind Pol : HotPolicies) {
        CacheConfig C = CacheConfig::scaledL1();
        C.Policy = Pol;
        HierarchyConfig H = HierarchyConfig::singleLevel(C);
        SimOptions ScalarOpts;
        ScalarOpts.BatchConcrete = false;
        SimStats A = ConcreteSimulator(*P, H, ScalarOpts).run();
        uint64_t SkippedBefore = Skipped.value();
        SimStats B = ConcreteSimulator(*P, H).run();
        BatchSkipped += Skipped.value() - SkippedBefore;
        requireEqualMisses(K.Name, A, B);
        ScalarSeconds += A.Seconds;
        BatchSeconds += B.Seconds;
        ScalarAccesses += A.SimulatedAccesses;
        BatchAccesses += B.SimulatedAccesses;
        std::string Prefix = std::string("hotloop/") + K.Name + "/" +
                             toLowerAscii(policyName(Pol)) + "/";
        ResultEntry E;
        E.Backend = SimBackend::Concrete;
        E.Cache = H;
        E.Ok = true;
        E.Tag = Prefix + "scalar";
        E.Stats = A;
        HotEntries.push_back(E);
        E.Tag = Prefix + "batched";
        E.Stats = B;
        HotEntries.push_back(std::move(E));
      }
    }
    double ScalarAps =
        ScalarSeconds > 0 ? ScalarAccesses / ScalarSeconds : 0.0;
    double BatchAps = BatchSeconds > 0 ? BatchAccesses / BatchSeconds : 0.0;
    double Speedup = ScalarAps > 0 ? BatchAps / ScalarAps : 0.0;
    std::printf("hotloop: %zu kernels x %zu policies, %.1fM -> %.1fM "
                "accesses/s (%.2fx batched speedup, %.1f%% of batched "
                "accesses skipped)\n",
                Kernels.size(), std::size(HotPolicies), ScalarAps / 1e6,
                BatchAps / 1e6, Speedup,
                BatchAccesses > 0 ? 100.0 * BatchSkipped / BatchAccesses
                                  : 0.0);
    if (Jobs == 1 && Size <= ProblemSize::Medium && Speedup < 2.0) {
      std::fprintf(stderr,
                   "fatal: hotloop batched throughput %.2fx is below the "
                   "2x hot-loop overhaul contract\n",
                   Speedup);
      return 1;
    }
    SweepEntries.insert(SweepEntries.end(),
                        std::make_move_iterator(HotEntries.begin()),
                        std::make_move_iterator(HotEntries.end()));
  }

  // Per-group geomean of slow/fast time ratios and the fast side's warps
  // (the headline numbers): one line per suite and per ablation row.
  struct GroupSummary {
    GeoMean Speedup;
    uint64_t Warps = 0;
  };
  std::vector<std::string> Groups; // First-seen order.
  std::map<std::string, GroupSummary> ByGroup;
  for (const VerifyPair &P : Pairs) {
    auto [It, New] = ByGroup.try_emplace(P.Group);
    if (New)
      Groups.push_back(P.Group);
    const SimStats &Fast = Rep.Results[P.Fast].Stats;
    if (Fast.Seconds > 0)
      It->second.Speedup.add(Rep.Results[P.Slow].Stats.Seconds /
                             Fast.Seconds);
    It->second.Warps += Fast.Warps;
  }
  for (const std::string &G : Groups) {
    const GroupSummary &S = ByGroup[G];
    std::printf("%s: %u pairs, geomean speedup %.2fx, %llu warps\n",
                G.c_str(), S.Speedup.count(), S.Speedup.value(),
                static_cast<unsigned long long>(S.Warps));
  }

  // The Fig. 6 premise: where warping cannot warp, it costs about what
  // ordinary simulation costs. The no-warp floor ratio is sum(concrete s)
  // / sum(warping s) over the pairs whose warping job did 0 warps (each
  // job's mean over the reps); >= 0.7 is enforced in the CI gate
  // configuration (serial jobs, gate sizes), like the other contracts.
  if (HasSuite("fig06")) {
    auto MeanSeconds = [&](size_t J) {
      MeanStddev MS;
      for (double S : BatchSamples[J])
        MS.add(S);
      return MS.mean();
    };
    double FloorConcrete = 0.0, FloorWarping = 0.0;
    unsigned NoWarpPairs = 0, Won = 0, Fig06Pairs = 0;
    for (const VerifyPair &P : Pairs) {
      if (P.Group != "fig06")
        continue;
      ++Fig06Pairs;
      double Concrete = MeanSeconds(P.Slow), Warping = MeanSeconds(P.Fast);
      if (Warping < Concrete)
        ++Won;
      if (Rep.Results[P.Fast].Stats.Warps != 0)
        continue;
      ++NoWarpPairs;
      FloorConcrete += Concrete;
      FloorWarping += Warping;
    }
    double Floor = FloorWarping > 0 ? FloorConcrete / FloorWarping : 0.0;
    std::printf("fig06: no-warp floor ratio %.2f over %u pairs with 0 "
                "warps, warping won %u of %u pairs\n",
                Floor, NoWarpPairs, Won, Fig06Pairs);
    if (Jobs == 1 && Size <= ProblemSize::Medium && NoWarpPairs != 0 &&
        Floor < 0.7) {
      std::fprintf(stderr,
                   "fatal: fig06 no-warp floor ratio %.2f is below the "
                   "0.7 warping-floor contract (%u pairs with 0 warps)\n",
                   Floor, NoWarpPairs);
      return 1;
    }
  }

  // fig10 and fig11 are tables over other suites' L1 misses, by tag.
  std::map<std::string, uint64_t> L1Misses;
  for (size_t J = 0; J < Work.size(); ++J)
    L1Misses[Work[J].Tag] = Rep.Results[J].Stats.Level[0].Misses;
  auto Misses = [&](const char *Suite, const KernelInfo &K,
                    const char *Rest) {
    return L1Misses.at(std::string(Suite) + "/" + K.Name + "/" + Rest);
  };
  if (HasSuite("fig10")) {
    std::printf("\nfig10: misses(policy) / misses(set-associative LRU), "
                "%s\n%-15s %12s | %8s %8s %8s %8s\n",
                CacheConfig::scaledL1().str().c_str(), "kernel",
                "LRU misses", "FA-LRU", "PLRU", "QLRU", "FIFO");
    for (const KernelInfo &K : Kernels) {
      uint64_t Lru = Misses("fig06", K, "LRU/warping");
      auto Ratio = [&](uint64_t M) { return double(M) / double(Lru); };
      std::printf("%-15s %12llu | %8.3f %8.3f %8.3f %8.3f\n", K.Name,
                  static_cast<unsigned long long>(Lru),
                  Ratio(Misses("fig08", K, "warping")),
                  Ratio(Misses("fig06", K, "PLRU/warping")),
                  Ratio(Misses("fig06", K, "QLRU/warping")),
                  Ratio(Misses("fig06", K, "FIFO/warping")));
    }
  }
  if (HasSuite("fig11")) {
    std::printf("\nfig11: L1 misses vs the measured reference, size %s "
                "(Fig. 13 at SMALL, 14 at MEDIUM, 11 at LARGE)\n"
                "%-15s %11s | %21s | %21s | %21s\n",
                problemSizeName(Size), "kernel", "measured",
                "DineroIV-sub (rel%)", "Warping (rel%)",
                "HayStack-sub (rel%)");
    for (const KernelInfo &K : Kernels) {
      uint64_t Measured = Misses("fig11", K, "measured");
      uint64_t Cols[] = {Misses("fig11", K, "dinero"),
                         Misses("fig06", K, "PLRU/warping"),
                         Misses("fig08", K, "warping")};
      std::printf("%-15s %11llu", K.Name,
                  static_cast<unsigned long long>(Measured));
      for (uint64_t V : Cols)
        std::printf(" | %12llu %7.2f", static_cast<unsigned long long>(V),
                    Measured == 0 ? 0.0
                                  : 100.0 * (double(V) - double(Measured)) /
                                        double(Measured));
      std::printf("\n");
    }
  }

  ResultsDoc Doc;
  Doc.Tool = "wcs-bench";
  Doc.SizeName = problemSizeName(Size);
  Doc.Threads = Rep.Threads;
  Doc.Entries = makeResultEntries(Work, Rep);
  // Multi-rep entries report the mean of their samples as the headline
  // wall time (pre-reps readers keep working) and carry the raw samples
  // for the noise-aware gate. The post-batch suites (sweeps, hotloop)
  // time serially once and stay single-sample.
  if (Reps > 1)
    for (size_t J = 0; J < Work.size(); ++J) {
      MeanStddev MS;
      for (double S : BatchSamples[J])
        MS.add(S);
      Doc.Entries[J].Samples = std::move(BatchSamples[J]);
      Doc.Entries[J].Stats.Seconds = MS.mean();
    }
  Doc.Entries.insert(Doc.Entries.end(),
                     std::make_move_iterator(SweepEntries.begin()),
                     std::make_move_iterator(SweepEntries.end()));
  std::string Err;
  if (!writeResultsFile(OutPath, Doc, &Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  std::printf("wrote %zu entries to %s\n", Doc.Entries.size(),
              OutPath.c_str());
  return 0;
}
