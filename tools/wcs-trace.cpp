//===- tools/wcs-trace.cpp - Trace export and locality profiles -----------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
// Companion tool to wcs-sim: exports the memory trace of a polyhedral
// program in Dinero "din" format (so the reproduction can be cross-
// checked against an actual Dinero IV installation), prints the exact
// stack-distance histogram and the resulting miss-ratio curve for
// fully-associative LRU caches (the stack histograms of Mattson et al.
// that the paper's related-work section discusses), or dumps the
// L1-miss-filtered stream of a given L1 configuration -- the exact
// access stream a NINE L2 sees, and the recording the sweep driver's
// multi-level fast path shares across grid points.
//
//   wcs-trace --kernel jacobi-1d --size mini --din > trace.din
//   wcs-trace --kernel gemm --size small --curve
//   wcs-trace --file mykernel.c --param N=512 --histogram
//   wcs-trace --kernel gemm --size mini --filtered 4096,8,plru
//
//===----------------------------------------------------------------------===//

#include "wcs/driver/SpecParse.h"
#include "wcs/frontend/Frontend.h"
#include "wcs/polybench/Polybench.h"
#include "wcs/support/StringUtil.h"
#include "wcs/trace/FilteredStream.h"
#include "wcs/trace/StackDistance.h"
#include "wcs/trace/TraceGenerator.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

using namespace wcs;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: wcs-trace [options] <mode>\n"
      "  --kernel NAME | --file PATH   program selection (see wcs-sim)\n"
      "  --size S / --param NAME=VALUE\n"
      "  --scalars                     include scalar accesses\n"
      "modes:\n"
      "  --din             emit the trace in Dinero IV 'din' format\n"
      "  --histogram       print the exact stack-distance histogram\n"
      "  --curve           print the fully-associative LRU miss-ratio "
      "curve\n"
      "  --filtered L1CFG  emit the L1-miss-filtered stream (din format,\n"
      "                    block-aligned addresses) of the L1 config\n"
      "                    BYTES,ASSOC,POLICY -- what a NINE L2 sees\n");
}


} // namespace

int main(int argc, char **argv) {
  std::string Kernel, File, Mode;
  ProblemSize Size = ProblemSize::Mini;
  std::map<std::string, int64_t> Params;
  TraceOptions TO;
  CacheConfig FilterL1;

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
    } else if (A == "--file") {
      File = Next();
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
    } else if (A == "--scalars") {
      TO.IncludeScalars = true;
    } else if (A == "--din" || A == "--histogram" || A == "--curve") {
      Mode = A;
    } else if (A == "--filtered") {
      const char *Spec = Next();
      if (!parseCacheSpec(Spec, FilterL1)) {
        std::fprintf(stderr,
                     "error: --filtered expects BYTES,ASSOC,POLICY, got "
                     "'%s'\n",
                     Spec);
        return 2;
      }
      std::string CfgErr = FilterL1.validate();
      if (!CfgErr.empty()) {
        std::fprintf(stderr, "error: --filtered %s: %s\n", Spec,
                     CfgErr.c_str());
        return 2;
      }
      Mode = A;
    } else if (A == "--help" || A == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", A.c_str());
      usage();
      return 2;
    }
  }
  if (Mode.empty() || Kernel.empty() == File.empty()) {
    usage();
    return 2;
  }

  ScopProgram P;
  if (!Kernel.empty()) {
    std::string Err;
    P = buildKernel(Kernel, Size, &Err);
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
      std::fprintf(stderr, "%s: %s\n", File.c_str(), PR.message().c_str());
      return 1;
    }
    P = std::move(PR.Program);
  }

  if (Mode == "--filtered") {
    // One concrete L1 simulation, dumping the misses: the din-format
    // stream a NINE L2 of this L1 would see. Addresses are block
    // starts (the filter works at block granularity).
    SimOptions SO;
    SO.IncludeScalars = TO.IncludeScalars;
    FilteredStream FS = FilteredStream::record(P, FilterL1, SO);
    std::printf("# %s: L1-filtered stream of %s\n", P.Name.c_str(),
                FilterL1.str().c_str());
    std::printf("# accesses=%llu l1-misses=%llu (%.3f%%)\n",
                static_cast<unsigned long long>(FS.l1Accesses()),
                static_cast<unsigned long long>(FS.l1Misses()),
                100.0 * FS.l1Stats().missRatio());
    unsigned Shift = 0;
    while ((1u << Shift) < FilterL1.BlockBytes)
      ++Shift;
    FS.forEachRecord([&](const FilteredRecord &R) {
      std::printf("%d %llx\n", R.isWrite() ? 1 : 0,
                  static_cast<unsigned long long>(
                      static_cast<uint64_t>(R.block()) << Shift));
    });
    return 0;
  }

  if (Mode == "--din") {
    // Dinero IV din format: "<label> <hex address>" per line, label 0 =
    // read, 1 = write.
    generateTrace(P, TO, [](const TraceRecord &R) {
      std::printf("%d %llx\n", R.IsWrite ? 1 : 0,
                  static_cast<unsigned long long>(R.Addr));
    });
    return 0;
  }

  StackDistanceProfiler Prof = profileProgram(P, 64, TO.IncludeScalars);

  if (Mode == "--histogram") {
    std::printf("# %s: %llu accesses, %llu cold\n", P.Name.c_str(),
                static_cast<unsigned long long>(Prof.totalAccesses()),
                static_cast<unsigned long long>(Prof.coldAccesses()));
    std::printf("# distance  count\n");
    for (size_t D = 0; D < Prof.histogram().size(); ++D)
      if (Prof.histogram()[D] != 0)
        std::printf("%9zu %10llu\n", D,
                    static_cast<unsigned long long>(Prof.histogram()[D]));
    return 0;
  }

  // --curve: miss ratio of fully-associative LRU per power-of-two size.
  std::printf("# %s: fully-associative LRU miss-ratio curve\n",
              P.Name.c_str());
  std::printf("# %10s %12s %10s\n", "cache", "misses", "ratio");
  uint64_t Total = Prof.totalAccesses();
  for (uint64_t Lines = 1; Lines <= (1u << 20); Lines *= 2) {
    uint64_t M = Prof.missesForAssoc(Lines);
    uint64_t Bytes = Lines * 64;
    char SizeBuf[32];
    if (Bytes < 1024)
      std::snprintf(SizeBuf, sizeof(SizeBuf), "%lluB",
                    static_cast<unsigned long long>(Bytes));
    else
      std::snprintf(SizeBuf, sizeof(SizeBuf), "%lluKiB",
                    static_cast<unsigned long long>(Bytes / 1024));
    std::printf("  %10s %12llu %9.3f%%\n", SizeBuf,
                static_cast<unsigned long long>(M),
                Total ? 100.0 * static_cast<double>(M) / Total : 0.0);
    if (M == Prof.coldAccesses())
      break; // Larger caches cannot do better.
  }
  return 0;
}
