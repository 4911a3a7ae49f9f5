//===- perfbench/Kernels.cpp - The kernels-medium workload ----------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
// All 30 PolyBench kernels at MEDIUM on the scaled 4 KiB 8-way L1, for
// each of LRU, FIFO, PLRU and QLRU: 120 (kernel, policy) pairs, each
// simulated by the warping engine and then by the concrete engine, back
// to back on one thread -- the paper's Fig. 6 shape. Nearly all the work
// is in the sim layer and the cache floor beneath it; the trace, driver
// and serve layers do none. Kernels that warp (stencils) sit beside
// kernels that never do (correlation, covariance, gramschmidt, trmm), so
// a change that helps one group and hurts the other shows. Each round
// runs the pairs in a fresh seeded order; every job is timed by the host
// gauge, in reference seconds.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "wcs/polybench/Polybench.h"
#include "wcs/sim/ConcreteSimulator.h"
#include "wcs/sim/WarpingSimulator.h"
#include "wcs/support/Stats.h"
#include "wcs/support/StringUtil.h"

using namespace wcs;
using namespace wcs::perfbench;

namespace {

constexpr PolicyKind Policies[] = {PolicyKind::Lru, PolicyKind::Fifo,
                                   PolicyKind::Plru, PolicyKind::QuadAgeLru};

HierarchyConfig pairCache(PolicyKind P) {
  CacheConfig L1 = CacheConfig::scaledL1();
  L1.Policy = P;
  return HierarchyConfig::singleLevel(L1);
}

std::string pairKey(const KernelInfo &K, PolicyKind P) {
  return std::string(K.Name) + "/" + policyName(P);
}

struct Pair {
  size_t Kernel = 0;
  PolicyKind Policy = PolicyKind::Lru;
  std::string Key;        ///< "gemm/LRU": the golden key.
  Samples Warp, Concrete; ///< Reference seconds, one sample per round.
  Samples PeakMiB;        ///< The pair's own peak RSS, one per round.
  double LastWarp = 0.0, LastConcrete = 0.0;
  SimStats WarpStats; ///< Counters and warp diagnostics (deterministic).
};

class KernelsMedium final : public Workload {
public:
  const char *name() const override { return "kernels-medium"; }
  unsigned workers() const override { return 1; }

  bool init(const RunContext &Ctx, std::string *Err) override {
    if (!G.load(goldenPath(Ctx, name()), name(), Err))
      return false;
    const std::vector<KernelInfo> &Ks = polybenchKernels();
    for (size_t K = 0; K < Ks.size(); ++K)
      for (PolicyKind P : Policies) {
        Pair X;
        X.Kernel = K;
        X.Policy = P;
        X.Key = pairKey(Ks[K], P);
        Pairs.push_back(std::move(X));
      }
    Order = Rng(Ctx.Seed);
    Gauge = Ctx.Gauge;
    return true;
  }

  double setup(Ledger &L) override {
    Programs.clear();
    telemetry::TimePoint T0 = telemetry::now();
    for (const KernelInfo &K : polybenchKernels()) {
      telemetry::Span S("frontend.build");
      std::string Err;
      Programs.push_back(buildKernel(K, ProblemSize::Medium, &Err));
      if (!Err.empty())
        L.fail(std::string(K.Name) + ": " + Err);
    }
    return telemetry::secondsSince(T0);
  }

  void round(Ledger &L) override {
    // A fresh seeded order per round spreads each job's samples over the
    // run instead of pinning them to one offset within every round.
    Order.shuffle(Pairs);
    for (Pair &X : Pairs) {
      const ScopProgram &Prog = Programs[X.Kernel];
      HierarchyConfig H = pairCache(X.Policy);

      SimStats W, C;
      resetPeakRss();
      Timing TW = Gauge->time([&] {
        telemetry::Span S("sim.warp.run");
        W = WarpingSimulator(Prog, H).run();
      });
      Timing TC = Gauge->time([&] {
        telemetry::Span S("sim.concrete.run");
        C = ConcreteSimulator(Prog, H).run();
      });

      X.LastWarp = TW.Wall;
      X.LastConcrete = TC.Wall;
      X.Warp.add(TW.Ref);
      X.Concrete.add(TC.Ref);
      X.PeakMiB.add(peakRssMiB());
      X.WarpStats = W;
      if (countersOf(W) != countersOf(C))
        L.fail(X.Key + ": warping " + countersStr(countersOf(W)) +
               " != concrete " + countersStr(countersOf(C)));
      else
        L.check(G, X.Key, countersOf(W));
      L.check(G, X.Key, countersOf(C));
    }
  }

  void endToEnd(Report &R) const override {
    double WarpS = 0.0, ConcreteS = 0.0, PeakMiB = 0.0;
    Samples JobMs;
    for (const Pair &X : Pairs) {
      WarpS += X.Warp.median();
      ConcreteS += X.Concrete.median();
      PeakMiB += X.PeakMiB.min();
      for (double S : X.Warp.values())
        JobMs.add(S * 1e3);
      for (double S : X.Concrete.values())
        JobMs.add(S * 1e3);
    }
    R.add("work_s", WarpS + ConcreteS, "s");
    R.add("p50_ms", JobMs.median(), "ms");
    R.add("p90_ms", JobMs.quantile(0.9), "ms");
    R.add("ops_per_s",
          ratio(2.0 * static_cast<double>(Pairs.size()), WarpS + ConcreteS),
          "1/s");
    R.add("peak_rss_mb", PeakMiB / static_cast<double>(Pairs.size()), "MiB");
    R.add("warp_s", WarpS, "s");
    R.add("concrete_s", ConcreteS, "s");
    R.Details.set("op", "one simulation job (warping or concrete) of one "
                        "(kernel, policy) pair, in reference seconds; "
                        "work_s sums each job's median over the rounds, "
                        "p50_ms and p90_ms are over every job of every "
                        "round, peak_rss_mb averages each pair's lowest "
                        "peak over the rounds");
    R.Details.set("latency_samples", static_cast<uint64_t>(JobMs.size()));
  }

  void perLayer(Report &R) const override {
    double WarpByPolicy[4] = {}, ConcreteByPolicy[4] = {};
    double WarpS = 0.0, ConcreteS = 0.0, NoWarpWarpS = 0.0,
           NoWarpConcreteS = 0.0;
    uint64_t Accesses = 0, Warped = 0, Warps = 0, Failed = 0, Won = 0;
    GeoMean Speedup;
    for (const Pair &X : Pairs) {
      size_t P = static_cast<size_t>(X.Policy);
      WarpByPolicy[P] += X.LastWarp;
      ConcreteByPolicy[P] += X.LastConcrete;
      WarpS += X.LastWarp;
      ConcreteS += X.LastConcrete;
      Speedup.add(ratio(X.LastConcrete, X.LastWarp));
      if (X.LastWarp < X.LastConcrete)
        ++Won;
      if (X.WarpStats.Warps == 0) {
        NoWarpWarpS += X.LastWarp;
        NoWarpConcreteS += X.LastConcrete;
      }
      Accesses += X.WarpStats.totalAccesses();
      Warped += X.WarpStats.WarpedAccesses;
      Warps += X.WarpStats.Warps;
      Failed += X.WarpStats.FailedWarpChecks;
    }
    for (PolicyKind P : Policies)
      R.add("sim.concrete." + toLowerAscii(policyName(P)) + "_s",
            ConcreteByPolicy[static_cast<size_t>(P)], "s");
    R.add("sim.concrete.maccesses_per_s", ratio(Accesses * 1e-6, ConcreteS),
          "M/s");
    for (PolicyKind P : Policies)
      R.add("sim.warp." + toLowerAscii(policyName(P)) + "_s",
            WarpByPolicy[static_cast<size_t>(P)], "s");
    R.add("sim.warp.maccesses_per_s", ratio(Accesses * 1e-6, WarpS), "M/s");
    R.add("sim.warp.speedup_geomean", Speedup.value(), "ratio");
    R.add("sim.warp.nowarp_floor_ratio",
          ratio(NoWarpConcreteS, NoWarpWarpS), "ratio");
    R.add("sim.warp.pairs_won", static_cast<double>(Won), "count");
    R.add("sim.warp.warped_share",
          ratio(static_cast<double>(Warped), static_cast<double>(Accesses)),
          "ratio");
    R.add("sim.warp.warps", static_cast<double>(Warps), "count");
    R.add("sim.warp.failed_checks", static_cast<double>(Failed), "count");
    R.add("sim.warp.check_yield",
          ratio(static_cast<double>(Warps),
                static_cast<double>(Warps + Failed)),
          "ratio");
  }

  bool makeGolden(Golden &Out, std::string *Err) override {
    for (const KernelInfo &K : polybenchKernels()) {
      ScopProgram Prog = buildKernel(K, ProblemSize::Medium, Err);
      if (Err && !Err->empty())
        return false;
      for (PolicyKind P : Policies) {
        HierarchyConfig H = pairCache(P);
        Counters W = countersOf(WarpingSimulator(Prog, H).run());
        Counters C = countersOf(ConcreteSimulator(Prog, H).run());
        if (W != C) {
          if (Err)
            *Err = pairKey(K, P) + ": warping " + countersStr(W) +
                   " != concrete " + countersStr(C);
          return false;
        }
        Out.record(pairKey(K, P), C);
      }
    }
    return true;
  }

private:
  Golden G;
  std::vector<ScopProgram> Programs;
  std::vector<Pair> Pairs;
  Rng Order{0};
  HostGauge *Gauge = nullptr;
};

} // namespace

std::unique_ptr<Workload> wcs::perfbench::makeKernelsMedium() {
  return std::make_unique<KernelsMedium>();
}
