//===- perfbench/Sweeps.cpp - The sweep-medium workload -------------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
// runSweepRequest with 2 worker threads over 8 MEDIUM kernels, 3
// requests each: (a) an LRU capacity ladder, (b) single-level
// FIFO/PLRU/QLRU points, (c) a two-level PLRU/LRU x LRU/QLRU grid -- the
// `wcs-sim --sweep` path. Most of the work is in the trace layer (linear
// and periodic stack-distance passes, filtered-stream record/feed/
// replay) and the driver layer (partition, dedup, BatchRunner fan-out);
// gemm, jacobi-2d, heat-3d and gramschmidt take the periodic pass, the
// others the linear one. Its traced run also measures the serve layer.
// Each round runs the requests in a fresh seeded order; every request is
// timed by the host gauge, in reference seconds.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

using namespace wcs;
using namespace wcs::perfbench;

namespace {

constexpr unsigned SweepThreads = 2;

const char *const SweepKernels[] = {"gemm", "jacobi-2d",   "seidel-2d",
                                    "correlation", "lu", "heat-3d",
                                    "gramschmidt", "atax"};

const GridSpec SweepGrids[] = {
    {"a", "4K:256K:x2,assoc=4,8,16", nullptr},
    {"b", "8K,32K,assoc=8,policy=fifo,plru,qlru", nullptr},
    {"c", "4K,assoc=8,policy=plru,lru",
     "16K:128K:x2,assoc=16,policy=lru,qlru"},
};

struct Request {
  std::string Name; ///< "gemm/a": golden key prefix.
  SweepRequest Req;
  std::vector<std::string> PointKeys; ///< Golden key per grid point.
  Samples Wall;                       ///< Reference seconds per round.
  Samples PeakMiB;                    ///< Own peak RSS (MiB) per round.
  SweepReport Last;                   ///< Most recent round's report.
};

bool makeRequests(std::vector<Request> &Out, std::string *Err) {
  for (const char *K : SweepKernels)
    for (const GridSpec &G : SweepGrids) {
      Request R;
      R.Name = std::string(K) + "/" + G.Name;
      if (!makeSweepRequest(K, ProblemSize::Medium, G, R.Req, Err))
        return false;
      Out.push_back(std::move(R));
    }
  return true;
}

class SweepMedium final : public Workload {
public:
  const char *name() const override { return "sweep-medium"; }
  unsigned workers() const override { return SweepThreads; }

  bool init(const RunContext &Ctx, std::string *Err) override {
    this->Ctx = Ctx;
    if (!G.load(goldenPath(Ctx, name()), name(), Err) ||
        !makeRequests(Requests, Err))
      return false;
    Order = Rng(Ctx.Seed);
    return true;
  }

  double setup(Ledger &L) override {
    telemetry::TimePoint T0 = telemetry::now();
    for (Request &R : Requests) {
      telemetry::Span S("frontend.prepare");
      PreparedSweep Prep;
      std::string Err;
      if (!prepareSweep(R.Req, Prep, &Err)) {
        L.fail(R.Name + ": " + Err);
        continue;
      }
      R.PointKeys.clear();
      for (const HierarchyConfig &H : Prep.Configs)
        R.PointKeys.push_back(pointKey(R.Name, H));
    }
    return telemetry::secondsSince(T0);
  }

  void round(Ledger &L) override {
    Order.shuffle(Requests); // A fresh seeded order per round.
    for (Request &R : Requests) {
      resetPeakRss();
      PreparedSweep Prep;
      SweepReport Rep;
      std::string Err;
      bool Ok = false;
      R.Wall.add(Ctx.Gauge
                     ->time([&] {
                       telemetry::Span S("driver.sweep_request");
                       Ok = runSweepRequest(R.Req, SweepThreads, Prep, Rep,
                                            &Err);
                     })
                     .Ref);
      R.PeakMiB.add(peakRssMiB());
      if (!Ok || Rep.Points.size() != R.PointKeys.size()) {
        L.fail(R.Name + ": request failed: " + Err);
        continue;
      }
      for (size_t I = 0; I < Rep.Points.size(); ++I) {
        const SweepPoint &P = Rep.Points[I];
        if (!P.Ok)
          L.fail(R.PointKeys[I] + ": " + P.Error);
        else
          L.check(G, R.PointKeys[I], countersOf(P.Stats));
      }
      R.Last = std::move(Rep);
    }
  }

  /// The traced run also drives one serve-mixed round and its extras, so
  /// the serve layer is measured: its host times spread too widely on a
  /// shared host to gate as a workload of their own.
  void traceExtras(Ledger &L) override {
    Serve = makeServeMixed();
    std::string Err;
    if (!Serve->init(Ctx, &Err)) {
      L.fail("serve-mixed: " + Err);
      Serve.reset();
      return;
    }
    Serve->setup(L);
    Serve->round(L);
    Serve->traceExtras(L);
  }

  void endToEnd(Report &Out) const override {
    double SweepS = 0.0, PeakMiB = 0.0;
    Samples RequestMs;
    for (const Request &R : Requests) {
      SweepS += R.Wall.median();
      PeakMiB += R.PeakMiB.min();
      for (double S : R.Wall.values())
        RequestMs.add(S * 1e3);
    }
    Out.add("work_s", SweepS, "s");
    Out.add("p50_ms", RequestMs.median(), "ms");
    Out.add("p90_ms", RequestMs.quantile(0.9), "ms");
    Out.add("ops_per_s", ratio(static_cast<double>(Requests.size()), SweepS),
            "1/s");
    Out.add("peak_rss_mb", PeakMiB / static_cast<double>(Requests.size()),
            "MiB");
    Out.add("sweep_s", SweepS, "s");
    Out.Details.set("op", "one runSweepRequest call, in reference seconds; "
                          "work_s sums each request's median over the "
                          "rounds, p50_ms and p90_ms are over every request "
                          "of every round, peak_rss_mb averages each "
                          "request's lowest peak over the rounds");
    Out.Details.set("latency_samples",
                    static_cast<uint64_t>(RequestMs.size()));
    json::Value PerRequest = json::Value::object();
    for (const Request &R : Requests) {
      json::Value V = json::Value::object();
      V.set("median_ms", R.Wall.median() * 1e3);
      V.set("peak_rss_mib", R.PeakMiB.min());
      PerRequest.set(R.Name, std::move(V));
    }
    Out.Details.set("requests", std::move(PerRequest));
  }

  void perLayer(Report &Out) const override {
    double Linear = 0, Periodic = 0, Record = 0, Replay = 0, Simulated = 0,
           Busy = 0, Capacity = 0;
    uint64_t PeriodicWarped = 0, PeriodicWalked = 0, Logical = 0,
             Stored = 0, Deduped = 0, Points = 0, Fast = 0;
    for (const Request &R : Requests) {
      const SweepReport &S = R.Last;
      Linear += S.TracePassSeconds;
      Periodic += S.PeriodicPassSeconds;
      Record += S.RecordSeconds;
      Replay += S.ReplaySeconds;
      Simulated += S.SimulatedSeconds;
      if (S.PeriodicPass) {
        PeriodicWarped += S.PeriodicWarpedAccesses;
        PeriodicWalked += S.TraceAccesses * S.NumBanks;
      }
      Logical += S.FilteredRecords;
      Stored += S.FilteredStoredRecords;
      Deduped += S.DedupedPoints;
      Points += S.Points.size();
      Fast += S.StackDistancePoints + S.FilteredPoints;
      Busy += S.stackDistanceSeconds() + S.filteredSeconds() +
              S.SimulatedSeconds;
      Capacity += S.WallSeconds * S.Threads;
    }
    Out.add("trace.linear_pass_s", Linear, "s");
    Out.add("trace.periodic_pass_s", Periodic, "s");
    Out.add("trace.periodic_warped_share",
            ratio(static_cast<double>(PeriodicWarped),
                  static_cast<double>(PeriodicWalked)),
            "ratio");
    Out.add("trace.filtered.record_s", Record, "s");
    Out.add("trace.filtered.replay_s", Replay, "s");
    Out.add("trace.filtered.compression",
            ratio(static_cast<double>(Logical), static_cast<double>(Stored)),
            "ratio");
    Out.add("driver.sweep.simulated_s", Simulated, "s");
    Out.add("driver.sweep.fast_point_share",
            ratio(static_cast<double>(Fast), static_cast<double>(Points)),
            "ratio");
    Out.add("driver.sweep.deduped_points", static_cast<double>(Deduped),
            "count");
    Out.add("driver.batch.parallel_eff", ratio(Busy, Capacity), "ratio");
    if (Serve)
      Serve->perLayer(Out);
  }

  bool makeGolden(Golden &Out, std::string *Err) override {
    std::vector<Request> Rs;
    if (!makeRequests(Rs, Err))
      return false;
    for (const Request &R : Rs)
      if (!recordSweepGolden(R.Req, R.Name, Out, Err))
        return false;
    return true;
  }

private:
  RunContext Ctx;
  Golden G;
  std::vector<Request> Requests;
  std::unique_ptr<Workload> Serve; ///< Traced runs only.
  Rng Order{0};
};

} // namespace

std::unique_ptr<Workload> wcs::perfbench::makeSweepMedium() {
  return std::make_unique<SweepMedium>();
}
