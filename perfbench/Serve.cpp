//===- perfbench/Serve.cpp - The serve-mixed workload ---------------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
// runServer in this process, on a fresh socket and an empty store with
// 2 scheduler workers, driven by 4 closed-loop clients (each waits for
// its reply before sending the next request, as sweep tools do). The
// corpus is 10 SMALL kernels x 3 overlapping grids -- single-level
// LRU/FIFO, single-level LRU/PLRU sharing the 16K-64K LRU band with the
// first, and a two-level PLRU -> LRU/QLRU grid -- sent in 16 passes per
// round, each in a fresh seeded order, so most requests are store hits
// and every cold request falls in the first pass. Most of the work is in
// the serve layer: protocol, JSON, store lookups and appends, and
// scheduler dedup. Hit requests (answered wholly from the store) and
// miss requests (at least one computed or in-flight point) are reported
// apart, so a gain on one path that costs the other shows. BENCHMARK.json
// does not gate it -- its latencies spread too widely on a shared host --
// so every traced run of sweep-medium measures one round of it instead.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "wcs/serve/Protocol.h"
#include "wcs/serve/ResultStore.h"
#include "wcs/serve/Server.h"

#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <set>
#include <thread>

using namespace wcs;
using namespace wcs::perfbench;

namespace {

constexpr unsigned ServeWorkers = 2;
constexpr unsigned ServeClients = 4;
constexpr unsigned Passes = 16;

const char *const ServeKernels[] = {"gemm", "jacobi-2d", "seidel-2d", "atax",
                                    "mvt",  "lu",        "heat-3d",   "fdtd-2d",
                                    "syrk", "correlation"};

const GridSpec ServeGrids[] = {
    {"lf", "4K:64K:x2,assoc=4,8,policy=lru,fifo", nullptr},
    {"lp", "16K:128K:x2,assoc=8,policy=lru,plru", nullptr},
    {"2l", "4K,assoc=8,policy=plru", "16K:64K:x2,assoc=16,policy=lru,qlru"},
};

/// One (kernel, grid) request of the corpus.
struct Combo {
  std::string Name; ///< "gemm/lf".
  SweepRequest Req;
  std::vector<std::string> GoldenKeys; ///< "gemm/<config>" per grid point.
  std::vector<std::string> StoreKeys;  ///< sweepPointKey per grid point.
};

/// One client-observed request.
struct Sent {
  size_t Index = 0; ///< Into the corpus.
  double Ms = 0.0;
  bool Delivered = false; ///< A well-formed response arrived.
  std::string Err;
  SweepResponse Resp;
};

/// A daemon running runServer on a thread of this process.
class Daemon {
public:
  Daemon() = default;
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;
  ~Daemon() { stop(nullptr); }

  /// Starts the daemon and blocks until it accepts connections (true)
  /// or runServer gave up (false, with \p Err). \p ReadyAt is when the
  /// daemon said so, which leaves this thread's wake-up out of it.
  bool start(const ServerOptions &Opts, telemetry::TimePoint &ReadyAt,
             std::string *Err) {
    Socket = Opts.SocketPath;
    Ready = Exited = false;
    T = std::thread([this, Opts, &ReadyAt] {
      std::string E;
      bool Ok = runServer(
          Opts,
          [this, &ReadyAt] {
            std::lock_guard<std::mutex> L(Mu);
            ReadyAt = telemetry::now();
            Ready = true;
            Cv.notify_all();
          },
          &E);
      std::lock_guard<std::mutex> L(Mu);
      Exited = true;
      if (!Ok)
        RunErr = E;
      Cv.notify_all();
    });
    std::unique_lock<std::mutex> L(Mu);
    Cv.wait(L, [this] { return Ready || Exited; });
    if (Ready)
      return true;
    L.unlock();
    T.join();
    if (Err)
      *Err = "daemon failed to start: " + RunErr;
    return false;
  }

  bool running() const { return T.joinable(); }

  /// Shuts the daemon down through the wcs-control command and joins it.
  bool stop(std::string *Err) {
    if (!T.joinable())
      return true;
    bool Ok = requestShutdown(Socket, Err);
    T.join();
    return Ok;
  }

private:
  std::thread T;
  std::string Socket;
  std::mutex Mu;
  std::condition_variable Cv;
  bool Ready = false, Exited = false;
  std::string RunErr;
};

/// The per-request record of the daemon's --log file.
struct LogLine {
  double WallSeconds = 0.0, QueueWaitSeconds = 0.0, ComputeSeconds = 0.0;
  uint64_t Misses = 0, InFlight = 0;
};

std::vector<LogLine> readLog(const std::string &Path) {
  std::vector<LogLine> Out;
  std::ifstream In(Path);
  std::string Line;
  while (std::getline(In, Line)) {
    json::Value V;
    if (!json::parse(Line, V))
      continue;
    LogLine L;
    L.WallSeconds = V["wall_seconds"].asDouble();
    L.QueueWaitSeconds = V["queue_wait_seconds"].asDouble();
    L.ComputeSeconds = V["compute_seconds"].asDouble();
    L.Misses = V["store_misses"].asUInt();
    L.InFlight = V["inflight_hits"].asUInt();
    Out.push_back(L);
  }
  return Out;
}

class ServeMixed final : public Workload {
public:
  const char *name() const override { return "serve-mixed"; }
  unsigned workers() const override { return ServeWorkers; }
  unsigned clients() const override { return ServeClients; }

  bool init(const RunContext &Ctx, std::string *Err) override {
    this->Ctx = Ctx;
    if (!G.load(goldenPath(Ctx, name()), name(), Err) ||
        !makeCombos(Combos, Err))
      return false;
    std::set<std::string> Distinct;
    for (const Combo &C : Combos)
      Distinct.insert(C.StoreKeys.begin(), C.StoreKeys.end());
    DistinctKeys = Distinct.size();
    Order = Rng(Ctx.Seed);
    return true;
  }

  double setup(Ledger &L) override {
    std::string Err;
    if (!D.stop(&Err))
      L.fail("daemon shutdown: " + Err);
    ServerOptions O = freshDaemonOptions();
    telemetry::TimePoint T0 = telemetry::now(), ReadyAt = T0;
    if (!D.start(O, ReadyAt, &Err))
      L.fail(Err);
    return telemetry::secondsBetween(T0, ReadyAt);
  }

  void round(Ledger &L) override {
    if (!D.running()) {
      L.fail("round without a running daemon");
      return;
    }
    // A round is Passes passes over the corpus, each in a fresh seeded
    // order: the cold requests fall in the first pass and the repeats
    // after it, whatever the seed, so how much hit traffic overlaps cold
    // compute does not hang on the seed. Client C takes every
    // ServeClients-th request of the sequence.
    std::vector<size_t> Seq;
    for (unsigned P = 0; P < Passes; ++P) {
      std::vector<size_t> Pass(Combos.size());
      for (size_t I = 0; I < Pass.size(); ++I)
        Pass[I] = I;
      Order.shuffle(Pass);
      Seq.insert(Seq.end(), Pass.begin(), Pass.end());
    }
    std::vector<std::vector<size_t>> Plan(ServeClients);
    for (size_t I = 0; I < Seq.size(); ++I)
      Plan[I % ServeClients].push_back(Seq[I]);

    std::vector<std::vector<Sent>> PerClient(ServeClients);
    telemetry::TimePoint T0 = telemetry::now();
    {
      std::vector<std::thread> Clients;
      for (unsigned C = 0; C < ServeClients; ++C)
        Clients.emplace_back([this, C, &Plan, &PerClient] {
          for (size_t Idx : Plan[C]) {
            Sent S;
            S.Index = Idx;
            telemetry::TimePoint R0 = telemetry::now();
            {
              telemetry::Span Sp("serve.client.request");
              S.Delivered = submitSweepRequest(Socket, Combos[Idx].Req,
                                               S.Resp, nullptr, &S.Err);
            }
            S.Ms = telemetry::secondsSince(R0) * 1e3;
            PerClient[C].push_back(std::move(S));
          }
        });
      for (std::thread &T : Clients)
        T.join();
    }
    double Wall = telemetry::secondsSince(T0);
    Walls.add(Wall);

    StatusDoc St;
    std::string Err;
    if (!requestStatus(Socket, St, &Err))
      L.fail("status: " + Err);
    else if (St.PointsComputed != DistinctKeys)
      L.fail("compute-once: daemon computed " +
             std::to_string(St.PointsComputed) + " points for " +
             std::to_string(DistinctKeys) + " distinct keys");
    else
      L.pass();
    LastComputedPoints = St.PointsComputed;
    if (!D.stop(&Err))
      L.fail("daemon shutdown: " + Err);

    Last.clear();
    Samples AllMs, HitMs, MissMs;
    for (std::vector<Sent> &V : PerClient)
      for (Sent &S : V) {
        verify(S, L);
        AllMs.add(S.Ms);
        bool Hit = S.Delivered && S.Resp.Ok && S.Resp.StoreMisses == 0 &&
                   S.Resp.InFlightHits == 0;
        (Hit ? HitMs : MissMs).add(S.Ms);
        Last.push_back(std::move(S));
      }
    RequestsPerS.add(ratio(static_cast<double>(Last.size()), Wall));
    HitP50.add(HitMs.median());
    HitP90.add(HitMs.quantile(0.9));
    MissP50.add(MissMs.median());
    Hits += HitMs.size();
    Misses += MissMs.size();

    // Server-side figures from the daemon's request log.
    Samples ServerMs, QueueMs, ComputeMs;
    uint64_t InFlight = 0, NotStored = 0;
    for (const LogLine &LL : readLog(LogPath)) {
      ServerMs.add(LL.WallSeconds * 1e3);
      InFlight += LL.InFlight;
      NotStored += LL.InFlight + LL.Misses;
      if (LL.Misses > 0) {
        QueueMs.add(LL.QueueWaitSeconds * 1e3);
        ComputeMs.add(LL.ComputeSeconds * 1e3);
      }
    }
    LastTransportMs = AllMs.mean() - ServerMs.mean();
    LastQueueWaitMs = QueueMs.median();
    LastComputeMs = ComputeMs.median();
    LastInFlightShare =
        ratio(static_cast<double>(InFlight), static_cast<double>(NotStored));
  }

  void traceExtras(Ledger &L) override {
    // Response encoding, as the daemon does it for every reply.
    Samples EncodeMs, ResponseKb;
    for (const Sent &S : Last) {
      telemetry::Span Sp("serve.encode");
      telemetry::TimePoint T0 = telemetry::now();
      std::string Doc = toJson(S.Resp).dump(false);
      EncodeMs.add(telemetry::secondsSince(T0) * 1e3);
      ResponseKb.add(static_cast<double>(Doc.size()) / 1024.0);
    }
    LastEncodeMs = EncodeMs.median();
    LastResponseKb = ResponseKb.median();

    // Store appends and lookups of every distinct point, on a fresh log.
    std::map<std::string, SweepPoint> Points;
    for (const Sent &S : Last)
      for (size_t I = 0; I < S.Resp.Sweep.Points.size(); ++I)
        Points.emplace(Combos[S.Index].StoreKeys[I], S.Resp.Sweep.Points[I]);
    ResultStore Store;
    std::string Err, StorePath = Ctx.TmpDir + "/bench-store.jsonl";
    std::remove(StorePath.c_str());
    if (!Store.open(StorePath, &Err)) {
      L.fail("bench store: " + Err);
      return;
    }
    Samples InsertUs, LookupUs;
    for (const auto &[Key, P] : Points) {
      telemetry::Span Sp("serve.store.insert");
      telemetry::TimePoint T0 = telemetry::now();
      bool Ok = Store.insert(Key, P, &Err);
      InsertUs.add(telemetry::secondsSince(T0) * 1e6);
      if (!Ok)
        L.fail("bench store insert: " + Err);
    }
    for (const auto &[Key, P] : Points) {
      telemetry::Span Sp("serve.store.lookup");
      SweepPoint Got;
      telemetry::TimePoint T0 = telemetry::now();
      bool Hit = Store.lookup(Key, Got);
      LookupUs.add(telemetry::secondsSince(T0) * 1e6);
      if (!Hit || countersOf(Got.Stats) != countersOf(P.Stats))
        L.fail("bench store lookup mismatch");
    }
    LastInsertUs = InsertUs.median();
    LastLookupUs = LookupUs.median();

    // Cold daemon requests against the same requests run in-process.
    double DaemonS = 0.0, InProcessS = 0.0;
    ServerOptions O = freshDaemonOptions();
    telemetry::TimePoint ReadyAt;
    if (!D.start(O, ReadyAt, &Err)) {
      L.fail(Err);
      return;
    }
    for (const char *Name : {"gemm/lf", "correlation/lf", "syrk/lp"}) {
      const Combo &C = comboNamed(Name);
      SweepResponse Resp;
      telemetry::TimePoint T0 = telemetry::now();
      {
        telemetry::Span Sp("serve.client.request");
        if (!submitSweepRequest(Socket, C.Req, Resp, nullptr, &Err) ||
            !Resp.Ok)
          L.fail(C.Name + ": cold daemon request failed: " + Err);
      }
      DaemonS += telemetry::secondsSince(T0);
      PreparedSweep Prep;
      SweepReport Rep;
      T0 = telemetry::now();
      {
        telemetry::Span Sp("driver.sweep_request");
        if (!runSweepRequest(C.Req, ServeWorkers, Prep, Rep, &Err))
          L.fail(C.Name + ": in-process request failed: " + Err);
      }
      InProcessS += telemetry::secondsSince(T0);
    }
    if (!D.stop(&Err))
      L.fail("daemon shutdown: " + Err);
    LastColdOverhead = ratio(DaemonS, InProcessS);
  }

  void endToEnd(Report &R) const override {
    R.add("work_s", Walls.median(), "s");
    R.add("p50_ms", HitP50.median(), "ms");
    R.add("p90_ms", HitP90.median(), "ms");
    R.add("ops_per_s", RequestsPerS.median(), "1/s");
    R.add("hit_p50_ms", HitP50.median(), "ms");
    R.add("hit_p90_ms", HitP90.median(), "ms");
    R.add("hit_samples", static_cast<double>(Hits), "count");
    R.add("miss_p50_ms", MissP50.median(), "ms");
    R.add("miss_samples", static_cast<double>(Misses), "count");
    R.add("requests_per_s", RequestsPerS.median(), "1/s");
    R.Details.set("op", "one client request; p50/p90 are over the store-hit "
                        "requests of one round, and every figure is the "
                        "median over the rounds");
    R.Details.set("latency_samples", Hits);
    R.Details.set("loop", "closed");
    R.Details.set("distinct_keys", static_cast<uint64_t>(DistinctKeys));
    R.Details.set("round_hit_p50_ms", HitP50.json());
    R.Details.set("round_hit_p90_ms", HitP90.json());
    R.Details.set("round_miss_p50_ms", MissP50.json());
    R.Details.set("round_requests_per_s", RequestsPerS.json());
  }

  void perLayer(Report &R) const override {
    R.add("serve.hit_p50_ms", HitP50.median(), "ms");
    R.add("serve.hit_p90_ms", HitP90.median(), "ms");
    R.add("serve.miss_p50_ms", MissP50.median(), "ms");
    R.add("serve.requests_per_s", RequestsPerS.median(), "1/s");
    R.add("serve.encode_ms", LastEncodeMs, "ms");
    R.add("serve.response_kb", LastResponseKb, "KiB");
    R.add("serve.store.lookup_us", LastLookupUs, "us");
    R.add("serve.store.insert_us", LastInsertUs, "us");
    R.add("serve.transport_ms", LastTransportMs, "ms");
    R.add("serve.queue_wait_ms", LastQueueWaitMs, "ms");
    R.add("serve.compute_ms", LastComputeMs, "ms");
    R.add("serve.inflight_share", LastInFlightShare, "ratio");
    R.add("serve.cold_overhead_ratio", LastColdOverhead, "ratio");
    R.add("serve.computed_points", static_cast<double>(LastComputedPoints),
          "count");
  }

  bool makeGolden(Golden &Out, std::string *Err) override {
    std::vector<Combo> Cs;
    if (!makeCombos(Cs, Err))
      return false;
    for (const Combo &C : Cs)
      if (!recordSweepGolden(C.Req, C.Req.Kernel, Out, Err))
        return false;
    return true;
  }

private:
  static bool makeCombos(std::vector<Combo> &Out, std::string *Err) {
    for (const char *K : ServeKernels)
      for (const GridSpec &Grid : ServeGrids) {
        Combo C;
        C.Name = std::string(K) + "/" + Grid.Name;
        PreparedSweep Prep;
        if (!makeSweepRequest(K, ProblemSize::Small, Grid, C.Req, Err) ||
            !prepareSweep(C.Req, Prep, Err))
          return false;
        for (const HierarchyConfig &H : Prep.Configs) {
          C.GoldenKeys.push_back(pointKey(K, H));
          C.StoreKeys.push_back(sweepPointKey(C.Req, H));
        }
        Out.push_back(std::move(C));
      }
    return true;
  }

  const Combo &comboNamed(const std::string &Name) const {
    for (const Combo &C : Combos)
      if (C.Name == Name)
        return C;
    return Combos.front();
  }

  /// Options of a new daemon on a fresh socket, store and log.
  ServerOptions freshDaemonOptions() {
    std::string Stem = Ctx.TmpDir + "/d" + std::to_string(++Daemons);
    Socket = Stem + ".sock";
    LogPath = Stem + ".log";
    ServerOptions O;
    O.SocketPath = Socket;
    O.StorePath = Stem + ".store";
    O.LogPath = LogPath;
    O.Threads = ServeWorkers;
    O.MaxConnections = ServeClients + 2;
    std::remove(O.StorePath.c_str());
    std::remove(LogPath.c_str());
    return O;
  }

  /// One request as an operation: delivered, Ok, and every point's
  /// counters equal to the golden counters of its key.
  void verify(const Sent &S, Ledger &L) const {
    const Combo &C = Combos[S.Index];
    if (!S.Delivered) {
      L.fail(C.Name + ": transport: " + S.Err);
      return;
    }
    if (!S.Resp.Ok || S.Resp.Sweep.Points.size() != C.GoldenKeys.size()) {
      L.fail(C.Name + ": response not ok: " + S.Resp.Error);
      return;
    }
    for (size_t I = 0; I < C.GoldenKeys.size(); ++I) {
      const SweepPoint &P = S.Resp.Sweep.Points[I];
      const Counters *Want = G.find(C.GoldenKeys[I]);
      if (!P.Ok || !Want || *Want != countersOf(P.Stats)) {
        L.fail(C.GoldenKeys[I] + ": served counters " +
               countersStr(countersOf(P.Stats)) + " differ from golden");
        return;
      }
    }
    L.pass();
  }

  RunContext Ctx;
  Golden G;
  std::vector<Combo> Combos;
  Rng Order{0}; ///< Draws each round's request order from the seed.
  size_t DistinctKeys = 0;

  Daemon D;
  unsigned Daemons = 0;
  std::string Socket, LogPath; ///< Of the most recent daemon.

  /// One sample per round.
  Samples Walls, RequestsPerS, HitP50, HitP90, MissP50;
  uint64_t Hits = 0, Misses = 0; ///< Requests over every round.
  std::vector<Sent> Last;        ///< The most recent round.
  uint64_t LastComputedPoints = 0;
  double LastTransportMs = 0, LastQueueWaitMs = 0, LastComputeMs = 0,
         LastInFlightShare = 0, LastEncodeMs = 0, LastResponseKb = 0,
         LastInsertUs = 0, LastLookupUs = 0, LastColdOverhead = 0;
};

} // namespace

std::unique_ptr<Workload> wcs::perfbench::makeServeMixed() {
  return std::make_unique<ServeMixed>();
}
