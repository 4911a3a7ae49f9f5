//===- tests/serve_test.cpp - wcs-serve serving-core tests ----------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// The wcs-serve semantic surface, driven two ways: a one-client
// Scheduler in process (store hit/miss partitioning, method "store"
// relabeling, progress events, malformed-request handling, legacy
// engine-tuning members that must never reach the engine) and end to
// end through the Unix-domain socket (runServer on a thread, the
// submitSweepRequest client, control shutdown). Both must agree bit for
// bit with runSweepRequest, the in-process path `wcs-sim --sweep` runs,
// and with what the store holds.
//
//===----------------------------------------------------------------------===//

#include "wcs/serve/Scheduler.h"
#include "wcs/serve/Server.h"
#include "wcs/support/FaultInjection.h"
#include "wcs/support/Telemetry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

using namespace wcs;

namespace {

const char *TestSource = R"(
  int A[512]; int B[512];
  for (int i = 1; i < 511; i++)
    B[i] = A[i-1] + A[i+1];
)";

// A request's options as documents wrote them before the engine-tuning
// members left wcs-request: all 17 leaves, at their defaults but for
// four hostile values.
const char *HostileLegacyOptions = R"({
  "sim": {"include_scalars": false,
          "warp": {"enable": true, "max_probe_iters": 4294967295,
                   "snapshot_ring_size": 0, "max_snapshots_per_bucket": 2,
                   "min_snapshot_spacing": 16,
                   "max_delta_for_coupled_domains": 32,
                   "eager_snapshot_trip_limit": 128, "max_delta": 512,
                   "disable_after_failed_activations": 4,
                   "min_probes_for_learning": 32,
                   "enable_profit_guard": true,
                   "profit_guard_activations": 8}},
  "backend": "warping", "max_filtered_records": 0, "warp_sweep": false,
  "warp_sweep_min_accesses": 2097152
})";

SweepRequest smallRequest() {
  SweepRequest R;
  R.Source = TestSource;
  R.SourceName = "stencil.wcs";
  R.L1.SizesBytes = {1024, 2048};
  R.L1.Assocs = {2};
  R.L1.Policies = {PolicyKind::Lru, PolicyKind::Fifo};
  return R;
}

/// Per-point JSON with the timing zeroed: counters and provenance only.
std::string counters(SweepPoint P) {
  P.Stats.Seconds = 0.0;
  return toJson(P).dump(false);
}

/// The in-process reference: \p Req through runSweepRequest.
std::vector<SweepPoint> referencePoints(const SweepRequest &Req) {
  PreparedSweep Prep;
  SweepReport Rep;
  std::string Err;
  EXPECT_TRUE(runSweepRequest(Req, 2, Prep, Rep, &Err)) << Err;
  return Rep.Points;
}

std::string tempPath(const char *Tag, const char *Ext) {
  std::ostringstream OS;
  OS << ::testing::TempDir() << "wcs-serve-" << Tag << "-" << ::getpid()
     << Ext;
  return OS.str();
}

TEST(Serve, MissesThenHitsBitIdentical) {
  ResultStore Store;
  std::string Err;
  ASSERT_TRUE(Store.open("", &Err)) << Err;
  Scheduler Sched(Store, 2);
  SweepRequest Req = smallRequest();
  std::vector<SweepPoint> Ref = referencePoints(Req);

  // Cold store: every point is a miss, simulated and inserted.
  SweepResponse First = Sched.serve(Req, nullptr);
  ASSERT_TRUE(First.Ok) << First.Error;
  EXPECT_EQ(First.RequestHash, requestHash(Req));
  EXPECT_EQ(First.StoreHits, 0u);
  EXPECT_EQ(First.StoreMisses, 4u);
  EXPECT_EQ(First.StoreEntries, 4u);
  ASSERT_EQ(First.Sweep.Points.size(), Ref.size());
  for (size_t I = 0; I < Ref.size(); ++I) {
    const SweepPoint &P = First.Sweep.Points[I];
    ASSERT_TRUE(P.Ok) << P.Error;
    // Fresh results keep their computing method and carry exactly the
    // in-process counters...
    EXPECT_NE(P.Method, SweepMethod::Store);
    EXPECT_EQ(counters(P), counters(Ref[I])) << "point " << I;
    // ...and the store holds them verbatim.
    SweepPoint Stored;
    ASSERT_TRUE(Store.lookup(sweepPointKey(Req, P.Cache), Stored));
    EXPECT_EQ(toJson(Stored).dump(false), toJson(P).dump(false));
  }

  // Resubmission: every point comes from the store, zero simulation.
  SweepResponse Second = Sched.serve(Req, nullptr);
  ASSERT_TRUE(Second.Ok) << Second.Error;
  EXPECT_EQ(Second.StoreHits, 4u);
  EXPECT_EQ(Second.StoreMisses, 0u);
  ASSERT_EQ(Second.Sweep.Points.size(), 4u);
  for (size_t I = 0; I < 4; ++I) {
    // Honest provenance: the point is re-labeled "store"...
    EXPECT_EQ(Second.Sweep.Points[I].Method, SweepMethod::Store);
    // ...but everything else -- counters, backend, even the original
    // timing measurement -- is the stored point verbatim.
    SweepPoint Norm = Second.Sweep.Points[I];
    Norm.Method = First.Sweep.Points[I].Method;
    EXPECT_EQ(toJson(Norm).dump(false),
              toJson(First.Sweep.Points[I]).dump(false))
        << "point " << I;
  }
}

TEST(Serve, OverlappingGridsShareStoredPoints) {
  ResultStore Store;
  std::string Err;
  ASSERT_TRUE(Store.open("", &Err)) << Err;
  Scheduler Sched(Store, 2);

  SweepRequest Narrow = smallRequest();
  Narrow.L1.SizesBytes = {1024};
  SweepResponse First = Sched.serve(Narrow, nullptr);
  ASSERT_TRUE(First.Ok) << First.Error;
  EXPECT_EQ(First.StoreMisses, 2u);

  // A DIFFERENT request whose grid overlaps: the shared capacity is
  // served from the store, only the new one simulates.
  SweepRequest Wide = smallRequest();
  Wide.L1.SizesBytes = {1024, 2048};
  SweepResponse Second = Sched.serve(Wide, nullptr);
  ASSERT_TRUE(Second.Ok) << Second.Error;
  EXPECT_NE(Second.RequestHash, First.RequestHash);
  EXPECT_EQ(Second.StoreHits, 2u);
  EXPECT_EQ(Second.StoreMisses, 2u);
  EXPECT_EQ(Second.StoreEntries, 4u);
  // Grid expansion orders sizes outermost: points 0-1 are the 1024-byte
  // capacities served from the store.
  EXPECT_EQ(Second.Sweep.Points[0].Method, SweepMethod::Store);
  EXPECT_EQ(Second.Sweep.Points[1].Method, SweepMethod::Store);
  EXPECT_NE(Second.Sweep.Points[2].Method, SweepMethod::Store);
  EXPECT_NE(Second.Sweep.Points[3].Method, SweepMethod::Store);
}

TEST(Serve, ProgressCoversEveryPointHitsFirst) {
  ResultStore Store;
  std::string Err;
  ASSERT_TRUE(Store.open("", &Err)) << Err;
  Scheduler Sched(Store, 2);
  SweepRequest Req = smallRequest();

  // Warm half the store so both hit and miss progress paths fire.
  SweepRequest Narrow = Req;
  Narrow.L1.SizesBytes = {1024};
  ASSERT_TRUE(Sched.serve(Narrow, nullptr).Ok);

  std::vector<ProgressEvent> Events;
  SweepResponse Resp = Sched.serve(Req, [&](const ProgressEvent &E) {
    Events.push_back(E);
    return true;
  });
  ASSERT_TRUE(Resp.Ok) << Resp.Error;
  ASSERT_EQ(Events.size(), 4u);
  std::vector<unsigned> Seen(4, 0);
  for (size_t I = 0; I < Events.size(); ++I) {
    const ProgressEvent &E = Events[I];
    ASSERT_LT(E.Point, 4u);
    ++Seen[E.Point];
    EXPECT_EQ(E.Total, 4u);
    EXPECT_TRUE(E.Ok);
    EXPECT_EQ(E.Cache, Resp.Sweep.Points[E.Point].Cache.str());
    // The two store hits (points 0-1) stream first, in input order;
    // computed points follow in completion order.
    EXPECT_EQ(E.Method == SweepMethod::Store, I < 2) << "event " << I;
    if (I < 2) {
      EXPECT_EQ(E.Point, I);
    }
  }
  EXPECT_EQ(Seen, std::vector<unsigned>(4, 1)); // One event per point.
}

TEST(Serve, MalformedRequestIsAnOkFalseResponse) {
  ResultStore Store;
  std::string Err;
  ASSERT_TRUE(Store.open("", &Err)) << Err;
  Scheduler Sched(Store, 2);
  SweepRequest Bad = smallRequest();
  Bad.Source = "for (;;) nonsense";
  SweepResponse Resp = Sched.serve(Bad, nullptr);
  EXPECT_FALSE(Resp.Ok);
  EXPECT_FALSE(Resp.Error.empty());
  EXPECT_EQ(Resp.RequestHash, requestHash(Bad)); // Still attributed.
  EXPECT_EQ(Store.numEntries(), 0u); // Nothing was stored.
}

// Members that older request documents carried for the engine's search
// bounds and the sweep's per-run knobs are ignored: a daemon that fed
// these values to the engine would divide by a zero-sized snapshot ring
// (SIGFPE) on the first warping point. The hostile request is served
// first, on a cold store, so every point is computed from it.
TEST(Serve, LegacyTuningMembersCannotReachTheEngine) {
  SweepRequest Clean;
  Clean.Kernel = "jacobi-1d";
  Clean.Size = ProblemSize::Small;
  Clean.L1.SizesBytes = {8192};
  Clean.L1.Assocs = {8};
  Clean.L1.Policies = {PolicyKind::Plru, PolicyKind::Fifo, PolicyKind::Lru};

  json::Value Opts;
  std::string Err;
  ASSERT_TRUE(json::parse(HostileLegacyOptions, Opts, &Err)) << Err;
  json::Value Doc = toJson(Clean);
  Doc.set("options", std::move(Opts));
  SweepRequest Hostile;
  ASSERT_TRUE(fromJson(Doc, Hostile, &Err)) << Err;

  ResultStore Store;
  ASSERT_TRUE(Store.open("", &Err)) << Err;
  Scheduler Sched(Store, 2);
  SweepResponse Resp = Sched.serve(Hostile, nullptr);
  ASSERT_TRUE(Resp.Ok) << Resp.Error;
  EXPECT_EQ(Resp.RequestHash, requestHash(Clean));
  EXPECT_EQ(Resp.StoreMisses, 3u);
  std::vector<SweepPoint> Ref = referencePoints(Clean);
  ASSERT_EQ(Resp.Sweep.Points.size(), Ref.size());
  for (size_t I = 0; I < Ref.size(); ++I) {
    ASSERT_TRUE(Resp.Sweep.Points[I].Ok) << Resp.Sweep.Points[I].Error;
    EXPECT_EQ(counters(Resp.Sweep.Points[I]), counters(Ref[I]))
        << "point " << I;
  }

  // The clean request is the same request: answered from the store.
  SweepResponse Again = Sched.serve(Clean, nullptr);
  ASSERT_TRUE(Again.Ok) << Again.Error;
  EXPECT_EQ(Again.StoreHits, 3u);
}

TEST(Serve, FailedPointsAreNeverStored) {
  ResultStore Store;
  std::string Err;
  ASSERT_TRUE(Store.open("", &Err)) << Err;
  Scheduler Sched(Store, 2);
  // A grid that expands fine but cannot all simulate does not poison
  // the store; here every point is fine, so instead pin the contract
  // from the other side: only Ok points land in the store.
  SweepRequest Req = smallRequest();
  SweepResponse Resp = Sched.serve(Req, nullptr);
  ASSERT_TRUE(Resp.Ok);
  EXPECT_EQ(Store.numEntries(),
            static_cast<size_t>(Resp.StoreMisses)); // All Ok, all stored.
}

//===----------------------------------------------------------------------===//
// Through the socket
//===----------------------------------------------------------------------===//

TEST(ServeSocket, EndToEndMatchesDirectServing) {
  std::string Socket = tempPath("sock", ".sock");
  std::string StorePath = tempPath("store", ".jsonl");
  std::remove(StorePath.c_str());

  ServerOptions SO;
  SO.SocketPath = Socket;
  SO.StorePath = StorePath;
  SO.Threads = 2;

  std::string ServerErr;
  std::mutex ReadyMu;
  std::condition_variable ReadyCv;
  bool Ready = false;
  std::thread Server([&] {
    bool Ok = runServer(
        SO,
        [&] {
          std::lock_guard<std::mutex> L(ReadyMu);
          Ready = true;
          ReadyCv.notify_one();
        },
        &ServerErr);
    if (!Ok) {
      // Unblock the main thread even on setup failure.
      std::lock_guard<std::mutex> L(ReadyMu);
      Ready = true;
      ReadyCv.notify_one();
    }
  });
  {
    std::unique_lock<std::mutex> L(ReadyMu);
    ReadyCv.wait(L, [&] { return Ready; });
  }
  ASSERT_EQ(ServerErr, "");

  SweepRequest Req = smallRequest();
  std::string Err;

  // First submission: all misses.
  SweepResponse First;
  std::vector<ProgressEvent> Events;
  ASSERT_TRUE(submitSweepRequest(
      Socket, Req, First,
      [&](const ProgressEvent &E) { Events.push_back(E); }, &Err))
      << Err;
  ASSERT_TRUE(First.Ok) << First.Error;
  EXPECT_EQ(First.StoreMisses, 4u);
  EXPECT_EQ(Events.size(), 4u); // Progress streamed over the wire too.

  // Second submission: answered from the store, bit-identical counters.
  SweepResponse Second;
  ASSERT_TRUE(submitSweepRequest(Socket, Req, Second, nullptr, &Err)) << Err;
  ASSERT_TRUE(Second.Ok) << Second.Error;
  EXPECT_EQ(Second.StoreHits, 4u);
  EXPECT_EQ(Second.StoreMisses, 0u);
  ASSERT_EQ(Second.Sweep.Points.size(), 4u);
  for (size_t I = 0; I < 4; ++I) {
    EXPECT_EQ(Second.Sweep.Points[I].Method, SweepMethod::Store);
    SweepPoint Norm = Second.Sweep.Points[I];
    Norm.Method = First.Sweep.Points[I].Method;
    EXPECT_EQ(toJson(Norm).dump(false),
              toJson(First.Sweep.Points[I]).dump(false));
  }

  // The socket path and the in-process path are the same computation.
  std::vector<SweepPoint> Direct = referencePoints(Req);
  ASSERT_EQ(Direct.size(), First.Sweep.Points.size());
  for (size_t I = 0; I < Direct.size(); ++I)
    EXPECT_EQ(counters(Direct[I]), counters(First.Sweep.Points[I]))
        << "point " << I;

  // A malformed line gets a refusal, not a hang or a dropped connection
  // (transport stays healthy for the shutdown below).
  SweepRequest Bad = Req;
  Bad.Source = "for (;;) nonsense";
  SweepResponse BadResp;
  ASSERT_TRUE(submitSweepRequest(Socket, Bad, BadResp, nullptr, &Err))
      << Err;
  EXPECT_FALSE(BadResp.Ok);
  EXPECT_FALSE(BadResp.Error.empty());

  // Clean shutdown: acknowledged, thread joins, socket file removed.
  ASSERT_TRUE(requestShutdown(Socket, &Err)) << Err;
  Server.join();
  EXPECT_NE(::access(Socket.c_str(), F_OK), 0);

  // The store log persists past the daemon: a fresh ResultStore opens
  // it clean with all four points.
  ResultStore Reopened;
  ASSERT_TRUE(Reopened.open(StorePath, &Err)) << Err;
  EXPECT_EQ(Reopened.recoveredBytes(), 0u);
  EXPECT_EQ(Reopened.numEntries(), 4u);
  std::remove(StorePath.c_str());
}

TEST(ServeSocket, ClientReportsConnectFailure) {
  std::string Err;
  SweepResponse Resp;
  EXPECT_FALSE(submitSweepRequest(tempPath("nosock", ".sock"),
                                  smallRequest(), Resp, nullptr, &Err));
  EXPECT_FALSE(Err.empty());
}

//===----------------------------------------------------------------------===//
// Hardening: line caps, stale sockets, timeouts, retries, drain
//===----------------------------------------------------------------------===//

/// Boilerplate for the hardening tests: runServer on a thread, block
/// until the socket accepts (or setup failed).
struct TestServer {
  std::thread Thread;
  std::string Err;
  void start(const ServerOptions &SO) {
    // Shared latch: the server thread outlives this frame, so the
    // ready state must too.
    struct Latch {
      std::mutex Mu;
      std::condition_variable Cv;
      bool Ready = false;
    };
    auto L = std::make_shared<Latch>();
    auto Release = [L] {
      std::lock_guard<std::mutex> G(L->Mu);
      L->Ready = true;
      L->Cv.notify_one();
    };
    Thread = std::thread([this, SO, Release] {
      if (!runServer(SO, Release, &Err))
        Release(); // Unblock start() even on setup failure.
    });
    std::unique_lock<std::mutex> G(L->Mu);
    L->Cv.wait(G, [&] { return L->Ready; });
  }
  void join() { Thread.join(); }
};

TEST(ServeSocket, LineReaderRefusesUnframedOverlongLines) {
  int Pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Pair), 0);
  LineReader Reader(Pair[0]);
  Reader.setMaxLineBytes(1024);

  // 2000 bytes and no '\n': the reader must fail the connection with a
  // diagnostic instead of buffering until the peer decides to frame.
  std::string Blob(2000, 'x');
  std::string Err;
  ASSERT_TRUE(sendLine(Pair[1], Blob.substr(0, 999), &Err)) << Err;
  // First line (framed, under the cap) still reads fine.
  std::string Line;
  ASSERT_TRUE(Reader.readLine(Line, &Err)) << Err;
  EXPECT_EQ(Line.size(), 999u);

  ssize_t Sent = ::send(Pair[1], Blob.data(), Blob.size(), 0);
  ASSERT_EQ(Sent, static_cast<ssize_t>(Blob.size()));
  EXPECT_FALSE(Reader.readLine(Line, &Err));
  EXPECT_NE(Err.find("exceeds"), std::string::npos) << Err;

  closeFd(Pair[0]);
  closeFd(Pair[1]);
}

TEST(ServeSocket, ListenRefusesLiveSocketButReclaimsStaleOne) {
  std::string Path = tempPath("stale", ".sock");
  std::remove(Path.c_str());

  std::string Err;
  int First = listenUnix(Path, &Err);
  ASSERT_GE(First, 0) << Err;

  // The socket answers (the listen backlog accepts the probe), so a
  // second daemon must refuse to steal it.
  std::string Err2;
  EXPECT_LT(listenUnix(Path, &Err2), 0);
  EXPECT_NE(Err2.find("daemon already running"), std::string::npos) << Err2;

  // Close WITHOUT unlinking: exactly what a crashed daemon leaves
  // behind. Now the probe is refused, the file is stale, and binding
  // over it succeeds.
  closeFd(First);
  int Second = listenUnix(Path, &Err);
  EXPECT_GE(Second, 0) << Err;
  closeFd(Second);
  std::remove(Path.c_str());
}

TEST(ServeSocket, IoTimeoutFreesSlotParkedBySilentClient) {
  std::string Socket = tempPath("iotimeout", ".sock");
  ServerOptions SO;
  SO.SocketPath = Socket;
  SO.Threads = 2;
  SO.MaxConnections = 1; // The silent client parks the ONLY slot.
  SO.IoTimeoutSeconds = 0.25;

  TestServer Server;
  Server.start(SO);
  ASSERT_EQ(Server.Err, "");

  std::string Err;
  int Silent = connectUnix(Socket, &Err);
  ASSERT_GE(Silent, 0) << Err;

  // A real request behind it: served only once the read timeout kicks
  // the silent client out of the slot.
  SweepResponse Resp;
  ASSERT_TRUE(submitSweepRequest(Socket, smallRequest(), Resp, nullptr,
                                 &Err))
      << Err;
  ASSERT_TRUE(Resp.Ok) << Resp.Error;

  // The silent connection was closed server-side without a byte sent.
  char B;
  ssize_t N = -1;
  for (int I = 0; I < 500 && N != 0; ++I) {
    N = ::recv(Silent, &B, 1, MSG_DONTWAIT);
    if (N != 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(N, 0) << "silent client still connected (or was sent data)";
  closeFd(Silent);

  ASSERT_TRUE(requestShutdown(Socket, &Err)) << Err;
  Server.join();
}

TEST(ServeSocket, ClientRetriesUntilDaemonAppears) {
  std::string Socket = tempPath("lateboot", ".sock");
  std::remove(Socket.c_str());

  MetricsDoc MBefore = telemetry::registry().snapshot("test");

  // The daemon comes up ~150ms AFTER the first connect attempt fails.
  TestServer Server;
  std::thread Boot([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    ServerOptions SO;
    SO.SocketPath = Socket;
    SO.Threads = 2;
    Server.start(SO);
  });

  ClientRetryPolicy Policy;
  Policy.Retries = 8;
  Policy.BaseBackoffSeconds = 0.05;
  SweepResponse Resp;
  std::string Err;
  ASSERT_TRUE(submitSweepRequest(Socket, smallRequest(), Resp, nullptr,
                                 Policy, &Err))
      << Err;
  ASSERT_TRUE(Resp.Ok) << Resp.Error;

  Boot.join();
  ASSERT_EQ(Server.Err, "");
  MetricsDoc MAfter = telemetry::registry().snapshot("test");
  EXPECT_GE(MAfter.counter("client.retries") -
                MBefore.counter("client.retries"),
            1u);

  ASSERT_TRUE(requestShutdown(Socket, &Err)) << Err;
  Server.join();
}

TEST(ServeSocket, ClientRetriesOverloadedButTakesOtherErrorsAsFinal) {
  std::string Socket = tempPath("overload", ".sock");
  std::remove(Socket.c_str());
  std::string Err;
  int Listen = listenUnix(Socket, &Err);
  ASSERT_GE(Listen, 0) << Err;

  SweepRequest Req = smallRequest();
  SweepResponse Overloaded;
  Overloaded.Ok = false;
  Overloaded.Error = "overloaded";
  Overloaded.RequestHash = requestHash(Req);
  Overloaded.RetryAfterSeconds = 0.01;
  SweepResponse Final;
  Final.Ok = false;
  Final.Error = "unknown kernel"; // Retrying could never fix this.
  Final.RequestHash = requestHash(Req);

  // A hand-rolled daemon: sheds the first attempt, answers the retry
  // with a non-retryable refusal.
  std::thread Fake([&] {
    for (int C = 0; C < 2; ++C) {
      int Fd = ::accept(Listen, nullptr, nullptr);
      if (Fd < 0)
        return;
      LineReader Reader(Fd);
      std::string Line, E;
      if (Reader.readLine(Line, &E))
        sendLine(Fd,
                 toJson(C == 0 ? Overloaded : Final).dump(false), &E);
      closeFd(Fd);
    }
  });

  MetricsDoc MBefore = telemetry::registry().snapshot("test");
  ClientRetryPolicy Policy;
  Policy.Retries = 5;
  Policy.BaseBackoffSeconds = 0.01;
  SweepResponse Resp;
  ASSERT_TRUE(submitSweepRequest(Socket, Req, Resp, nullptr, Policy, &Err))
      << Err;
  // The overloaded answer was retried once; the refusal came back as
  // the daemon's final word (returns true, Ok=false).
  EXPECT_FALSE(Resp.Ok);
  EXPECT_EQ(Resp.Error, "unknown kernel");
  MetricsDoc MAfter = telemetry::registry().snapshot("test");
  EXPECT_EQ(MAfter.counter("client.retries") -
                MBefore.counter("client.retries"),
            1u);

  Fake.join();
  closeFd(Listen);
  std::remove(Socket.c_str());
}

// One failed progress write: the daemon cancels the request as a
// disconnect and writes nothing more on that connection -- not even the
// "cancelled: client disconnected" response, which a client that never
// left would take as final. The client sees no answer, which is a retry
// class.
TEST(ServeSocket, FailedWriteEndsTheConnectionAndTheClientRetries) {
  struct DisarmGuard {
    ~DisarmGuard() { faultinject::disarm(); }
  } Guard;
  std::string Socket = tempPath("sendfault", ".sock");
  std::remove(Socket.c_str());
  ServerOptions SO;
  SO.SocketPath = Socket;
  SO.Threads = 2;
  TestServer Server;
  Server.start(SO);
  ASSERT_EQ(Server.Err, "");

  // Every socket.send in the process draws from one seeded schedule, in
  // this order per attempt: the client's request, one progress line per
  // point (4 here), the response. Pick a seed that passes the request,
  // fails a progress line, and then passes one whole retry.
  const char *Spec = "socket.send:0.3";
  std::string Err;
  uint64_t Seed = 0;
  for (;; ++Seed) {
    ASSERT_TRUE(faultinject::arm(Spec, Seed, &Err)) << Err;
    std::vector<bool> Fails;
    for (int I = 0; I < 12; ++I)
      Fails.push_back(faultinject::shouldFail("socket.send"));
    auto First = std::find(Fails.begin(), Fails.end(), true);
    size_t F = First - Fails.begin();
    if (F >= 1 && F <= 4 &&
        std::none_of(First + 1, First + 7, [](bool B) { return B; }))
      break;
  }

  SweepRequest Req = smallRequest();
  ASSERT_TRUE(faultinject::arm(Spec, Seed, &Err)) << Err;
  ClientRetryPolicy OneShot;
  SweepResponse Resp;
  EXPECT_FALSE(submitSweepRequest(Socket, Req, Resp, nullptr, OneShot, &Err))
      << "answered after a failed write: " << Resp.Error;

  ASSERT_TRUE(faultinject::arm(Spec, Seed, &Err)) << Err;
  ClientRetryPolicy Retrying;
  Retrying.Retries = 1;
  Retrying.BaseBackoffSeconds = 0.01;
  ASSERT_TRUE(submitSweepRequest(Socket, Req, Resp, nullptr, Retrying, &Err))
      << Err;
  ASSERT_TRUE(Resp.Ok) << Resp.Error;
  faultinject::disarm();
  std::vector<SweepPoint> Direct = referencePoints(Req);
  ASSERT_EQ(Resp.Sweep.Points.size(), Direct.size());
  for (size_t I = 0; I < Direct.size(); ++I) {
    SweepPoint P = Resp.Sweep.Points[I];
    P.Method = Direct[I].Method; // Store hits from the first attempts.
    EXPECT_EQ(counters(P), counters(Direct[I])) << "point " << I;
  }

  ASSERT_TRUE(requestShutdown(Socket, &Err)) << Err;
  Server.join();
}

// A client that closes its socket while its request computes, with no
// progress line due, is noticed by the connection thread's poll between
// scheduler waits: the request's queued jobs are dropped at once, and
// the daemon goes on serving.
TEST(ServeSocket, ClosedClientIsCancelledWithinASecond) {
  std::string Socket = tempPath("hangup", ".sock");
  ServerOptions SO;
  SO.SocketPath = Socket;
  SO.Threads = 1; // One job runs, the others queue behind it.
  TestServer Server;
  Server.start(SO);
  ASSERT_EQ(Server.Err, "");

  // Twelve simulated points, one job each (4M accesses per job).
  SweepRequest Slow;
  Slow.Kernel = "gemm";
  Slow.Size = ProblemSize::Medium;
  Slow.L1.SizesBytes = {4096, 8192, 16384, 32768};
  Slow.L1.Assocs = {2, 4, 8};
  Slow.L1.Policies = {PolicyKind::Fifo};
  Slow.Options.Backend = SimBackend::Concrete;

  std::string Err;
  int Fd = connectUnix(Socket, &Err);
  ASSERT_GE(Fd, 0) << Err;
  ASSERT_TRUE(sendLine(Fd, toJson(Slow).dump(false), &Err)) << Err;
  // Wait until the worker runs one of the request's jobs with at least
  // three more queued behind it, so some are still queued when the
  // hangup is noticed.
  StatusDoc St;
  for (int I = 0; I < 2000; ++I) {
    ASSERT_TRUE(requestStatus(Socket, St, &Err)) << Err;
    if (St.ActiveRequests == 1 && St.QueuedJobs >= 3 && St.QueuedJobs < 12)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(St.ActiveRequests, 1u);
  ASSERT_GE(St.QueuedJobs, 3u);
  ASSERT_EQ(St.CancelledJobs, 0u);

  closeFd(Fd);
  auto Closed = std::chrono::steady_clock::now();
  while (St.CancelledJobs == 0 &&
         std::chrono::steady_clock::now() - Closed < std::chrono::seconds(1)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ASSERT_TRUE(requestStatus(Socket, St, &Err)) << Err;
  }
  EXPECT_GT(St.CancelledJobs, 0u) << "queued jobs outlived their client";
  EXPECT_EQ(St.QueuedJobs, 0u);

  SweepResponse Resp;
  ASSERT_TRUE(submitSweepRequest(Socket, smallRequest(), Resp, nullptr,
                                 &Err))
      << Err;
  ASSERT_TRUE(Resp.Ok) << Resp.Error;

  ASSERT_TRUE(requestShutdown(Socket, &Err)) << Err;
  Server.join();
}

TEST(ServeSocket, ShutdownDrainsInFlightRequests) {
  std::string Socket = tempPath("drain", ".sock");
  ServerOptions SO;
  SO.SocketPath = Socket;
  SO.Threads = 1;
  SO.DrainTimeoutSeconds = 30.0; // Generous: must NOT expire here.

  TestServer Server;
  Server.start(SO);
  ASSERT_EQ(Server.Err, "");

  // Shutdown lands while the request streams progress; the drain must
  // let it finish and answer Ok with every point.
  std::mutex Mu;
  std::condition_variable Cv;
  bool Progressed = false;
  SweepResponse Resp;
  std::string SubmitErr;
  bool Submitted = false;
  std::thread Client([&] {
    Submitted = submitSweepRequest(
        Socket, smallRequest(), Resp,
        [&](const ProgressEvent &) {
          std::lock_guard<std::mutex> L(Mu);
          Progressed = true;
          Cv.notify_one();
        },
        &SubmitErr);
  });
  {
    std::unique_lock<std::mutex> L(Mu);
    Cv.wait(L, [&] { return Progressed; });
  }
  std::string Err;
  ASSERT_TRUE(requestShutdown(Socket, &Err)) << Err;
  Client.join();
  Server.join();

  ASSERT_TRUE(Submitted) << SubmitErr;
  ASSERT_TRUE(Resp.Ok) << Resp.Error;
  ASSERT_EQ(Resp.Sweep.Points.size(), 4u);
  for (const SweepPoint &P : Resp.Sweep.Points)
    EXPECT_TRUE(P.Ok) << P.Error;

  // The daemon recorded how long the drain took.
  MetricsDoc M = telemetry::registry().snapshot("test");
  bool SawDrainGauge = false;
  for (const auto &G : M.Gauges)
    SawDrainGauge |= G.first == "serve.drain_seconds";
  EXPECT_TRUE(SawDrainGauge);
}

} // namespace
