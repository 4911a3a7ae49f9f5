//===- src/serve/Server.cpp - The wcs-serve daemon ------------------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "wcs/serve/Server.h"

#include "wcs/serve/Scheduler.h"
#include "wcs/support/JsonReader.h"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <list>
#include <memory>
#include <mutex>
#include <thread>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace wcs;
using json::Value;

//===----------------------------------------------------------------------===//
// The accept loop
//===----------------------------------------------------------------------===//

namespace {

/// Everything the connection threads share with the accept loop.
struct ServerState {
  Scheduler *Sched = nullptr;
  unsigned MaxConnections = 0; ///< 0 = unlimited.
  int ListenFd = -1;
  telemetry::TimePoint Start; ///< For uptime_seconds.

  std::mutex Mu;
  std::condition_variable Cv; ///< Capacity freed / shutdown requested.
  unsigned Active = 0;
  bool ShuttingDown = false;
  /// Set when the drain timeout expires: every in-flight request's
  /// IsCancelled turns true, so they wind down like disconnects.
  std::atomic<bool> DrainExpired{false};

  /// The --log sink: one compact JSON object per request, its own lock
  /// so a slow disk never blocks the accept loop.
  std::mutex LogMu;
  std::FILE *Log = nullptr;

  struct ConnSlot {
    std::thread T;
    std::atomic<bool> Done{false};
  };
  std::list<std::unique_ptr<ConnSlot>> Conns;
};

/// SIGTERM/SIGINT -> graceful drain. Handlers may run on any thread,
/// so everything here is async-signal-safe: set a flag, then
/// ::shutdown() the listening socket -- that wakes a blocked accept()
/// no matter which thread owns it. The accept loop translates the flag
/// into the same ShuttingDown path the wcs-control shutdown command
/// takes.
std::atomic<int> SignalListenFd{-1};
std::atomic<bool> SignalStop{false};

void onShutdownSignal(int) {
  SignalStop.store(true);
  int Fd = SignalListenFd.load();
  if (Fd >= 0)
    ::shutdown(Fd, SHUT_RDWR);
}

/// Appends the request's JSON-lines log record (under LogMu; fflush so
/// a crash or kill -9 loses at most the line being written).
void logRequest(ServerState &S, const SweepRequest &Req,
                const SweepResponse &Resp,
                const Scheduler::RequestTelemetry &Tel) {
  if (!S.Log)
    return;
  Value V = Value::object();
  V.set("time", telemetry::secondsSince(S.Start));
  V.set("request", Resp.RequestHash);
  V.set("program", Req.programLabel());
  V.set("points",
        Resp.StoreHits + Resp.StoreMisses + Resp.InFlightHits);
  V.set("store_hits", Resp.StoreHits);
  V.set("store_misses", Resp.StoreMisses);
  V.set("inflight_hits", Resp.InFlightHits);
  V.set("queue_wait_seconds", Tel.QueueWaitSeconds);
  V.set("compute_seconds", Tel.ComputeSeconds);
  V.set("wall_seconds", Tel.WallSeconds);
  V.set("ok", Resp.Ok);
  if (!Resp.Error.empty())
    V.set("error", Resp.Error);
  std::string Line = V.dump(false);
  std::lock_guard<std::mutex> L(S.LogMu);
  std::fprintf(S.Log, "%s\n", Line.c_str());
  std::fflush(S.Log);
}

/// Serves one accepted connection on its own thread: one line in, the
/// progress stream and one response (or a control ack) out.
void serveConnection(int Fd, ServerState &S) {
  telemetry::Span ConnSpan("serve.connection");
  LineReader Reader(Fd);
  std::string Line, Err;
  if (!Reader.readLine(Line, &Err)) {
    if (!Err.empty())
      std::fprintf(stderr, "wcs-serve: %s\n", Err.c_str());
    return; // Client went away before sending anything.
  }

  Value V;
  std::string Schema;
  SweepResponse Resp;
  if (!json::parse(Line, V, &Err) ||
      !jsonfield::needString(V, "schema", Schema, &Err)) {
    Resp.Error = "malformed request: " + Err;
    sendLine(Fd, toJson(Resp).dump(false), nullptr);
    return;
  }

  if (Schema == ControlSchemaName) {
    std::string Cmd;
    jsonfield::needString(V, "cmd", Cmd, nullptr);
    Value Ack = Value::object();
    Ack.set("schema", ControlSchemaName);
    Ack.set("schema_version", ServeProtocolVersion);
    if (Cmd == "status") {
      // The status answer is its own versioned document, not a control
      // ack: clients validate it through fromJson like every other
      // wire document.
      StatusDoc D = S.Sched->status();
      {
        std::lock_guard<std::mutex> L(S.Mu);
        // This connection is one of the active ones.
        D.ActiveConnections = S.Active;
      }
      D.MaxConnections = S.MaxConnections;
      D.UptimeSeconds = telemetry::secondsSince(S.Start);
      sendLine(Fd, toJson(D).dump(false), nullptr);
      return;
    }
    bool Shutdown = Cmd == "shutdown";
    Ack.set("ok", Shutdown);
    sendLine(Fd, Ack.dump(false), nullptr);
    if (Shutdown) {
      {
        std::lock_guard<std::mutex> L(S.Mu);
        S.ShuttingDown = true;
      }
      S.Cv.notify_all();
      // Unblock the accept loop; a shut-down listener fails accept.
      ::shutdown(S.ListenFd, SHUT_RDWR);
    }
    return;
  }

  SweepRequest Req;
  if (!fromJson(V, Req, &Err)) {
    Resp.Error = Err;
    sendLine(Fd, toJson(Resp).dump(false), nullptr);
    return;
  }

  // The client is gone once the read side reports a hangup (or an
  // error): polled, without waiting, whenever the scheduler asks --
  // between events and every 20 ms while nothing is due. Bytes after
  // the request line are a protocol violation, not a hangup; they are
  // left unread. A failed send also cancels (see Send).
  auto ClientGone = [Fd] {
    pollfd P{Fd, POLLRDHUP, 0};
    return ::poll(&P, 1, 0) > 0 &&
           (P.revents & (POLLRDHUP | POLLHUP | POLLERR)) != 0;
  };

  // After one failed write the connection is dead to the server: it
  // writes nothing more, so a client that is in fact still there sees
  // no answer (and may retry) instead of a "disconnected" one. Progress
  // and the response are both sent from this thread.
  bool WriteFailed = false;
  auto Send = [Fd, &WriteFailed](const Value &Doc) {
    WriteFailed = WriteFailed || !sendLine(Fd, Doc.dump(false), nullptr);
    return !WriteFailed;
  };
  Scheduler::RequestTelemetry Tel;
  Resp = S.Sched->serve(
      Req, [&Send](const ProgressEvent &E) { return Send(toJson(E)); },
      [&ClientGone, &S] { return ClientGone() || S.DrainExpired.load(); },
      &Tel);
  // A request cut short by the drain timeout was cancelled by the
  // server, not the client; say so.
  if (!Resp.Ok && S.DrainExpired.load() &&
      Resp.Error == "cancelled: client disconnected")
    Resp.Error = "cancelled: server shutting down (drain timeout)";
  Send(toJson(Resp));

  logRequest(S, Req, Resp, Tel);
  std::fprintf(stderr,
               "wcs-serve: %s %s: %llu hits, %llu misses, %llu "
               "in-flight, store %llu entries\n",
               Req.programLabel().c_str(), Resp.Ok ? "ok" : "FAILED",
               static_cast<unsigned long long>(Resp.StoreHits),
               static_cast<unsigned long long>(Resp.StoreMisses),
               static_cast<unsigned long long>(Resp.InFlightHits),
               static_cast<unsigned long long>(Resp.StoreEntries));
}

/// Joins and forgets every finished connection thread. Called with
/// S.Mu held.
void reapLocked(ServerState &S) {
  for (auto It = S.Conns.begin(); It != S.Conns.end();) {
    if ((*It)->Done.load()) {
      (*It)->T.join();
      It = S.Conns.erase(It);
    } else {
      ++It;
    }
  }
}

} // namespace

bool wcs::runServer(const ServerOptions &Opts,
                    const std::function<void()> &OnReady,
                    std::string *Err) {
  ResultStore Store;
  if (!Store.open(Opts.StorePath, Err))
    return false;
  if (Store.recoveredBytes() > 0)
    std::fprintf(stderr,
                 "wcs-serve: recovered torn tail (%llu bytes dropped)\n",
                 static_cast<unsigned long long>(Store.recoveredBytes()));
  int Listen = listenUnix(Opts.SocketPath, Err);
  if (Listen < 0)
    return false;

  // From here on the store belongs to the scheduler: every lookup and
  // insert -- from any connection -- goes through its lock.
  Scheduler Sched(Store, Opts.Threads, Opts.MaxQueuedPoints);
  ServerState St;
  St.Sched = &Sched;
  St.MaxConnections = Opts.MaxConnections;
  St.ListenFd = Listen;
  St.Start = telemetry::now();
  if (!Opts.LogPath.empty()) {
    St.Log = std::fopen(Opts.LogPath.c_str(), "a");
    if (!St.Log) {
      if (Err)
        *Err = "cannot open log file " + Opts.LogPath;
      closeFd(Listen);
      ::unlink(Opts.SocketPath.c_str());
      return false;
    }
  }

  // Signal-driven shutdown takes the exact same drain path as the
  // wcs-control shutdown command. Installed only on request (the tool
  // asks; tests do not), and restored on return.
  struct sigaction OldTerm, OldInt;
  bool SignalsInstalled = false;
  if (Opts.HandleSignals) {
    SignalStop.store(false);
    SignalListenFd.store(Listen);
    struct sigaction SA;
    std::memset(&SA, 0, sizeof(SA));
    SA.sa_handler = onShutdownSignal;
    sigemptyset(&SA.sa_mask);
    SA.sa_flags = 0; // No SA_RESTART: a blocked accept() must wake.
    ::sigaction(SIGTERM, &SA, &OldTerm);
    ::sigaction(SIGINT, &SA, &OldInt);
    SignalsInstalled = true;
  }

  std::fprintf(stderr,
               "wcs-serve: listening on %s (%zu stored entries, %u "
               "workers, %u connections max)\n",
               Opts.SocketPath.c_str(), Store.numEntries(),
               Sched.threads(), Opts.MaxConnections);
  if (OnReady)
    OnReady();

  telemetry::setThreadName("accept");
  for (;;) {
    {
      std::unique_lock<std::mutex> L(St.Mu);
      // Timed wait, not wait(): a signal handler cannot safely notify
      // a condition variable, so SignalStop is polled while parked at
      // max capacity.
      while (!(St.ShuttingDown || SignalStop.load() ||
               St.MaxConnections == 0 || St.Active < St.MaxConnections))
        St.Cv.wait_for(L, std::chrono::milliseconds(100));
      reapLocked(St);
      if (SignalStop.load())
        St.ShuttingDown = true;
      if (St.ShuttingDown)
        break;
    }
    int Fd = ::accept(Listen, nullptr, nullptr);
    if (Fd < 0) {
      if (SignalStop.load()) {
        std::fprintf(stderr,
                     "wcs-serve: received shutdown signal, draining\n");
        std::lock_guard<std::mutex> L(St.Mu);
        St.ShuttingDown = true;
        break;
      }
      if (errno == EINTR)
        continue;
      std::lock_guard<std::mutex> L(St.Mu);
      if (St.ShuttingDown)
        break;
      if (Err)
        *Err = "accept failed";
      // Fall through to the drain below so in-flight requests finish.
      St.ShuttingDown = true;
      break;
    }
    setSocketTimeout(Fd, Opts.IoTimeoutSeconds, nullptr);
    std::lock_guard<std::mutex> L(St.Mu);
    if (St.ShuttingDown || SignalStop.load()) {
      closeFd(Fd);
      St.ShuttingDown = true;
      break;
    }
    ++St.Active;
    auto Slot = std::make_unique<ServerState::ConnSlot>();
    ServerState::ConnSlot *SP = Slot.get();
    St.Conns.push_back(std::move(Slot));
    SP->T = std::thread([Fd, SP, &St] {
      telemetry::setThreadName("conn-" + std::to_string(Fd));
      serveConnection(Fd, St);
      closeFd(Fd);
      {
        std::lock_guard<std::mutex> CL(St.Mu);
        --St.Active;
        SP->Done.store(true);
      }
      St.Cv.notify_all();
    });
  }

  // Drain: every connection thread finishes its request (the shutdown
  // ack'ed connection included) before the scheduler and store go away.
  // Under a drain timeout, requests still running past the budget are
  // cancelled (DrainExpired flows into their IsCancelled within one
  // scheduler poll tick), after which the joins below complete fast.
  telemetry::TimePoint DrainStart = telemetry::now();
  if (Opts.DrainTimeoutSeconds > 0) {
    std::unique_lock<std::mutex> L(St.Mu);
    telemetry::TimePoint Deadline =
        DrainStart + std::chrono::duration_cast<
                         telemetry::TimePoint::duration>(
                         std::chrono::duration<double>(
                             Opts.DrainTimeoutSeconds));
    auto AllDone = [&St] {
      for (const auto &C : St.Conns)
        if (!C->Done.load())
          return false;
      return true;
    };
    while (!AllDone() && telemetry::now() < Deadline)
      St.Cv.wait_for(L, std::chrono::milliseconds(50));
    if (!AllDone()) {
      St.DrainExpired.store(true);
      std::fprintf(stderr,
                   "wcs-serve: drain timeout (%.1fs) expired, "
                   "cancelling in-flight requests\n",
                   Opts.DrainTimeoutSeconds);
    }
  }
  for (;;) {
    std::unique_ptr<ServerState::ConnSlot> Slot;
    {
      std::lock_guard<std::mutex> L(St.Mu);
      if (St.Conns.empty())
        break;
      Slot = std::move(St.Conns.front());
      St.Conns.pop_front();
    }
    Slot->T.join();
  }
  telemetry::registry()
      .gauge("serve.drain_seconds")
      .set(telemetry::secondsSince(DrainStart));
  if (SignalsInstalled) {
    ::sigaction(SIGTERM, &OldTerm, nullptr);
    ::sigaction(SIGINT, &OldInt, nullptr);
    SignalListenFd.store(-1);
  }
  closeFd(Listen);
  ::unlink(Opts.SocketPath.c_str());
  if (St.Log)
    std::fclose(St.Log);
  StatusDoc Final = Sched.status();
  std::fprintf(stderr,
               "wcs-serve: shut down (%llu requests: %llu store hits, "
               "%llu in-flight hits, %llu points computed, %llu jobs "
               "cancelled)\n",
               static_cast<unsigned long long>(Final.RequestsServed),
               static_cast<unsigned long long>(Final.StoreHits),
               static_cast<unsigned long long>(Final.InFlightHits),
               static_cast<unsigned long long>(Final.PointsComputed),
               static_cast<unsigned long long>(Final.CancelledJobs));
  return true;
}
