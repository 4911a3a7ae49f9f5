//===- src/serve/Server.cpp - The wcs-serve daemon ------------------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "wcs/serve/Server.h"

#include "wcs/driver/BatchRunner.h"
#include "wcs/serve/Scheduler.h"
#include "wcs/support/FaultInjection.h"
#include "wcs/support/JsonReader.h"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <system_error>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace wcs;
using json::Value;

//===----------------------------------------------------------------------===//
// The connection pool
//===----------------------------------------------------------------------===//
//
// runServer starts MaxConnections connection threads once; each loops
// accept(), serve that connection, close it. Lock order: ServerState::Mu
// and LogMu are never held together, nor across a call into the
// Scheduler, so neither nests with Scheduler::Mu (see Scheduler.h).
// ServerState::Cv waits on ServerState::Mu.

namespace {

/// Everything the connection threads share with runServer.
struct ServerState {
  const ServerOptions *Opts = nullptr;
  Scheduler *Sched = nullptr;
  int ListenFd = -1;
  telemetry::TimePoint Start; ///< For uptime_seconds.

  std::mutex Mu;
  std::condition_variable Cv; ///< A connection ended / shutdown begun.
  unsigned Active = 0;        ///< Connections being served.
  bool ShuttingDown = false;
  std::string Error; ///< Why the daemon stopped, when it was a failure.
  /// Set when the drain timeout expires: every in-flight request's
  /// IsCancelled turns true, so they wind down like disconnects.
  std::atomic<bool> DrainExpired{false};

  /// The --log sink: one compact JSON object per request, its own lock
  /// so a slow disk never blocks the connection count.
  std::mutex LogMu;
  std::FILE *Log = nullptr;
};

/// SIGTERM/SIGINT -> graceful drain. Handlers may run on any thread, so
/// this one only sets a flag (async-signal-safe); runServer polls it and
/// takes the same drain path as the wcs-control shutdown command.
std::atomic<bool> SignalStop{false};

void onShutdownSignal(int) { SignalStop.store(true); }

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

/// The wcs-status document: the scheduler's counters plus this
/// daemon's connections and uptime.
StatusDoc statusOf(ServerState &S) {
  StatusDoc D = S.Sched->status();
  D.MaxConnections = S.Opts->MaxConnections;
  D.UptimeSeconds = telemetry::secondsSince(S.Start);
  std::lock_guard<std::mutex> L(S.Mu);
  D.ActiveConnections = S.Active;
  return D;
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
      // wire document. This connection counts as an active one.
      sendLine(Fd, toJson(statusOf(S)).dump(false), nullptr);
      return;
    }
    bool Shutdown = Cmd == "shutdown";
    Ack.set("ok", Shutdown);
    sendLine(Fd, Ack.dump(false), nullptr);
    if (Shutdown) {
      // runServer wakes, shuts the listener down and drains.
      std::lock_guard<std::mutex> L(S.Mu);
      S.ShuttingDown = true;
      S.Cv.notify_all();
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

/// The connection pool's Next: blocks in accept() and makes serving
/// the accepted connection the calling thread's task. Returns false,
/// retiring the thread, once shutdown has begun; an accept failure
/// begins it and becomes the daemon's error.
bool nextConnection(ServerState &S, std::function<void()> &Task) {
  int Fd = -1;
  std::string Failure;
  do {
    if (faultinject::shouldFail("server.accept"))
      Failure = "injected fault (server.accept)";
    else if ((Fd = ::accept(S.ListenFd, nullptr, nullptr)) < 0 &&
             errno != EINTR)
      Failure = std::strerror(errno);
  } while (Fd < 0 && Failure.empty() && !SignalStop.load());
  std::lock_guard<std::mutex> L(S.Mu);
  // A shut-down listener fails every accept(), and a connection that
  // slips in during shutdown is closed unanswered.
  if (S.ShuttingDown || SignalStop.load()) {
    closeFd(Fd);
    return false;
  }
  if (Fd < 0) {
    S.Error = "accept failed: " + Failure;
    S.ShuttingDown = true;
    S.Cv.notify_all();
    return false;
  }
  ++S.Active;
  Task = [&S, Fd] {
    setSocketTimeout(Fd, S.Opts->IoTimeoutSeconds, nullptr);
    serveConnection(Fd, S);
    closeFd(Fd);
    std::lock_guard<std::mutex> L(S.Mu);
    --S.Active;
    S.Cv.notify_all();
  };
  return true;
}

} // namespace

bool wcs::runServer(const ServerOptions &Opts,
                    const std::function<void()> &OnReady,
                    std::string *Err) {
  if (Opts.MaxConnections < 1 || Opts.MaxConnections > MaxConnectionsCap) {
    if (Err)
      *Err = "max connections must be between 1 and " +
             std::to_string(MaxConnectionsCap) + ", got " +
             std::to_string(Opts.MaxConnections);
    return false;
  }
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
  St.Opts = &Opts;
  St.Sched = &Sched;
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
    struct sigaction SA;
    std::memset(&SA, 0, sizeof(SA));
    SA.sa_handler = onShutdownSignal;
    sigemptyset(&SA.sa_mask);
    ::sigaction(SIGTERM, &SA, &OldTerm);
    ::sigaction(SIGINT, &SA, &OldInt);
    SignalsInstalled = true;
  }

  BatchRunner Conns(Opts.MaxConnections);
  try {
    Conns.startPool(
        [&St](std::function<void()> &T) { return nextConnection(St, T); },
        "conn");
    // Logged once every thread runs; scripts wait for this line.
    std::fprintf(stderr,
                 "wcs-serve: listening on %s (%zu stored entries, %u "
                 "workers, %u connections max)\n",
                 Opts.SocketPath.c_str(), Store.numEntries(),
                 Sched.threads(), Opts.MaxConnections);
    if (OnReady)
      OnReady();
  } catch (const std::system_error &E) {
    // The threads that did start leave through the shutdown below.
    std::lock_guard<std::mutex> L(St.Mu);
    St.Error = std::string("cannot start connection threads: ") + E.what();
    St.ShuttingDown = true;
  }

  {
    std::unique_lock<std::mutex> L(St.Mu);
    // Timed wait, not wait(): a signal handler cannot safely notify a
    // condition variable, so SignalStop is polled.
    while (!St.ShuttingDown && !SignalStop.load())
      St.Cv.wait_for(L, std::chrono::milliseconds(100));
    St.ShuttingDown = true;
  }
  if (SignalStop.load())
    std::fprintf(stderr, "wcs-serve: received shutdown signal, draining\n");
  // Every accept() on a shut-down listener fails, so each connection
  // thread retires once the connection it serves (if any) ends.
  ::shutdown(Listen, SHUT_RDWR);

  // Drain: every connection finishes its request (the shutdown ack'ed
  // connection included) before the scheduler and store go away. Under
  // a drain timeout, requests still running past the budget are
  // cancelled (DrainExpired flows into their IsCancelled within one
  // scheduler poll tick), after which the joins below complete fast.
  telemetry::TimePoint DrainStart = telemetry::now();
  if (Opts.DrainTimeoutSeconds > 0) {
    auto Budget = std::chrono::duration<double>(Opts.DrainTimeoutSeconds);
    std::unique_lock<std::mutex> L(St.Mu);
    if (!St.Cv.wait_for(L, Budget, [&St] { return St.Active == 0; })) {
      St.DrainExpired.store(true);
      std::fprintf(stderr,
                   "wcs-serve: drain timeout (%.1fs) expired, "
                   "cancelling in-flight requests\n",
                   Opts.DrainTimeoutSeconds);
    }
  }
  Conns.stopPool();
  telemetry::registry()
      .gauge("serve.drain_seconds")
      .set(telemetry::secondsSince(DrainStart));
  if (SignalsInstalled) {
    ::sigaction(SIGTERM, &OldTerm, nullptr);
    ::sigaction(SIGINT, &OldInt, nullptr);
  }
  closeFd(Listen);
  ::unlink(Opts.SocketPath.c_str());
  if (St.Log)
    std::fclose(St.Log);
  std::fprintf(stderr, "wcs-serve: shut down, final status %s\n",
               toJson(statusOf(St)).dump(false).c_str());
  if (!St.Error.empty()) {
    if (Err)
      *Err = St.Error;
    return false;
  }
  return true;
}
