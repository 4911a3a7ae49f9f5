//===- src/serve/Protocol.cpp - wcs-serve wire protocol -------------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "wcs/serve/Protocol.h"

#include "wcs/support/FaultInjection.h"
#include "wcs/support/Hashing.h"
#include "wcs/support/JsonReader.h"
#include "wcs/support/Telemetry.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

using namespace wcs;
using namespace wcs::jsonfield;
using json::Value;

Value wcs::toJson(const ProgressEvent &E) {
  Value V = Value::object();
  V.set("schema", ProgressSchemaName);
  V.set("schema_version", ServeProtocolVersion);
  V.set("request", E.Request);
  V.set("point", static_cast<uint64_t>(E.Point));
  V.set("total", static_cast<uint64_t>(E.Total));
  V.set("cache", E.Cache);
  V.set("method", sweepMethodName(E.Method));
  V.set("ok", E.Ok);
  return V;
}

bool wcs::fromJson(const Value &V, ProgressEvent &Out, std::string *Err) {
  if (!needSchema(V, ProgressSchemaName, ServeProtocolVersion, Err))
    return false;
  ProgressEvent E;
  uint64_t Point, Total;
  std::string Method;
  // "request" joined the v1 schema with the concurrent scheduler:
  // optional on read (0, what serial daemons emitted), always written.
  if (!optUInt(V, "request", E.Request, Err) ||
      !needUInt(V, "point", Point, Err) ||
      !needUInt(V, "total", Total, Err) ||
      !needString(V, "cache", E.Cache, Err) ||
      !needString(V, "method", Method, Err) ||
      !needBool(V, "ok", E.Ok, Err))
    return false;
  if (!parseSweepMethodName(Method, E.Method))
    return failMsg(Err, "unknown method '" + Method + "'");
  E.Point = static_cast<size_t>(Point);
  E.Total = static_cast<size_t>(Total);
  Out = std::move(E);
  return true;
}

Value wcs::toJson(const StatusDoc &D) {
  Value V = Value::object();
  V.set("schema", StatusSchemaName);
  V.set("schema_version", StatusSchemaVersion);
  V.set("requests_served", D.RequestsServed);
  V.set("points_computed", D.PointsComputed);
  V.set("store_hits", D.StoreHits);
  V.set("inflight_hits", D.InFlightHits);
  V.set("cancelled_jobs", D.CancelledJobs);
  V.set("active_requests", D.ActiveRequests);
  V.set("queued_jobs", D.QueuedJobs);
  V.set("store_entries", D.StoreEntries);
  V.set("active_connections", D.ActiveConnections);
  V.set("max_connections", D.MaxConnections);
  V.set("uptime_seconds", D.UptimeSeconds);
  V.set("deadline_expired", D.DeadlineExpired);
  V.set("shed_requests", D.ShedRequests);
  V.set("queued_points", D.QueuedPoints);
  return V;
}

bool wcs::fromJson(const Value &V, StatusDoc &Out, std::string *Err) {
  if (!needSchema(V, StatusSchemaName, StatusSchemaVersion, Err))
    return false;
  StatusDoc D;
  if (!needUInt(V, "requests_served", D.RequestsServed, Err) ||
      !needUInt(V, "points_computed", D.PointsComputed, Err) ||
      !needUInt(V, "store_hits", D.StoreHits, Err) ||
      !needUInt(V, "inflight_hits", D.InFlightHits, Err) ||
      !needUInt(V, "cancelled_jobs", D.CancelledJobs, Err) ||
      !needUInt(V, "active_requests", D.ActiveRequests, Err) ||
      !needUInt(V, "queued_jobs", D.QueuedJobs, Err) ||
      !needUInt(V, "store_entries", D.StoreEntries, Err) ||
      !needUInt(V, "active_connections", D.ActiveConnections, Err) ||
      !needUInt(V, "max_connections", D.MaxConnections, Err) ||
      !needDouble(V, "uptime_seconds", D.UptimeSeconds, Err))
    return false;
  // Joined the v1 schema with deadline/shedding support: optional on
  // read (0, what older daemons answer), always written.
  if (!optUInt(V, "deadline_expired", D.DeadlineExpired, Err) ||
      !optUInt(V, "shed_requests", D.ShedRequests, Err) ||
      !optUInt(V, "queued_points", D.QueuedPoints, Err))
    return false;
  Out = D;
  return true;
}

//===----------------------------------------------------------------------===//
// Socket plumbing
//===----------------------------------------------------------------------===//

namespace {

bool fillSockAddr(const std::string &Path, sockaddr_un &Addr,
                  std::string *Err) {
  if (Path.empty() || Path.size() >= sizeof(Addr.sun_path)) {
    failMsg(Err, "socket path '" + Path + "' is empty or longer than " +
                     std::to_string(sizeof(Addr.sun_path) - 1) + " bytes");
    return false;
  }
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  return true;
}

std::string sysErr(const char *What, const std::string &Path) {
  return std::string(What) + " " + Path + ": " + std::strerror(errno);
}

} // namespace

int wcs::listenUnix(const std::string &Path, std::string *Err) {
  sockaddr_un Addr;
  if (!fillSockAddr(Path, Addr, Err))
    return -1;
  // Probe before unlinking: a socket file that still answers connect()
  // belongs to a live daemon, and stealing its path would silently
  // split traffic between two stores. Any probe failure (ENOENT,
  // ECONNREFUSED, ...) means no one is serving it -- stale file.
  int Probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Probe >= 0) {
    if (::connect(Probe, reinterpret_cast<sockaddr *>(&Addr),
                  sizeof(Addr)) == 0) {
      ::close(Probe);
      failMsg(Err, "daemon already running at " + Path +
                       " (socket answers; stop it or use --shutdown)");
      return -1;
    }
    ::close(Probe);
  }
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    failMsg(Err, sysErr("socket", Path));
    return -1;
  }
  ::unlink(Path.c_str()); // A stale socket file blocks bind.
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0 ||
      ::listen(Fd, 16) < 0) {
    failMsg(Err, sysErr("bind/listen", Path));
    ::close(Fd);
    return -1;
  }
  return Fd;
}

int wcs::connectUnix(const std::string &Path, std::string *Err) {
  sockaddr_un Addr;
  if (!fillSockAddr(Path, Addr, Err))
    return -1;
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    failMsg(Err, sysErr("socket", Path));
    return -1;
  }
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    failMsg(Err, sysErr("connect", Path));
    ::close(Fd);
    return -1;
  }
  return Fd;
}

bool wcs::setSocketTimeout(int Fd, double Seconds, std::string *Err) {
  if (Seconds <= 0)
    return true;
  timeval Tv;
  Tv.tv_sec = static_cast<time_t>(Seconds);
  Tv.tv_usec = static_cast<suseconds_t>((Seconds - double(Tv.tv_sec)) * 1e6);
  if (Tv.tv_sec == 0 && Tv.tv_usec == 0)
    Tv.tv_usec = 1; // A zero timeval means "block forever"; round up.
  if (::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv)) < 0 ||
      ::setsockopt(Fd, SOL_SOCKET, SO_SNDTIMEO, &Tv, sizeof(Tv)) < 0)
    return failMsg(Err,
                   std::string("setsockopt timeout: ") + std::strerror(errno));
  return true;
}

bool wcs::sendLine(int Fd, const std::string &Line, std::string *Err) {
  if (faultinject::shouldFail("socket.send"))
    return failMsg(Err, "send: injected fault (socket.send)");
  std::string Framed = Line + '\n';
  size_t Sent = 0;
  while (Sent < Framed.size()) {
    // MSG_NOSIGNAL: a peer that closed mid-stream must surface as a
    // `false` return (the daemon treats it as a disconnect and cancels
    // the request's unshared jobs), never as a process-killing SIGPIPE.
    ssize_t N = ::send(Fd, Framed.data() + Sent, Framed.size() - Sent,
                       MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        return failMsg(Err, "send: timed out (SO_SNDTIMEO; peer not "
                            "draining)");
      return failMsg(Err, std::string("send: ") + std::strerror(errno));
    }
    Sent += static_cast<size_t>(N);
  }
  return true;
}

bool LineReader::readLine(std::string &Out, std::string *Err) {
  if (faultinject::shouldFail("socket.recv"))
    return failMsg(Err, "recv: injected fault (socket.recv)");
  for (;;) {
    size_t NL = Buf.find('\n');
    if (NL != std::string::npos) {
      Out = Buf.substr(0, NL);
      Buf.erase(0, NL + 1);
      return true;
    }
    if (Buf.size() > MaxLineBytes)
      return failMsg(Err, "line exceeds " + std::to_string(MaxLineBytes) +
                              " bytes without a frame; closing (raise the "
                              "cap if the peer is trusted)");
    char Chunk[4096];
    ssize_t N = ::read(Fd, Chunk, sizeof(Chunk));
    if (N < 0) {
      if (errno == EINTR)
        continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        return failMsg(Err, "recv: timed out (SO_RCVTIMEO; peer sent no "
                            "complete line in time)");
      return failMsg(Err, std::string("recv: ") + std::strerror(errno));
    }
    if (N == 0)
      return false; // Clean EOF; Err untouched.
    Buf.append(Chunk, static_cast<size_t>(N));
  }
}

void wcs::closeFd(int Fd) {
  if (Fd >= 0)
    ::close(Fd);
}

//===----------------------------------------------------------------------===//
// Client side
//===----------------------------------------------------------------------===//

namespace {

/// One submission attempt: the pre-retry submitSweepRequest body.
bool submitOnce(const std::string &SocketPath, const SweepRequest &Req,
                SweepResponse &Response,
                const std::function<void(const ProgressEvent &)> &OnProgress,
                double IoTimeoutSeconds, std::string *Err) {
  int Fd = connectUnix(SocketPath, Err);
  if (Fd < 0)
    return false;
  if (!setSocketTimeout(Fd, IoTimeoutSeconds, Err) ||
      !sendLine(Fd, toJson(Req).dump(false), Err)) {
    closeFd(Fd);
    return false;
  }
  LineReader Reader(Fd);
  std::string Line;
  bool GotResponse = false;
  while (Reader.readLine(Line, Err)) {
    Value V;
    std::string ParseErr;
    if (!json::parse(Line, V, &ParseErr)) {
      failMsg(Err, "malformed line from daemon: " + ParseErr);
      closeFd(Fd);
      return false;
    }
    std::string Schema;
    if (!needString(V, "schema", Schema, Err)) {
      closeFd(Fd);
      return false;
    }
    if (Schema == ProgressSchemaName) {
      ProgressEvent E;
      if (fromJson(V, E, nullptr) && OnProgress)
        OnProgress(E);
      continue;
    }
    if (!fromJson(V, Response, Err)) {
      closeFd(Fd);
      return false;
    }
    GotResponse = true;
    break;
  }
  closeFd(Fd);
  if (!GotResponse)
    return failMsg(Err, Err && !Err->empty()
                            ? *Err
                            : "daemon closed without a response");
  return true;
}

} // namespace

bool wcs::submitSweepRequest(
    const std::string &SocketPath, const SweepRequest &Req,
    SweepResponse &Response,
    const std::function<void(const ProgressEvent &)> &OnProgress,
    const ClientRetryPolicy &Policy, std::string *Err) {
  for (unsigned Attempt = 0;; ++Attempt) {
    if (Err)
      Err->clear(); // A stale diagnostic from a retried attempt lies.
    bool Answered =
        submitOnce(SocketPath, Req, Response, OnProgress,
                   Policy.IoTimeoutSeconds, Err);
    // Retrying is safe -- content addressing makes requests idempotent
    // -- but only two outcomes warrant it: no answer at all (connect or
    // transport failure), or the daemon explicitly asking for a retry
    // by shedding. Every other response, Ok or not, is the answer.
    bool Overloaded =
        Answered && !Response.Ok && Response.Error == "overloaded";
    if (Answered && !Overloaded)
      return true;
    if (Attempt >= Policy.Retries)
      return Answered; // Out of retries: the shed response (or the
                       // transport failure) stands.
    double Nominal = Policy.BaseBackoffSeconds *
                     double(uint64_t(1) << std::min(Attempt, 30u));
    Nominal = std::min(Nominal, Policy.MaxBackoffSeconds);
    // Deterministic jitter in [0.5, 1.0) of the nominal delay keeps a
    // herd of restarted clients from re-converging on the daemon.
    uint64_t Bits = hashCombine(hashMix(Policy.JitterSeed), Attempt);
    double Jitter =
        0.5 + 0.5 * (double(Bits >> 11) * (1.0 / 9007199254740992.0));
    double Delay = Nominal * Jitter;
    if (Overloaded && Response.RetryAfterSeconds > 0)
      Delay = std::max(Delay, Response.RetryAfterSeconds);
    telemetry::registry().counter("client.retries").add();
    std::this_thread::sleep_for(std::chrono::duration<double>(Delay));
  }
}

namespace {

/// One control round trip: sends {"cmd": \p Cmd} and parses the reply
/// line into \p Reply.
bool controlRoundTrip(const std::string &SocketPath, const char *Cmd,
                      Value &Reply, std::string *Err) {
  int Fd = connectUnix(SocketPath, Err);
  if (Fd < 0)
    return false;
  Value V = Value::object();
  V.set("schema", ControlSchemaName);
  V.set("schema_version", ServeProtocolVersion);
  V.set("cmd", Cmd);
  if (!sendLine(Fd, V.dump(false), Err)) {
    closeFd(Fd);
    return false;
  }
  LineReader Reader(Fd);
  std::string Line;
  bool Answered = Reader.readLine(Line, Err);
  closeFd(Fd);
  if (!Answered)
    return failMsg(Err, std::string("daemon closed without answering ") +
                            Cmd);
  std::string ParseErr;
  if (!json::parse(Line, Reply, &ParseErr))
    return failMsg(Err, std::string("malformed ") + Cmd +
                            " reply from daemon: " + ParseErr);
  return true;
}

} // namespace

bool wcs::requestShutdown(const std::string &SocketPath, std::string *Err) {
  Value Ack;
  bool Ok = false;
  if (!controlRoundTrip(SocketPath, "shutdown", Ack, Err) ||
      !needBool(Ack, "ok", Ok, Err))
    return false;
  return Ok || failMsg(Err, "daemon refused shutdown");
}

bool wcs::requestStatus(const std::string &SocketPath, StatusDoc &Out,
                        std::string *Err) {
  // The status answer is a wcs-status document, not a wcs-control ack,
  // so it carries a schema instead of "ok".
  Value Reply;
  return controlRoundTrip(SocketPath, "status", Reply, Err) &&
         fromJson(Reply, Out, Err);
}
