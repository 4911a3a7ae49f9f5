//===- wcs/serve/Server.h - The wcs-serve daemon ----------------*- C++ -*-===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving core behind tools/wcs-serve: runServer() speaks
/// serve/Protocol on a fixed pool of connection threads, every request
/// answered by one shared serve/Scheduler (store hits verbatim under
/// method "store", cross-request point dedup, fair round-robin,
/// disconnect cancellation). Scheduler::serve is the only way a request
/// is answered; its counters match runSweepRequest, the in-process
/// `wcs-sim --sweep` path, bit for bit.
///
//===----------------------------------------------------------------------===//

#ifndef WCS_SERVE_SERVER_H
#define WCS_SERVE_SERVER_H

#include "wcs/serve/Protocol.h"
#include "wcs/serve/ResultStore.h"

#include <functional>
#include <string>

namespace wcs {

/// The largest ServerOptions::MaxConnections (one thread each).
inline constexpr unsigned MaxConnectionsCap = 1024;

struct ServerOptions {
  std::string SocketPath;
  std::string StorePath; ///< Empty = in-memory store.
  /// Scheduler worker threads, shared by ALL connections (0 = all
  /// cores). The machine's parallelism budget stays in one place no
  /// matter how many clients are connected.
  unsigned Threads = 0;
  /// Connections served at once, in [1, MaxConnectionsCap], by as many
  /// threads; further clients wait in the listen backlog.
  unsigned MaxConnections = 8;
  /// JSON-lines request log: one compact object per served request
  /// (hash, point counts, hit/miss split, queue wait, compute and wall
  /// time, outcome), appended as each request finishes. Empty = off.
  std::string LogPath;
  /// Socket timeout (SO_RCVTIMEO/SO_SNDTIMEO) armed on every accepted
  /// connection: a client that never sends a complete request line, or
  /// stops draining its progress stream, is disconnected after this
  /// many seconds instead of parking a connection slot forever. 0 =
  /// no timeout (the pre-hardening behaviour).
  double IoTimeoutSeconds = 30.0;
  /// Graceful-shutdown budget: once accepting stops (SIGTERM/SIGINT
  /// or the wcs-control shutdown command), in-flight requests get
  /// this long to finish; past it they are cancelled like client
  /// disconnects so the daemon can exit. 0 = drain without a bound.
  double DrainTimeoutSeconds = 0.0;
  /// Scheduler admission cap, in queued-to-compute points (see
  /// Scheduler): over-cap requests are answered Error="overloaded"
  /// with a retry_after_seconds hint. 0 = unbounded.
  uint64_t MaxQueuedPoints = 0;
  /// Install SIGTERM/SIGINT handlers that stop accepting and drain
  /// (restored on return). The wcs-serve tool turns this on; it stays
  /// off by default because process-wide signal dispositions do not
  /// belong in library code (gtest processes own theirs).
  bool HandleSignals = false;
};

/// The daemon: open the store, start the shared scheduler and
/// MaxConnections connection threads, listen, and serve -- every
/// request admitted to the one scheduler so overlapping grids from
/// simultaneous clients compute each shared point once. A client that
/// disconnects mid-request has its unshared queued jobs cancelled.
/// Exits cleanly on a wcs-control shutdown (in-flight requests drain
/// first); a wcs-control "status" line answers with scheduler/store/
/// connection counters. Diagnostics on stderr only; nothing is ever
/// written to stdout. \p OnReady (may be null) fires once every thread
/// runs and the socket is accepting; no thread starts after it. Returns
/// false with \p Err on setup failure (an out-of-range MaxConnections
/// before anything is bound or started) and, after the drain, when a
/// failed accept() stopped the daemon.
bool runServer(const ServerOptions &Opts,
               const std::function<void()> &OnReady, std::string *Err);

} // namespace wcs

#endif // WCS_SERVE_SERVER_H
