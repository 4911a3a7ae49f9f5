//===- tools/wcs-serve.cpp - Sweep-as-a-service daemon --------------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
// A long-running sweep server with a persistent content-addressed result
// store: every (program, options, hierarchy-config) point a request
// expands to is keyed by canonical content, so overlapping grids -- from
// one client or many, across daemon restarts -- pay for each point once.
//
//   wcs-serve --socket /tmp/wcs.sock --store /var/lib/wcs/store.jsonl
//   wcs-serve --client --socket /tmp/wcs.sock --request sweep.json
//   wcs-serve --client --socket /tmp/wcs.sock --status
//   wcs-serve --client --socket /tmp/wcs.sock --shutdown
//   wcs-serve --compact --store /var/lib/wcs/store.jsonl --max-entries 10000
//
// Request documents come from `wcs-sim --sweep ... --emit-request FILE`
// (or any writer of the wcs-request v1 schema). Stdout is machine-clean
// in every mode: the client prints exactly one wcs-response document
// there and nothing else; the daemon and --compact print nothing to
// stdout at all. All diagnostics and progress go to stderr.
//
//===----------------------------------------------------------------------===//

#include "wcs/serve/Server.h"
#include "wcs/support/FaultInjection.h"
#include "wcs/support/StringUtil.h"
#include "wcs/support/Telemetry.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

using namespace wcs;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: wcs-serve [options]\n"
      "daemon (default mode):\n"
      "  --socket PATH         Unix-domain socket to listen on (required)\n"
      "  --store PATH          persistent result store, a JSON-lines log\n"
      "                        (default: in-memory only)\n"
      "  --jobs N              scheduler worker threads shared by all\n"
      "                        connections (default 0 = all cores)\n"
      "  --max-connections N   connections served at once; further clients\n"
      "                        wait in the listen backlog (default 8,\n"
      "                        0 = unlimited)\n"
      "  --io-timeout S        disconnect a client that stalls a socket\n"
      "                        read/write for S seconds (default 30,\n"
      "                        0 = never)\n"
      "  --drain-timeout S     on shutdown (SIGTERM/SIGINT/--shutdown),\n"
      "                        cancel in-flight requests still running\n"
      "                        after S seconds (default 0 = wait)\n"
      "  --max-queued-points N shed requests that would push the compute\n"
      "                        queue past N points; they get an\n"
      "                        'overloaded' response with a retry hint\n"
      "                        (default 0 = admit everything)\n"
      "  --log FILE            append one JSON line per served request\n"
      "                        (hash, point counts, hit/miss split, queue\n"
      "                        wait, compute time, outcome)\n"
      "  --trace-json FILE     record spans while serving and write a\n"
      "                        Chrome trace-event file on shutdown\n"
      "  --metrics FILE        write a wcs-metrics v1 document (counters,\n"
      "                        histograms, span aggregates) on shutdown\n"
      "client mode:\n"
      "  --client              submit a request instead of serving\n"
      "  --request FILE        wcs-request document to submit (from\n"
      "                        wcs-sim --emit-request); the response\n"
      "                        document is printed to stdout\n"
      "  --out FILE            also write the response document to FILE\n"
      "  --status              print the daemon's status counters to\n"
      "                        stdout instead\n"
      "  --shutdown            ask the daemon to exit instead\n"
      "  --retries N           retry a failed connect or an 'overloaded'\n"
      "                        response up to N times with exponential\n"
      "                        backoff + jitter (default 0)\n"
      "  --retry-base-ms N     first-retry backoff in milliseconds;\n"
      "                        doubles per attempt, capped at 5s\n"
      "                        (default 100)\n"
      "store maintenance:\n"
      "  --compact             rewrite the --store log in place: one line\n"
      "                        per live key, oldest first\n"
      "  --max-entries N       with --compact: evict oldest-inserted\n"
      "                        entries beyond N (default 0 = keep all)\n"
      "fault injection (testing): set WCS_FAULT=point:prob,... (points:\n"
      "store.write, socket.send, socket.recv, scheduler.job,\n"
      "sweep.periodic-pass) and\n"
      "optionally WCS_FAULT_SEED=N to make the named operations fail\n"
      "with the given probabilities, deterministically per seed.\n");
}

int runClient(const std::string &SocketPath, const std::string &RequestPath,
              const std::string &OutPath, bool Shutdown, bool Status,
              const ClientRetryPolicy &Retry) {
  std::string Err;
  if (Shutdown) {
    if (!requestShutdown(SocketPath, &Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
    std::fprintf(stderr, "wcs-serve: daemon acknowledged shutdown\n");
    return 0;
  }
  if (Status) {
    StatusDoc D;
    if (!requestStatus(SocketPath, D, &Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
    // Same stdout contract as a request: exactly one document, pretty.
    std::printf("%s\n", toJson(D).dump(true).c_str());
    return 0;
  }

  SweepRequest Req;
  if (!readRequestFile(RequestPath, Req, &Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  SweepResponse Resp;
  bool Sent = submitSweepRequest(
      SocketPath, Req, Resp,
      [](const ProgressEvent &E) {
        std::fprintf(stderr, "point %zu/%zu  %-14s %s  %s\n", E.Point + 1,
                     E.Total, sweepMethodName(E.Method),
                     E.Ok ? "ok" : "FAILED", E.Cache.c_str());
      },
      Retry, &Err);
  if (!Sent) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  // The response document is the ONLY thing on stdout, pretty-printed
  // like every other wcs document file.
  std::string Doc = toJson(Resp).dump(true);
  std::printf("%s\n", Doc.c_str());
  if (!OutPath.empty() && !json::writeFile(OutPath, toJson(Resp), &Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  if (!Resp.Ok) {
    std::fprintf(stderr, "error: daemon refused request: %s\n",
                 Resp.Error.c_str());
    return 1;
  }
  std::fprintf(stderr,
               "served   %zu points: %llu from store, %llu simulated "
               "(store now %llu entries)\n",
               Resp.Sweep.Points.size(),
               static_cast<unsigned long long>(Resp.StoreHits),
               static_cast<unsigned long long>(Resp.StoreMisses),
               static_cast<unsigned long long>(Resp.StoreEntries));
  return 0;
}

int runCompact(const std::string &StorePath, uint64_t MaxEntries) {
  ResultStore Store;
  std::string Err;
  if (!Store.open(StorePath, &Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  size_t Before = Store.numEntries();
  if (Store.recoveredBytes() > 0)
    std::fprintf(stderr,
                 "wcs-serve: recovered torn tail (%llu bytes dropped)\n",
                 static_cast<unsigned long long>(Store.recoveredBytes()));
  if (!Store.compact(static_cast<size_t>(MaxEntries), &Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  std::fprintf(stderr, "wcs-serve: compacted %s: %zu -> %zu entries\n",
               StorePath.c_str(), Before, Store.numEntries());
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  std::string SocketPath, StorePath, RequestPath, OutPath;
  std::string LogPath, TracePath, MetricsPath;
  bool Client = false, Shutdown = false, Status = false, Compact = false;
  unsigned Jobs = 0, MaxConnections = 8, Retries = 0, RetryBaseMs = 100;
  uint64_t MaxEntries = 0, MaxQueuedPoints = 0;
  double IoTimeout = 30.0, DrainTimeout = 0.0;

  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto Next = [&]() -> const char * {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs an argument\n", A.c_str());
        std::exit(2);
      }
      return argv[++I];
    };
    // Seconds flags: non-negative decimal, whole token.
    auto NextSeconds = [&](double &Out) {
      const char *N = Next();
      char *End = nullptr;
      double V = std::strtod(N, &End);
      if (End == N || *End != '\0' || !(V >= 0)) {
        std::fprintf(stderr,
                     "error: %s expects a non-negative number of seconds, "
                     "got '%s'\n",
                     A.c_str(), N);
        std::exit(2);
      }
      Out = V;
    };
    if (A == "--socket") {
      SocketPath = Next();
    } else if (A == "--store") {
      StorePath = Next();
    } else if (A == "--request") {
      RequestPath = Next();
    } else if (A == "--out") {
      OutPath = Next();
    } else if (A == "--log") {
      LogPath = Next();
    } else if (A == "--trace-json") {
      TracePath = Next();
    } else if (A == "--metrics") {
      MetricsPath = Next();
    } else if (A == "--client") {
      Client = true;
    } else if (A == "--shutdown") {
      Shutdown = true;
      Client = true;
    } else if (A == "--status") {
      Status = true;
      Client = true;
    } else if (A == "--compact") {
      Compact = true;
    } else if (A == "--jobs") {
      const char *N = Next();
      if (!parseJobCount(N, Jobs)) {
        std::fprintf(stderr,
                     "error: --jobs expects a non-negative number, got "
                     "'%s'\n",
                     N);
        return 2;
      }
    } else if (A == "--max-connections") {
      const char *N = Next();
      if (!parseJobCount(N, MaxConnections)) {
        std::fprintf(stderr,
                     "error: --max-connections expects a non-negative "
                     "number, got '%s'\n",
                     N);
        return 2;
      }
    } else if (A == "--io-timeout") {
      NextSeconds(IoTimeout);
    } else if (A == "--drain-timeout") {
      NextSeconds(DrainTimeout);
    } else if (A == "--max-queued-points") {
      const char *N = Next();
      if (!parseUInt64(N, MaxQueuedPoints, UINT64_MAX)) {
        std::fprintf(stderr,
                     "error: --max-queued-points expects a non-negative "
                     "number, got '%s'\n",
                     N);
        return 2;
      }
    } else if (A == "--retries") {
      const char *N = Next();
      if (!parseJobCount(N, Retries)) {
        std::fprintf(stderr,
                     "error: --retries expects a non-negative number, got "
                     "'%s'\n",
                     N);
        return 2;
      }
    } else if (A == "--retry-base-ms") {
      const char *N = Next();
      if (!parseJobCount(N, RetryBaseMs)) {
        std::fprintf(stderr,
                     "error: --retry-base-ms expects a non-negative number, "
                     "got '%s'\n",
                     N);
        return 2;
      }
    } else if (A == "--max-entries") {
      const char *N = Next();
      if (!parseUInt64(N, MaxEntries, UINT64_MAX)) {
        std::fprintf(stderr,
                     "error: --max-entries expects a non-negative number, "
                     "got '%s'\n",
                     N);
        return 2;
      }
    } else if (A == "--help" || A == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", A.c_str());
      usage();
      return 2;
    }
  }

  // Fault injection arms from the environment (WCS_FAULT), never from a
  // flag: the CI harness can point it at exactly one process in a
  // pipeline without every caller growing pass-through options.
  std::string FaultErr;
  if (!faultinject::armFromEnv(&FaultErr)) {
    std::fprintf(stderr, "error: %s\n", FaultErr.c_str());
    return 2;
  }
  if (faultinject::armed())
    std::fprintf(stderr, "wcs-serve: fault injection armed: %s\n",
                 faultinject::armedSpec().c_str());

  if (Compact) {
    if (Client || StorePath.empty()) {
      std::fprintf(stderr,
                   "error: --compact takes --store (and no --client)\n");
      return 2;
    }
    return runCompact(StorePath, MaxEntries);
  }
  if (SocketPath.empty()) {
    std::fprintf(stderr, "error: --socket is required\n");
    usage();
    return 2;
  }
  if (Client) {
    if (!Shutdown && !Status && RequestPath.empty()) {
      std::fprintf(stderr, "error: --client needs --request FILE, "
                           "--status, or --shutdown\n");
      return 2;
    }
    ClientRetryPolicy Retry;
    Retry.Retries = Retries;
    Retry.BaseBackoffSeconds = RetryBaseMs / 1000.0;
    Retry.IoTimeoutSeconds = IoTimeout;
    return runClient(SocketPath, RequestPath, OutPath, Shutdown, Status,
                     Retry);
  }

  ServerOptions SO;
  SO.SocketPath = SocketPath;
  SO.StorePath = StorePath;
  SO.Threads = Jobs;
  SO.MaxConnections = MaxConnections;
  SO.LogPath = LogPath;
  SO.IoTimeoutSeconds = IoTimeout;
  SO.DrainTimeoutSeconds = DrainTimeout;
  SO.MaxQueuedPoints = MaxQueuedPoints;
  SO.HandleSignals = true;
  if (!TracePath.empty())
    telemetry::enableTracing();
  else if (!MetricsPath.empty())
    telemetry::enableSpanAggregation();
  std::string Err;
  if (!runServer(SO, nullptr, &Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  if (!TracePath.empty()) {
    if (!telemetry::writeTraceFile(TracePath, &Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
    std::fprintf(stderr, "wcs-serve: trace written to %s\n",
                 TracePath.c_str());
  }
  if (!MetricsPath.empty()) {
    MetricsDoc MD = telemetry::registry().snapshot("wcs-serve");
    if (!writeMetricsFile(MetricsPath, MD, &Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
    std::fprintf(stderr, "wcs-serve: metrics written to %s\n",
                 MetricsPath.c_str());
  }
  return 0;
}
