//===- wcs/serve/Scheduler.h - Cross-request job scheduler ------*- C++ -*-===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wcs-serve cross-request job scheduler: one BatchRunner worker
/// pool and one ResultStore shared by every connection the daemon
/// serves concurrently. serve() is called from many connection threads
/// at once; each call
///
///  - answers store hits immediately (method "store", counters
///    verbatim),
///  - SUBSCRIBES to any point another in-flight request is already
///    computing, so two overlapping grids compute each shared point
///    ONCE even before it reaches the store,
///  - splits its remaining points into sub-sweep jobs along the seams
///    partitionSweepGroups defines -- points that share a
///    stack-distance pass or a filtered stream stay in one job, so
///    interleaving requests never gives up intra-request sharing --
///    and enqueues them.
///
/// Workers pick jobs fairly: one job per request per round-robin turn,
/// so a huge sweep cannot starve a small one (it can only occupy the
/// workers for the duration of single jobs). Completed points stream
/// back to their connection thread as ProgressEvents; the scheduler
/// never writes to a socket itself. A request whose client disconnects
/// is cancelled: its queued jobs with no external subscriber are
/// dropped before they run, its subscriptions are withdrawn, and only
/// jobs already running (or still wanted by other requests) finish.
///
/// The scheduler's one mutex also serializes every ResultStore access
/// -- the store is not thread-safe, and funneling all inserts through
/// the scheduler is what guarantees a single writer no matter how many
/// requests race on the same key.
///
/// Lock order: while Mu is held, the only other locks taken are the
/// fault-injection schedule's and the telemetry registry's (the first
/// may take the second, never the reverse). Mu is never held across
/// OnProgress or IsCancelled, so it never nests with the server's
/// ServerState::Mu or LogMu. The workers' and each request's condition
/// variables wait on Mu.
///
/// status() reads the registry counters the daemon's --metrics file
/// carries, relative to their values at construction. The registry is
/// process-wide: two schedulers alive at once in one process would
/// share these counts.
///
//===----------------------------------------------------------------------===//

#ifndef WCS_SERVE_SCHEDULER_H
#define WCS_SERVE_SCHEDULER_H

#include "wcs/driver/BatchRunner.h"
#include "wcs/serve/Protocol.h"
#include "wcs/serve/ResultStore.h"
#include "wcs/support/Telemetry.h"

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace wcs {

class Scheduler {
public:
  /// \p Threads sizes the worker pool (0 = all cores); workers start
  /// immediately. \p Store must outlive the scheduler and must not be
  /// touched by anyone else while it runs (the scheduler's lock is its
  /// only serialization). \p MaxQueuedPoints caps admission (0 = no
  /// cap): a request whose own to-compute points would push the queued
  /// total past the cap is refused immediately with Error="overloaded"
  /// and a retry_after_seconds hint -- store hits and subscriptions
  /// cost no queue budget, so a request the store can answer is never
  /// shed.
  Scheduler(ResultStore &Store, unsigned Threads,
            uint64_t MaxQueuedPoints = 0);

  /// Joins the pool. Precondition: no serve() call in flight (the
  /// server joins its connection threads first).
  ~Scheduler();

  Scheduler(const Scheduler &) = delete;
  Scheduler &operator=(const Scheduler &) = delete;

  /// Per-request timing filled by serve() when the caller passes a
  /// slot; the daemon's --log line reports these.
  struct RequestTelemetry {
    double QueueWaitSeconds = 0.0; ///< Summed over the request's jobs.
    double ComputeSeconds = 0.0;   ///< Summed job compute time.
    double WallSeconds = 0.0;      ///< serve() entry to exit.
  };

  /// Serves one request, blocking until every point is answered or the
  /// request is cancelled. Safe to call from many threads at once.
  ///
  /// \p OnProgress (may be null) fires once per point -- store hits
  /// first in input order, then computed and subscribed points in
  /// completion order -- always on the calling thread, never under the
  /// scheduler lock. Returning false cancels the request (the daemon
  /// returns false when the socket write fails, i.e. the client went
  /// away). \p IsCancelled (may be null) is polled between events and
  /// while waiting, so a disconnect cancels even when no progress is
  /// due; a cancelled request comes back Ok=false after its
  /// still-running jobs drain.
  ///
  /// Store misses carry the counters runSweepRequest (the in-process
  /// reference) computes, bit for bit; store hits come back verbatim
  /// under method "store", and so do points taken over from another
  /// in-flight request (their counters land in the store the moment
  /// they are shared), which count toward SweepResponse::InFlightHits.
  SweepResponse
  serve(const SweepRequest &Req,
        const std::function<bool(const ProgressEvent &)> &OnProgress,
        const std::function<bool()> &IsCancelled = {},
        RequestTelemetry *Tel = nullptr);

  /// The scheduler and store fields of a wcs-status document, for the
  /// wcs-control "status" command and tests; the server fills in the
  /// connection and uptime fields.
  StatusDoc status() const;

  unsigned threads() const { return Runner.threads(); }

  /// Test hook: invoked on the worker thread as it starts a job (after
  /// dequeue, before any work, without the scheduler lock), with the
  /// owning request's serial and the job's point count. Deterministic
  /// fairness and cancellation tests block in here to control the
  /// interleaving. Set before the first serve() call.
  void setJobObserver(std::function<void(uint64_t Serial, size_t Points)> Fn) {
    Observer = std::move(Fn);
  }

private:
  struct RequestState;

  /// One enqueued sub-sweep: a group of the owner's grid points that
  /// must run in one runSweep call to keep their shared pass/stream.
  struct Job {
    RequestState *Owner = nullptr;
    std::vector<size_t> PointIdx; ///< Owner grid indices, input order.
    std::vector<HierarchyConfig> Configs; ///< Parallel to PointIdx.
    telemetry::TimePoint Enqueued; ///< For the queue-wait histogram.
  };

  /// A point some request is currently computing; other requests
  /// needing the same key subscribe instead of recomputing.
  struct PointState {
    /// Waiting (request, grid index) pairs to deliver the result to.
    std::vector<std::pair<RequestState *, size_t>> Subscribers;
  };

  /// Everything serve() shares with the workers; lives on serve()'s
  /// stack (serve never returns while a job can still touch it).
  struct RequestState {
    uint64_t Serial = 0;
    size_t Total = 0;
    const ScopProgram *Program = nullptr;
    SweepOptions SO;
    std::vector<SweepPoint> Points; ///< Filled as results land.
    std::vector<std::string> Keys;  ///< sweepPointKey per grid index.
    std::deque<Job> Queue;          ///< Jobs not yet picked up.
    size_t JobsOutstanding = 0;     ///< Queued + running jobs.
    size_t PendingSubscriptions = 0;
    std::vector<std::string> SubscribedKeys;
    std::vector<ProgressEvent> Ready; ///< Completed, not yet streamed.
    std::condition_variable Cv;       ///< Signaled as results land.
    bool Cancelled = false;
    /// Deadline enforcement (wcs-request deadline_seconds): measured
    /// from serve() entry; on expiry the unshared queued jobs are
    /// dropped like a disconnect, but the request stays alive and
    /// answers with partial results.
    bool HasDeadline = false;
    telemetry::TimePoint Deadline;
    bool DeadlineExpired = false;
    SweepReport Merged; ///< Accumulated per-job pass/partition figures.
    double QueueWaitSeconds = 0.0; ///< Summed as workers dequeue.
    double ComputeSeconds = 0.0;   ///< Summed as jobs complete.
    uint64_t PointsComputed = 0;   ///< Owned points whose job ran.
  };

  /// A registry counter read relative to its value at construction.
  struct Tally {
    explicit Tally(const char *Name)
        : C(telemetry::registry().counter(Name)), Base(C.value()) {}
    void add(uint64_t N = 1) { C.add(N); }
    uint64_t sinceStart() const { return C.value() - Base; }
    telemetry::Counter &C;
    const uint64_t Base;
  };

  bool nextJob(std::function<void()> &Task);
  void runJob(Job &J);
  /// Withdraws subscriptions and drops queued jobs no other request
  /// wants, marking their points failed with \p Reason. Shared by the
  /// disconnect-cancellation and deadline-expiry paths; the caller
  /// sets the flag (Cancelled / DeadlineExpired) that says why.
  void cancelLocked(RequestState &RS, const char *Reason);

  ResultStore &Store;
  BatchRunner Runner;

  mutable std::mutex Mu;
  std::condition_variable WorkCv; ///< Wakes idle workers.
  /// Requests with queued jobs, each present at most once; workers
  /// take the front request's next job and rotate it to the back.
  std::deque<RequestState *> RoundRobin;
  std::unordered_map<std::string, std::unique_ptr<PointState>> InFlight;
  uint64_t LastSerial = 0;
  uint64_t NumActive = 0;
  /// Points inside queued (not yet dequeued) jobs; the admission cap's
  /// measure of backlog. Credited at admission, debited at dequeue and
  /// cancellation.
  uint64_t QueuedPoints = 0;
  uint64_t MaxQueuedPoints = 0; ///< 0 = unbounded.
  /// Total job compute seconds ever; with Computed this gives the
  /// measured per-point cost behind retry_after_seconds.
  double ComputeSecondsTotal = 0.0;
  bool Stopping = false;
  /// Added under Mu, so requests_served = Received - NumActive exactly.
  Tally Received{"serve.requests"};
  Tally Computed{"scheduler.points_computed"};
  Tally StoreHits{"serve.store_hits"};
  Tally InFlightHits{"serve.inflight_hits"};
  Tally JobsCancelled{"scheduler.jobs_cancelled"};
  Tally DeadlinesExpired{"serve.deadline_expired"};
  Tally ShedRequests{"serve.shed"};

  std::function<void(uint64_t, size_t)> Observer;
};

} // namespace wcs

#endif // WCS_SERVE_SCHEDULER_H
