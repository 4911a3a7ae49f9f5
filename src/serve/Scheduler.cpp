//===- src/serve/Scheduler.cpp - Cross-request job scheduler --------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "wcs/serve/Scheduler.h"

#include "wcs/support/FaultInjection.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <unordered_set>

using namespace wcs;

namespace {

ProgressEvent makeEvent(uint64_t Serial, size_t Total, size_t I,
                        const SweepPoint &P) {
  ProgressEvent E;
  E.Request = Serial;
  E.Point = I;
  E.Total = Total;
  E.Cache = P.Cache.str();
  E.Method = P.Method;
  E.Ok = P.Ok;
  return E;
}

} // namespace

Scheduler::Scheduler(ResultStore &Store, unsigned Threads,
                     uint64_t MaxQueuedPoints)
    : Store(Store), Runner(Threads), MaxQueuedPoints(MaxQueuedPoints) {
  PoolThreads = Runner.threads();
  Runner.startPool(
      [this](std::function<void()> &Task) { return nextJob(Task); });
}

Scheduler::~Scheduler() {
  {
    std::lock_guard<std::mutex> L(Mu);
    Stopping = true;
  }
  WorkCv.notify_all();
  Runner.stopPool();
}

bool Scheduler::nextJob(std::function<void()> &Task) {
  Job J;
  double QueueWait = 0.0;
  {
    std::unique_lock<std::mutex> L(Mu);
    WorkCv.wait(L, [this] { return Stopping || !RoundRobin.empty(); });
    if (RoundRobin.empty())
      return false; // Stopping, nothing queued: retire the worker.
    // Fairness: take ONE job from the front request, then rotate it to
    // the back, so K active requests each get every K-th job slot no
    // matter how many jobs any one of them brought.
    RequestState *RS = RoundRobin.front();
    RoundRobin.pop_front();
    J = std::move(RS->Queue.front());
    RS->Queue.pop_front();
    QueuedPoints -= J.PointIdx.size(); // Dequeued: no longer backlog.
    if (!RS->Queue.empty())
      RoundRobin.push_back(RS);
    QueueWait = telemetry::secondsSince(J.Enqueued);
    RS->QueueWaitSeconds += QueueWait;
  }
  telemetry::registry().counter("scheduler.jobs_dequeued").add();
  telemetry::registry()
      .histogram("scheduler.queue_wait_seconds",
                 telemetry::defaultLatencyBounds())
      .observe(QueueWait);
  Task = [this, J = std::move(J)]() mutable { runJob(J); };
  return true;
}

void Scheduler::runJob(Job &J) {
  RequestState *RS = J.Owner;
  if (Observer)
    Observer(RS->Serial, J.Configs.size());

  telemetry::Span JobSpan("scheduler.job");
  JobSpan.arg("request", RS->Serial);
  JobSpan.arg("points", static_cast<uint64_t>(J.Configs.size()));
  telemetry::TimePoint C0 = telemetry::now();

  // The sub-sweep itself runs unlocked and single-threaded: the
  // scheduler's parallelism is across jobs, so one worker owns one
  // group end to end. Same honesty rule as runSweep's internal tasks: a
  // throwing sub-sweep becomes per-point failures, never a dead worker.
  SweepReport Rep;
  bool Threw = false;
  std::string ThrowErr;
  try {
    if (faultinject::shouldFail("scheduler.job"))
      throw std::runtime_error("injected fault (scheduler.job)");
    Rep = runSweep(*RS->Program, J.Configs, RS->SO);
  } catch (const std::exception &E) {
    Threw = true;
    ThrowErr = E.what();
  } catch (...) {
    Threw = true;
    ThrowErr = "unknown exception";
  }
  if (Threw) {
    Rep = SweepReport();
    Rep.Points.resize(J.Configs.size());
    for (size_t G = 0; G < J.Configs.size(); ++G) {
      Rep.Points[G].Cache = J.Configs[G];
      Rep.Points[G].Backend = RS->SO.Backend;
      Rep.Points[G].Error = ThrowErr;
    }
  }

  double Compute = telemetry::secondsSince(C0);
  telemetry::registry()
      .counter("scheduler.points_computed")
      .add(J.PointIdx.size());

  telemetry::Span PublishSpan("scheduler.publish");
  PublishSpan.arg("points", static_cast<uint64_t>(J.PointIdx.size()));
  std::lock_guard<std::mutex> L(Mu);
  RS->ComputeSeconds += Compute;
  ComputeSecondsTotal += Compute;
  mergeSweepReports(RS->Merged, Rep);
  for (size_t G = 0; G < J.PointIdx.size(); ++G) {
    size_t I = J.PointIdx[G];
    const SweepPoint &P = Rep.Points[G];
    // THE single writer: every insert in the process happens here,
    // under Mu, no matter which request raced the key in. An insert
    // failure (disk error, injected fault) is never fatal to the
    // request -- the freshly computed point is still delivered; it is
    // just not persisted, so a later request recomputes it.
    std::string StoreErr;
    if (P.Ok && !Store.insert(RS->Keys[I], P, &StoreErr)) {
      telemetry::registry().counter("store.insert_failed").add();
      std::fprintf(stderr, "wcs-serve: store insert failed: %s\n",
                   StoreErr.c_str());
    }
    ++Counters.PointsComputed;
    RS->Points[I] = P;
    RS->Ready.push_back(makeEvent(RS->Serial, RS->Total, I, P));
    // Hand the result to every subscriber, then retire the in-flight
    // entry -- later requests hit the store instead.
    auto It = InFlight.find(RS->Keys[I]);
    if (It != InFlight.end()) {
      for (const auto &[SubRS, SubI] : It->second->Subscribers) {
        SweepPoint SP = P;
        if (SP.Ok)
          SP.Method = SweepMethod::Store; // It is in the store now;
                                          // failed points are not, and
                                          // keep their honest method.
        SubRS->Points[SubI] = std::move(SP);
        --SubRS->PendingSubscriptions;
        SubRS->Ready.push_back(
            makeEvent(SubRS->Serial, SubRS->Total, SubI,
                      SubRS->Points[SubI]));
        SubRS->Cv.notify_all();
      }
      InFlight.erase(It);
    }
  }
  --RS->JobsOutstanding;
  RS->Cv.notify_all();
}

void Scheduler::cancelLocked(RequestState &RS, const char *Reason) {
  // Withdraw subscriptions first -- both from other requests' points
  // (their owners keep going; the result still lands in the store) and
  // from this grid's own duplicate points, so a self-subscription
  // cannot keep a doomed job below alive.
  for (const std::string &K : RS.SubscribedKeys) {
    auto It = InFlight.find(K);
    if (It == InFlight.end())
      continue;
    auto &Subs = It->second->Subscribers;
    Subs.erase(std::remove_if(Subs.begin(), Subs.end(),
                              [&RS](const auto &S) {
                                return S.first == &RS;
                              }),
               Subs.end());
  }
  RS.PendingSubscriptions = 0;
  RS.SubscribedKeys.clear();
  // Drop queued jobs nobody else wants; keep any job with at least one
  // subscriber (it computes points another live request is waiting for
  // -- the drop rule is per job, not per point, so a partially-shared
  // job simply runs whole).
  std::deque<Job> Keep;
  for (Job &J : RS.Queue) {
    bool Wanted = false;
    for (size_t I : J.PointIdx) {
      auto It = InFlight.find(RS.Keys[I]);
      if (It != InFlight.end() && !It->second->Subscribers.empty()) {
        Wanted = true;
        break;
      }
    }
    if (Wanted) {
      Keep.push_back(std::move(J));
      continue;
    }
    for (size_t G = 0; G < J.PointIdx.size(); ++G) {
      size_t I = J.PointIdx[G];
      InFlight.erase(RS.Keys[I]);
      RS.Points[I].Cache = J.Configs[G];
      RS.Points[I].Backend = RS.SO.Backend;
      RS.Points[I].Error = Reason;
    }
    QueuedPoints -= J.PointIdx.size();
    ++Counters.CancelledJobs;
    telemetry::registry().counter("scheduler.jobs_cancelled").add();
    --RS.JobsOutstanding;
  }
  RS.Queue.swap(Keep);
  if (RS.Queue.empty())
    RoundRobin.erase(
        std::remove(RoundRobin.begin(), RoundRobin.end(), &RS),
        RoundRobin.end());
}

SweepResponse Scheduler::serve(
    const SweepRequest &Req,
    const std::function<bool(const ProgressEvent &)> &OnProgress,
    const std::function<bool()> &IsCancelled, RequestTelemetry *Tel) {
  telemetry::Span ReqSpan("serve.request");
  telemetry::TimePoint W0 = telemetry::now();
  SweepResponse Resp;
  Resp.RequestHash = requestHash(Req);
  ReqSpan.arg("hash", Resp.RequestHash);
  telemetry::registry().counter("serve.requests").add();

  PreparedSweep Prep;
  std::string Err;
  {
    telemetry::Span ExpandSpan("serve.expand");
    if (!prepareSweep(Req, Prep, &Err)) {
      Resp.Error = Err;
      std::lock_guard<std::mutex> L(Mu);
      ++Counters.RequestsServed;
      Resp.StoreEntries = Store.numEntries();
      if (Tel)
        Tel->WallSeconds = telemetry::secondsSince(W0);
      return Resp;
    }
    ExpandSpan.arg("points", static_cast<uint64_t>(Prep.Configs.size()));
  }

  RequestState RS;
  RS.Program = &Prep.Program;
  RS.SO = Req.Options;
  RS.SO.Threads = 1; // One worker owns one job; parallelism is across jobs.
  RS.Total = Prep.Configs.size();
  RS.Points.resize(RS.Total);
  RS.Keys.resize(RS.Total);
  RS.HasDeadline = Req.DeadlineSeconds > 0;
  if (RS.HasDeadline)
    RS.Deadline = W0 + std::chrono::duration_cast<
                           telemetry::TimePoint::duration>(
                           std::chrono::duration<double>(
                               Req.DeadlineSeconds));

  std::vector<ProgressEvent> HitEvents;
  bool Shed = false;
  {
    telemetry::Span AdmitSpan("serve.admission");
    std::lock_guard<std::mutex> L(Mu);
    RS.Serial = ++LastSerial;
    ++NumActive;
    // Pass 1: resolve store hits and count the points this request
    // would have to compute itself (subscriptions ride on another
    // request's queue budget). Nothing is registered yet, so an
    // over-cap request can be refused without leaving any in-flight
    // state behind.
    std::vector<char> Answered(RS.Total, 0);
    std::unordered_set<std::string> WouldOwn;
    for (size_t I = 0; I < RS.Total; ++I) {
      RS.Keys[I] = sweepPointKey(Req, Prep.Configs[I]);
      SweepPoint Hit;
      if (Store.lookup(RS.Keys[I], Hit)) {
        Hit.Method = SweepMethod::Store;
        RS.Points[I] = std::move(Hit);
        Answered[I] = 1;
        ++Resp.StoreHits;
        HitEvents.push_back(
            makeEvent(RS.Serial, RS.Total, I, RS.Points[I]));
        continue;
      }
      if (!InFlight.count(RS.Keys[I]))
        WouldOwn.insert(RS.Keys[I]);
    }
    if (MaxQueuedPoints != 0 && !WouldOwn.empty() &&
        QueuedPoints + WouldOwn.size() > MaxQueuedPoints) {
      // Overloaded: answer immediately instead of growing the backlog
      // without bound. The hint scales with the backlog's measured
      // per-point compute cost; a fresh daemon guesses conservatively.
      Shed = true;
      ++Counters.ShedRequests;
      ++Counters.RequestsServed;
      --NumActive;
      telemetry::registry().counter("serve.shed").add();
      Resp.StoreHits = 0; // Nothing was answered, hits included.
      Resp.Error = "overloaded";
      Resp.StoreEntries = Store.numEntries();
      double AvgPointSeconds =
          Counters.PointsComputed != 0
              ? ComputeSecondsTotal / double(Counters.PointsComputed)
              : 0.05;
      double Est = double(QueuedPoints) * AvgPointSeconds /
                   double(PoolThreads != 0 ? PoolThreads : 1);
      Resp.RetryAfterSeconds = std::min(10.0, std::max(0.05, Est));
      AdmitSpan.arg("shed", uint64_t(1));
    }
    std::vector<size_t> Owned;
    if (!Shed) {
      // Pass 2: admitted -- register subscriptions and take ownership
      // of the rest, exactly as before the cap existed.
      for (size_t I = 0; I < RS.Total; ++I) {
        if (Answered[I])
          continue;
        auto It = InFlight.find(RS.Keys[I]);
        if (It != InFlight.end()) {
          // Someone -- another request, or an earlier duplicate point
          // of this very grid -- is already computing this key:
          // subscribe.
          It->second->Subscribers.emplace_back(&RS, I);
          ++RS.PendingSubscriptions;
          RS.SubscribedKeys.push_back(RS.Keys[I]);
          ++Resp.InFlightHits;
          continue;
        }
        InFlight.emplace(RS.Keys[I], std::make_unique<PointState>());
        Owned.push_back(I);
      }
      Resp.StoreMisses = Owned.size();
    }
    if (!Owned.empty()) {
      std::vector<HierarchyConfig> OwnedCfgs;
      OwnedCfgs.reserve(Owned.size());
      for (size_t I : Owned)
        OwnedCfgs.push_back(Prep.Configs[I]);
      telemetry::TimePoint Enq = telemetry::now();
      for (const std::vector<size_t> &G :
           partitionSweepGroups(OwnedCfgs)) {
        Job J;
        J.Owner = &RS;
        J.PointIdx.reserve(G.size());
        J.Configs.reserve(G.size());
        for (size_t K : G) {
          J.PointIdx.push_back(Owned[K]);
          J.Configs.push_back(OwnedCfgs[K]);
        }
        J.Enqueued = Enq;
        RS.Queue.push_back(std::move(J));
      }
      RS.JobsOutstanding = RS.Queue.size();
      QueuedPoints += Owned.size();
      RoundRobin.push_back(&RS);
      telemetry::registry()
          .counter("scheduler.jobs_enqueued")
          .add(RS.Queue.size());
    }
    RS.Merged.Threads = PoolThreads;
    AdmitSpan.arg("store_hits", Resp.StoreHits);
    AdmitSpan.arg("inflight_hits", Resp.InFlightHits);
    AdmitSpan.arg("jobs", static_cast<uint64_t>(RS.Queue.size()));
    if (Resp.InFlightHits != 0)
      telemetry::registry()
          .counter("scheduler.inflight_subscriptions")
          .add(Resp.InFlightHits);
  }
  if (Shed) {
    if (Tel)
      Tel->WallSeconds = telemetry::secondsSince(W0);
    return Resp;
  }
  WorkCv.notify_all();

  // Progress always fires on this (the connection's) thread, outside
  // the lock: a slow or dead socket stalls this request only.
  bool Alive = true;
  auto Fire = [&](const ProgressEvent &E) {
    if (OnProgress && !OnProgress(E))
      return false;
    return !(IsCancelled && IsCancelled());
  };
  if (IsCancelled && IsCancelled())
    Alive = false;
  if (!HitEvents.empty()) {
    telemetry::Span DeliverSpan("serve.deliver");
    DeliverSpan.arg("events", static_cast<uint64_t>(HitEvents.size()));
    for (const ProgressEvent &E : HitEvents) {
      if (!Alive)
        break;
      Alive = Fire(E);
    }
  }

  std::unique_lock<std::mutex> L(Mu);
  for (;;) {
    if (!Alive && !RS.Cancelled) {
      RS.Cancelled = true;
      cancelLocked(RS, "cancelled: client disconnected");
    }
    // Deadline expiry reuses the cancellation path for the backlog --
    // queued jobs nobody else wants are dropped, subscriptions
    // withdrawn -- but the request stays alive: jobs already running
    // finish and their points are returned.
    if (Alive && RS.HasDeadline && !RS.DeadlineExpired && !RS.Cancelled &&
        (RS.JobsOutstanding != 0 || RS.PendingSubscriptions != 0) &&
        telemetry::now() >= RS.Deadline) {
      RS.DeadlineExpired = true;
      cancelLocked(RS, "deadline exceeded");
      ++Counters.DeadlineExpired;
      telemetry::registry().counter("serve.deadline_expired").add();
    }
    if (!RS.Ready.empty()) {
      std::vector<ProgressEvent> Batch;
      Batch.swap(RS.Ready);
      if (Alive) {
        L.unlock();
        {
          telemetry::Span DeliverSpan("serve.deliver");
          DeliverSpan.arg("events", static_cast<uint64_t>(Batch.size()));
          for (const ProgressEvent &E : Batch) {
            if (!Alive)
              break;
            Alive = Fire(E);
          }
        }
        L.lock();
      }
      continue;
    }
    if (RS.JobsOutstanding == 0 && RS.PendingSubscriptions == 0)
      break;
    // Wake on results; time-bounded so IsCancelled is polled even when
    // nothing completes (a silent disconnect must still cancel).
    bool TimedOut = RS.Cv.wait_for(L, std::chrono::milliseconds(20)) ==
                    std::cv_status::timeout;
    if (TimedOut && Alive && IsCancelled) {
      L.unlock();
      bool Gone = IsCancelled();
      L.lock();
      if (Gone)
        Alive = false;
    }
  }

  ++Counters.RequestsServed;
  Counters.StoreHits += Resp.StoreHits;
  Counters.InFlightHits += Resp.InFlightHits;
  --NumActive;
  Resp.StoreEntries = Store.numEntries();

  telemetry::Registry &Reg = telemetry::registry();
  Reg.counter("serve.store_hits").add(Resp.StoreHits);
  Reg.counter("serve.store_misses").add(Resp.StoreMisses);
  Reg.counter("serve.inflight_hits").add(Resp.InFlightHits);
  Reg.gauge("store.entries").set(static_cast<double>(Resp.StoreEntries));
  double Wall = telemetry::secondsSince(W0);
  Reg.histogram("serve.request_seconds", telemetry::defaultLatencyBounds())
      .observe(Wall);
  if (Tel) {
    Tel->QueueWaitSeconds = RS.QueueWaitSeconds;
    Tel->ComputeSeconds = RS.ComputeSeconds;
    Tel->WallSeconds = Wall;
  }

  if (!Alive) {
    Resp.Error = "cancelled: client disconnected";
    return Resp;
  }
  if (RS.DeadlineExpired) {
    // Partial answer, honestly labeled: every point the deadline cut
    // off -- dropped jobs and withdrawn subscriptions alike -- carries
    // Ok=false, Error="deadline exceeded"; points that did land are
    // returned verbatim. Resp.Ok stays true (this IS the answer) and
    // Resp.Error names the degradation.
    for (size_t I = 0; I < RS.Total; ++I) {
      SweepPoint &P = RS.Points[I];
      if (!P.Ok && P.Error.empty()) {
        P.Cache = Prep.Configs[I];
        P.Backend = RS.SO.Backend;
        P.Error = "deadline exceeded";
      }
    }
    Resp.Error = "deadline exceeded";
  }
  Resp.Sweep = std::move(RS.Merged);
  Resp.Sweep.Points = std::move(RS.Points);
  L.unlock();
  Resp.Ok = true;
  Resp.Sweep.Tool = "wcs-serve";
  Resp.Sweep.Program = Req.programLabel();
  Resp.Sweep.SizeName = Req.sizeLabel();
  return Resp;
}

StatusDoc Scheduler::status() const {
  std::lock_guard<std::mutex> L(Mu);
  StatusDoc S = Counters;
  S.ActiveRequests = NumActive;
  S.QueuedJobs = 0;
  for (const RequestState *RS : RoundRobin)
    S.QueuedJobs += RS->Queue.size();
  S.QueuedPoints = QueuedPoints;
  S.StoreEntries = Store.numEntries();
  return S;
}
