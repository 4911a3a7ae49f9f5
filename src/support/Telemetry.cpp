//===- src/support/Telemetry.cpp - Spans, metrics, one clock --------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "wcs/support/Telemetry.h"

#include "wcs/support/JsonReader.h"

#include <algorithm>
#include <cmath>

using namespace wcs;
using namespace wcs::telemetry;
using json::Value;

//===----------------------------------------------------------------------===//
// The tracer: per-thread rings behind one global registry
//===----------------------------------------------------------------------===//

namespace {

/// One completed span as stored in a ring. Times are nanoseconds since
/// the trace epoch; the name is copied at completion so a drained
/// trace never dangles.
struct SpanEvent {
  std::string Name;
  int64_t StartNs = 0;
  int64_t DurNs = 0;
  std::vector<std::pair<std::string, std::string>> Args;
};

/// One thread's ring. Only the owning thread pushes; any thread may
/// drain. The per-buffer mutex makes both sides whole-event atomic --
/// a drained event is never torn -- and is uncontended except during
/// an actual drain.
struct ThreadBuffer {
  std::mutex Mu;
  unsigned Tid = 0;
  std::string Name;
  std::vector<SpanEvent> Ring;
  size_t Capacity = 0;
  size_t Head = 0;      ///< Oldest slot once the ring is full.
  uint64_t Pushed = 0;  ///< Lifetime pushes; ring holds the newest.
  uint64_t Drained = 0; ///< Events already handed out by a drain.

  void push(SpanEvent E) {
    std::lock_guard<std::mutex> L(Mu);
    if (Capacity == 0)
      return;
    if (Ring.size() < Capacity) {
      Ring.push_back(std::move(E));
    } else {
      Ring[Head] = std::move(E); // The oldest slot dies, whole.
      Head = (Head + 1) % Capacity;
    }
    ++Pushed;
  }
};

struct TracerState {
  std::mutex Mu;
  std::vector<std::shared_ptr<ThreadBuffer>> Buffers;
  TimePoint Epoch;
  bool EpochSet = false;
  size_t RingCapacity = 8192;
  unsigned NextTid = 0;
  uint64_t Dropped = 0; ///< Ring-overflow losses across all drains.
};

TracerState &tracerState() {
  static TracerState S;
  return S;
}

thread_local std::shared_ptr<ThreadBuffer> LocalBuf;
thread_local std::string PendingThreadName;

/// The calling thread's ring, registering it on first use.
ThreadBuffer &localBuffer() {
  if (!LocalBuf) {
    TracerState &S = tracerState();
    auto B = std::make_shared<ThreadBuffer>();
    std::lock_guard<std::mutex> L(S.Mu);
    B->Tid = S.NextTid++;
    B->Capacity = S.RingCapacity;
    B->Name = PendingThreadName.empty()
                  ? "thread-" + std::to_string(B->Tid)
                  : PendingThreadName;
    S.Buffers.push_back(B);
    LocalBuf = std::move(B);
  }
  return *LocalBuf;
}

} // namespace

void telemetry::enableTracing(size_t RingCapacity) {
  TracerState &S = tracerState();
  {
    std::lock_guard<std::mutex> L(S.Mu);
    if (RingCapacity != 0)
      S.RingCapacity = RingCapacity;
    if (!S.EpochSet) {
      S.Epoch = now();
      S.EpochSet = true;
    }
  }
  detail::Flags.fetch_or(TraceSpans | AggregateSpans,
                         std::memory_order_relaxed);
}

void telemetry::enableSpanAggregation() {
  detail::Flags.fetch_or(AggregateSpans, std::memory_order_relaxed);
}

void telemetry::disableTracing() {
  detail::Flags.store(0, std::memory_order_relaxed);
  TracerState &S = tracerState();
  std::lock_guard<std::mutex> L(S.Mu);
  for (auto &B : S.Buffers) {
    std::lock_guard<std::mutex> BL(B->Mu);
    B->Ring.clear();
    B->Head = 0;
    B->Pushed = 0;
    B->Drained = 0;
  }
  S.Dropped = 0;
  S.EpochSet = false;
}

void telemetry::setThreadName(std::string Name) {
  PendingThreadName = Name;
  if (LocalBuf) {
    std::lock_guard<std::mutex> L(LocalBuf->Mu);
    LocalBuf->Name = std::move(Name);
  }
}

void Span::finish() {
  TimePoint End = now();
  double Seconds = secondsBetween(Start, End);
  if (F & AggregateSpans)
    registry().recordSpan(Name, Seconds);
  if (!(F & TraceSpans))
    return;
  TracerState &S = tracerState();
  TimePoint Epoch;
  {
    std::lock_guard<std::mutex> L(S.Mu);
    if (!S.EpochSet)
      return; // disableTracing raced this span; drop it.
    Epoch = S.Epoch;
  }
  SpanEvent E;
  E.Name = Name;
  E.StartNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  Start - Epoch)
                  .count();
  E.DurNs =
      std::chrono::duration_cast<std::chrono::nanoseconds>(End - Start)
          .count();
  E.Args = std::move(Args);
  localBuffer().push(std::move(E));
}

TraceSnapshot telemetry::drainTrace() {
  TracerState &S = tracerState();
  std::vector<std::shared_ptr<ThreadBuffer>> Buffers;
  {
    std::lock_guard<std::mutex> L(S.Mu);
    Buffers = S.Buffers;
  }
  TraceSnapshot Snap;
  uint64_t NewlyDropped = 0;
  for (auto &B : Buffers) {
    std::lock_guard<std::mutex> BL(B->Mu);
    size_t N = B->Ring.size();
    // Everything before the ring's oldest surviving event overflowed.
    uint64_t Oldest = B->Pushed - N;
    if (Oldest > B->Drained)
      NewlyDropped += Oldest - B->Drained;
    for (size_t I = 0; I < N; ++I) {
      // Chronological: the ring's oldest slot is Head once it has
      // wrapped, 0 before.
      size_t Idx = N < B->Capacity ? I : (B->Head + I) % B->Capacity;
      SpanEvent &E = B->Ring[Idx];
      DrainedSpan D;
      D.Name = std::move(E.Name);
      D.Tid = B->Tid;
      D.ThreadName = B->Name;
      D.StartSeconds = E.StartNs * 1e-9;
      D.DurSeconds = E.DurNs * 1e-9;
      D.Args = std::move(E.Args);
      Snap.Spans.push_back(std::move(D));
    }
    B->Ring.clear();
    B->Head = 0;
    B->Drained = B->Pushed;
  }
  {
    std::lock_guard<std::mutex> L(S.Mu);
    S.Dropped += NewlyDropped;
    Snap.Dropped = S.Dropped;
  }
  std::stable_sort(Snap.Spans.begin(), Snap.Spans.end(),
                   [](const DrainedSpan &A, const DrainedSpan &B) {
                     if (A.Tid != B.Tid)
                       return A.Tid < B.Tid;
                     if (A.StartSeconds != B.StartSeconds)
                       return A.StartSeconds < B.StartSeconds;
                     return A.DurSeconds > B.DurSeconds; // Parent first.
                   });
  return Snap;
}

json::Value telemetry::traceToJson(const TraceSnapshot &Snap) {
  Value Events = Value::array();
  // One thread_name metadata record per lane, so the viewer labels
  // them; emit each lane once.
  std::vector<unsigned> Seen;
  for (const DrainedSpan &D : Snap.Spans) {
    if (std::find(Seen.begin(), Seen.end(), D.Tid) == Seen.end()) {
      Seen.push_back(D.Tid);
      Value M = Value::object();
      M.set("ph", "M");
      M.set("name", "thread_name");
      M.set("pid", 1);
      M.set("tid", static_cast<uint64_t>(D.Tid));
      Value MA = Value::object();
      MA.set("name", D.ThreadName);
      M.set("args", std::move(MA));
      Events.push(std::move(M));
    }
    Value E = Value::object();
    E.set("ph", "X");
    E.set("name", D.Name);
    E.set("pid", 1);
    E.set("tid", static_cast<uint64_t>(D.Tid));
    E.set("ts", D.StartSeconds * 1e6);  // Trace-event time unit: us.
    E.set("dur", D.DurSeconds * 1e6);
    if (!D.Args.empty()) {
      Value A = Value::object();
      for (const auto &[K, V] : D.Args)
        A.set(K.c_str(), V);
      E.set("args", std::move(A));
    }
    Events.push(std::move(E));
  }
  Value Top = Value::object();
  Top.set("traceEvents", std::move(Events));
  Top.set("displayTimeUnit", "ms");
  if (Snap.Dropped > 0)
    Top.set("wcsDroppedSpans", Snap.Dropped);
  return Top;
}

bool telemetry::writeTraceFile(const std::string &Path, std::string *Err) {
  return json::writeFile(Path, traceToJson(drainTrace()), Err);
}

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

Histogram::Histogram(std::vector<double> Bounds)
    : Bounds(std::move(Bounds)), Counts(this->Bounds.size() + 1) {}

void Histogram::observe(double X) {
  // First bound >= X is the bucket: a value exactly on a boundary
  // belongs to that boundary's bucket, anything above every bound to
  // the overflow bucket.
  size_t I = std::lower_bound(Bounds.begin(), Bounds.end(), X) -
             Bounds.begin();
  Counts[I].fetch_add(1, std::memory_order_relaxed);
  Num.fetch_add(1, std::memory_order_relaxed);
  Sum.fetch_add(X, std::memory_order_relaxed);
}

std::vector<uint64_t> Histogram::bucketCounts() const {
  std::vector<uint64_t> Out(Counts.size());
  for (size_t I = 0; I < Counts.size(); ++I)
    Out[I] = Counts[I].load(std::memory_order_relaxed);
  return Out;
}

double Histogram::sum() const {
  return Sum.load(std::memory_order_relaxed);
}

const std::vector<double> &telemetry::defaultLatencyBounds() {
  static const std::vector<double> B = {1e-4, 1e-3, 1e-2, 0.1, 1.0,
                                        10.0, 100.0};
  return B;
}

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

Counter &Registry::counter(const std::string &Name) {
  std::lock_guard<std::mutex> L(Mu);
  auto &Slot = Counters[Name];
  if (!Slot)
    Slot = std::make_unique<Counter>();
  return *Slot;
}

Gauge &Registry::gauge(const std::string &Name) {
  std::lock_guard<std::mutex> L(Mu);
  auto &Slot = Gauges[Name];
  if (!Slot)
    Slot = std::make_unique<Gauge>();
  return *Slot;
}

Histogram &Registry::histogram(const std::string &Name,
                               const std::vector<double> &Bounds) {
  std::lock_guard<std::mutex> L(Mu);
  auto &Slot = Histograms[Name];
  if (!Slot)
    Slot = std::make_unique<Histogram>(Bounds);
  return *Slot;
}

void Registry::recordSpan(const char *Name, double Seconds) {
  std::lock_guard<std::mutex> L(Mu);
  SpanAgg &A = SpanAggs[Name];
  ++A.Count;
  A.TotalSeconds += Seconds;
}

MetricsDoc Registry::snapshot(std::string Tool) const {
  MetricsDoc D;
  D.Tool = std::move(Tool);
  std::lock_guard<std::mutex> L(Mu);
  for (const auto &[Name, C] : Counters)
    D.Counters.emplace_back(Name, C->value());
  for (const auto &[Name, G] : Gauges)
    D.Gauges.emplace_back(Name, G->value());
  for (const auto &[Name, H] : Histograms) {
    MetricsDoc::Hist Out;
    Out.Name = Name;
    Out.Bounds = H->bounds();
    Out.Counts = H->bucketCounts();
    Out.Count = H->count();
    Out.Sum = H->sum();
    D.Histograms.push_back(std::move(Out));
  }
  for (const auto &[Name, A] : SpanAggs) {
    MetricsDoc::SpanAgg Out;
    Out.Name = Name;
    Out.Count = A.Count;
    Out.TotalSeconds = A.TotalSeconds;
    D.Spans.push_back(std::move(Out));
  }
  return D;
}

Registry &telemetry::registry() {
  static Registry R;
  return R;
}

//===----------------------------------------------------------------------===//
// The wcs-metrics document
//===----------------------------------------------------------------------===//

using namespace wcs::jsonfield;

uint64_t MetricsDoc::counter(const std::string &Name) const {
  for (const auto &[N, V] : Counters)
    if (N == Name)
      return V;
  return 0;
}

const MetricsDoc::Hist *
MetricsDoc::histogram(const std::string &Name) const {
  for (const Hist &H : Histograms)
    if (H.Name == Name)
      return &H;
  return nullptr;
}

json::Value wcs::toJson(const MetricsDoc &D) {
  Value V = Value::object();
  V.set("schema", MetricsSchemaName);
  V.set("schema_version", MetricsSchemaVersion);
  V.set("tool", D.Tool);
  Value C = Value::object();
  for (const auto &[Name, X] : D.Counters)
    C.set(Name.c_str(), X);
  V.set("counters", std::move(C));
  Value G = Value::object();
  for (const auto &[Name, X] : D.Gauges)
    G.set(Name.c_str(), X);
  V.set("gauges", std::move(G));
  Value Hs = Value::array();
  for (const MetricsDoc::Hist &H : D.Histograms) {
    Value HV = Value::object();
    HV.set("name", H.Name);
    Value B = Value::array();
    for (double X : H.Bounds)
      B.push(X);
    HV.set("bounds", std::move(B));
    Value Cs = Value::array();
    for (uint64_t X : H.Counts)
      Cs.push(X);
    HV.set("counts", std::move(Cs));
    HV.set("count", H.Count);
    HV.set("sum", H.Sum);
    Hs.push(std::move(HV));
  }
  V.set("histograms", std::move(Hs));
  Value Ss = Value::array();
  for (const MetricsDoc::SpanAgg &A : D.Spans) {
    Value SV = Value::object();
    SV.set("name", A.Name);
    SV.set("count", A.Count);
    SV.set("total_seconds", A.TotalSeconds);
    Ss.push(std::move(SV));
  }
  V.set("spans", std::move(Ss));
  return V;
}

bool wcs::fromJson(const json::Value &V, MetricsDoc &Out, std::string *Err) {
  if (!needSchema(V, MetricsSchemaName, MetricsSchemaVersion, Err))
    return false;
  MetricsDoc D;
  const Value *C, *G, *Hs, *Ss;
  if (!needString(V, "tool", D.Tool, Err) ||
      !needObject(V, "counters", C, Err) ||
      !needObject(V, "gauges", G, Err) ||
      !needArray(V, "histograms", Hs, Err) ||
      !needArray(V, "spans", Ss, Err))
    return false;
  for (const auto &M : C->members()) {
    if (!M.Val.isNonNegativeInt())
      return failMsg(Err, "counter '" + M.Key +
                              "' must be a non-negative integer");
    D.Counters.emplace_back(M.Key, M.Val.asUInt());
  }
  for (const auto &M : G->members()) {
    if (!M.Val.isNumber())
      return failMsg(Err, "gauge '" + M.Key + "' must be a number");
    D.Gauges.emplace_back(M.Key, M.Val.asDouble());
  }
  for (const Value &HV : Hs->items()) {
    MetricsDoc::Hist H;
    const Value *B, *Cs;
    if (!needString(HV, "name", H.Name, Err) ||
        !needArray(HV, "bounds", B, Err) ||
        !needArray(HV, "counts", Cs, Err) ||
        !needUInt(HV, "count", H.Count, Err) ||
        !needDouble(HV, "sum", H.Sum, Err))
      return false;
    for (const Value &X : B->items()) {
      if (!X.isNumber())
        return failMsg(Err, "histogram bound must be a number");
      H.Bounds.push_back(X.asDouble());
    }
    for (const Value &X : Cs->items()) {
      if (!X.isNonNegativeInt())
        return failMsg(Err, "histogram count must be a non-negative "
                            "integer");
      H.Counts.push_back(X.asUInt());
    }
    if (H.Counts.size() != H.Bounds.size() + 1)
      return failMsg(Err, "histogram '" + H.Name +
                              "' must have one count per bucket");
    D.Histograms.push_back(std::move(H));
  }
  for (const Value &SV : Ss->items()) {
    MetricsDoc::SpanAgg A;
    if (!needString(SV, "name", A.Name, Err) ||
        !needUInt(SV, "count", A.Count, Err) ||
        !needDouble(SV, "total_seconds", A.TotalSeconds, Err))
      return false;
    D.Spans.push_back(std::move(A));
  }
  Out = std::move(D);
  return true;
}

bool wcs::writeMetricsFile(const std::string &Path, const MetricsDoc &D,
                           std::string *Err) {
  return json::writeFile(Path, toJson(D), Err);
}

bool wcs::readMetricsFile(const std::string &Path, MetricsDoc &Out,
                          std::string *Err) {
  Value V;
  if (!json::readFile(Path, V, Err))
    return false;
  return fromJson(V, Out, Err);
}
