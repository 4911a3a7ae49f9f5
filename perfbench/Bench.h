//===- perfbench/Bench.h - Shared pieces of the wcs benchmark ---*- C++ -*-===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The vocabulary every workload of the benchmark shares: sample sets
/// with order statistics, golden counter tables, the ledger of attempted
/// and failed operations, the metric list a run reports, the Workload
/// interface the driver (main.cpp) runs, and the span analysis of a
/// traced run, and the host gauge that scales the gated times to a
/// reference host speed. Everything here is bench-side: the wcs library
/// is only ever called through its public headers, and all times are
/// host seconds on telemetry::now().
///
//===----------------------------------------------------------------------===//

#ifndef WCS_PERFBENCH_BENCH_H
#define WCS_PERFBENCH_BENCH_H

#include "wcs/driver/SweepRequest.h"
#include "wcs/sim/SimStats.h"
#include "wcs/support/Json.h"
#include "wcs/support/Telemetry.h"

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace wcs {
namespace perfbench {

/// A set of host-time (or other) samples with order statistics.
class Samples {
public:
  void add(double V) { Values.push_back(V); }
  size_t size() const { return Values.size(); }
  const std::vector<double> &values() const { return Values; }
  double sum() const;
  double mean() const { return Values.empty() ? 0.0 : sum() / size(); }
  /// Linear interpolation between closest ranks (numpy's default); 0 on
  /// an empty set.
  double quantile(double Q) const;
  double median() const { return quantile(0.5); }
  double min() const { return quantile(0.0); }
  /// The samples as a JSON array, in insertion order.
  json::Value json() const;

private:
  std::vector<double> Values;
};

/// The exactly-compared counters of one job or sweep point: level-0 and
/// level-1 accesses and misses (level 1 is zero for one-level caches).
using Counters = std::array<uint64_t, 4>;

Counters countersOf(const SimStats &S);
std::string countersStr(const Counters &C);

/// A workload's golden counters, keyed by a readable job or point name
/// ("gemm/LRU", "lu/b/L1[...]"). Committed under perfbench/golden/, one
/// JSON document per workload.
class Golden {
public:
  bool load(const std::string &Path, const std::string &Workload,
            std::string *Err);
  bool save(const std::string &Path, const std::string &Workload,
            std::string *Err) const;
  void record(const std::string &Key, const Counters &C) { Table[Key] = C; }
  /// nullptr when \p Key has no golden entry.
  const Counters *find(const std::string &Key) const;

private:
  std::map<std::string, Counters> Table;
};

/// Attempted and failed operations of a run. An operation fails when it
/// returns Ok=false, fails in transport, or its counters differ from the
/// golden counters; a broken invariant (the daemon computing a point
/// twice) also counts as one failed operation.
class Ledger {
public:
  void pass() { ++Attempted; }
  void fail(std::string Why);
  /// Counts one operation: passes when \p Got equals the golden entry
  /// for \p Key, fails otherwise with a diagnostic.
  bool check(const Golden &G, const std::string &Key, const Counters &Got);

  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }
  /// The first failure diagnostics (capped; the count is in failed()).
  const std::vector<std::string> &failures() const { return Reasons; }

private:
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Reasons;
};

/// One reported metric, by name, with its unit.
struct Metric {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
};

/// The metrics and free-form details one workload reports.
struct Report {
  std::vector<Metric> Metrics;
  json::Value Details = json::Value::object();

  void add(std::string Name, double Value, std::string Unit) {
    Metrics.push_back({std::move(Name), Value, std::move(Unit)});
  }
};

/// Host seconds of one operation, raw and on the reference host.
struct Timing {
  double Wall = 0.0; ///< As the steady clock measured it.
  double Ref = 0.0;  ///< Scaled to the reference host speed.
};

/// The host-speed gauge. A shared host slows down and speeds up by up to
/// 2x over seconds to minutes as other tenants come and go, and a run of
/// a minute can sit in a slow spell from end to end, so no statistic over
/// one run's samples removes it. The gauge times a fixed bench-side
/// reference -- a small 8-way LRU cache simulation over a seeded address
/// stream, which no change to the library touches -- just before and
/// just after each timed operation, and scales the operation's seconds by
/// RefSeconds over the mean of those two probes: seconds on a host that
/// runs the reference in RefSeconds.
class HostGauge {
public:
  /// A round figure a little under the reference's seconds on the
  /// 4-vCPU Xeon host the benchmark was tuned on (about 100 to 165 us
  /// there, as other tenants came and went). It only sets the scale.
  static constexpr double RefSeconds = 100e-6;

  template <typename F> Timing time(F &&Op) {
    double Before = probe();
    telemetry::TimePoint T0 = telemetry::now();
    Op();
    Timing T;
    T.Wall = telemetry::secondsSince(T0);
    T.Ref = scale(T.Wall, Before, probe());
    return T;
  }
  /// \p Wall seconds measured between probes \p Before and \p After, on
  /// the reference host.
  double scale(double Wall, double Before, double After) const {
    return Wall * RefSeconds / (0.5 * (Before + After));
  }
  /// Seconds of one probe: the median of three runs of the reference, so
  /// that an interrupt in one run does not count.
  double probe();
  /// The median probe over RefSeconds: how much slower than the
  /// reference host this run's host ran.
  double slowdown() const { return Probes.median() / RefSeconds; }

private:
  Samples Probes;
};

/// Hands the allocator's free memory back to the kernel (malloc_trim)
/// and lowers this process's peak-RSS mark (VmHWM) to its current RSS
/// through /proc/self/clear_refs (Linux 4.0 and later), so the peak of
/// the operation that follows can be read with peakRssMiB(). The
/// operation starts from a trimmed heap, as in a process of its own, and
/// its peak does not hang on what earlier ones left in the allocator.
/// False where the kernel refuses the reset.
bool resetPeakRss();
/// VmHWM in MiB: the peak RSS since the last resetPeakRss() (or since
/// the process started). 0 when /proc/self/status has none.
double peakRssMiB();

/// What the driver hands every workload.
struct RunContext {
  uint64_t Seed = 1;
  std::string GoldenDir; ///< Directory of the golden documents.
  std::string TmpDir;    ///< Per-run scratch (sockets, stores, logs).
  HostGauge *Gauge = nullptr; ///< Times the gated operations.
};

/// One workload of the benchmark. The driver runs rounds until the time
/// budget is spent, each after a batch of timed set-ups. A traced run
/// alternates two untraced and two traced rounds, then calls
/// traceExtras().
class Workload {
public:
  virtual ~Workload() = default;
  virtual const char *name() const = 0;

  /// Loads the golden table and derives the workload's inputs from the
  /// seed. Untimed. Returns false when the benchmark cannot run at all.
  virtual bool init(const RunContext &Ctx, std::string *Err) = 0;
  /// The workload's set-up -- program builds, or a daemon start -- leaving
  /// it ready for one round. Returns the set-up's host seconds.
  virtual double setup(Ledger &L) = 0;
  /// One measured round. Starts from empty modelled caches (and, for the
  /// daemon, an empty result store).
  virtual void round(Ledger &L) = 0;
  /// Per-layer measurements taken outside the rounds, after a traced
  /// round.
  virtual void traceExtras(Ledger &) {}
  /// Worker threads and client connections doing the work.
  virtual unsigned workers() const = 0;
  virtual unsigned clients() const { return 0; }

  /// End-to-end metrics over every round so far: the generic set
  /// work_s, p50_ms, p90_ms, ops_per_s (the driver adds setup_s and
  /// peak_rss_mb), then the workload's own named figures.
  virtual void endToEnd(Report &R) const = 0;
  /// Per-layer metrics of the most recent round.
  virtual void perLayer(Report &R) const = 0;

  /// Computes the golden counters from scratch, cross-checking every
  /// job or point between two of the repo's backends, into \p G.
  /// Returns false on any disagreement.
  virtual bool makeGolden(Golden &G, std::string *Err) = 0;
};

std::unique_ptr<Workload> makeKernelsMedium();
std::unique_ptr<Workload> makeSweepMedium();
std::unique_ptr<Workload> makeServeMixed();

/// The workload's golden document path.
std::string goldenPath(const RunContext &Ctx, const std::string &Workload);

/// A named sweep grid in wcs-sim --sweep-l1/--sweep-l2 syntax.
struct GridSpec {
  const char *Name;
  const char *L1;
  const char *L2; ///< nullptr for one-level grids.
};

/// The sweep request of \p Kernel at \p Size over grid \p G.
bool makeSweepRequest(const std::string &Kernel, ProblemSize Size,
                      const GridSpec &G, SweepRequest &Out,
                      std::string *Err);

/// Golden key of one sweep point: "<prefix>/<HierarchyConfig::str()>".
std::string pointKey(const std::string &Prefix, const HierarchyConfig &H);

/// Runs \p Req through runSweepRequest, cross-checks every point against
/// a dedicated concrete simulation, and records the counters under
/// pointKey(\p Prefix, config). Returns false on any disagreement.
bool recordSweepGolden(const SweepRequest &Req, const std::string &Prefix,
                       Golden &Out, std::string *Err);

/// SplitMix64: the benchmark's one seeded generator (portable, unlike
/// the standard distributions).
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next();
  /// Uniform in [0, N).
  uint64_t below(uint64_t N) { return next() % N; }
  /// Fisher-Yates shuffle of \p V.
  template <typename T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[below(I)]);
  }

private:
  uint64_t State;
};

/// Ratio that stays finite: 0 when \p Den is 0.
inline double ratio(double Num, double Den) {
  return Den == 0.0 ? 0.0 : Num / Den;
}

/// The benchmark's layers, in report order.
inline constexpr const char *Layers[] = {"frontend", "sim", "trace", "driver",
                                         "serve"};

/// The layer a span belongs to: bench spans are named "<layer>.<what>";
/// the library's own spans map by name (sweep passes and recordings to
/// trace, batch jobs to sim, sweep and batch orchestration to driver,
/// scheduler work to serve). Empty for unknown names.
std::string layerOf(const std::string &SpanName);

/// Self time per layer: each span's duration minus the part of it that
/// its child spans (same thread, nested) cover, summed by layerOf().
std::map<std::string, double>
layerSelfSeconds(const telemetry::TraceSnapshot &Snap);

} // namespace perfbench
} // namespace wcs

#endif // WCS_PERFBENCH_BENCH_H
