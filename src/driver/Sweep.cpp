//===- src/driver/Sweep.cpp - Single-pass cache-hierarchy sweep -----------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "wcs/driver/Sweep.h"

#include "wcs/driver/Results.h"
#include "wcs/support/FaultInjection.h"
#include "wcs/support/JsonReader.h"
#include "wcs/support/StringUtil.h"
#include "wcs/support/Telemetry.h"
#include "wcs/trace/FilteredStream.h"
#include "wcs/trace/PeriodicPass.h"
#include "wcs/trace/StackDistance.h"
#include "wcs/trace/TraceGenerator.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <map>
#include <sstream>
#include <stdexcept>

using namespace wcs;
using namespace wcs::jsonfield;
using json::Value;

const char *wcs::sweepMethodName(SweepMethod M) {
  switch (M) {
  case SweepMethod::StackDistance:
    return "stack-distance";
  case SweepMethod::FilteredStream:
    return "filtered-stream";
  case SweepMethod::Simulated:
    return "simulated";
  case SweepMethod::Store:
    return "store";
  }
  return "?";
}

bool wcs::parseSweepMethodName(const std::string &Name, SweepMethod &Out) {
  std::string L = toLowerAscii(Name);
  if (L == "stack-distance" || L == "stackdistance")
    Out = SweepMethod::StackDistance;
  else if (L == "filtered-stream" || L == "filteredstream")
    Out = SweepMethod::FilteredStream;
  else if (L == "simulated")
    Out = SweepMethod::Simulated;
  else if (L == "store")
    Out = SweepMethod::Store;
  else
    return false;
  return true;
}

//===----------------------------------------------------------------------===//
// The sweep driver
//===----------------------------------------------------------------------===//

namespace {

/// The stack-distance banks one pass conditions: one per distinct
/// (block size, set count) geometry, each sized to the widest
/// associativity any of its points asks for -- which is known only once
/// the partition is complete, so the banks are built after it.
struct BankPlan {
  std::map<std::pair<unsigned, unsigned>, size_t> Index;
  std::vector<CacheConfig> Widest; ///< Per bank: geometry at its widest.

  /// Registers a point answered from \p C's geometry; returns its bank.
  size_t add(const CacheConfig &C) {
    auto Key = std::make_pair(C.BlockBytes, C.numSets());
    auto It = Index.find(Key);
    if (It == Index.end()) {
      It = Index.emplace(Key, Widest.size()).first;
      Widest.push_back(C);
    } else if (C.Assoc > Widest[It->second].Assoc) {
      Widest[It->second] = C;
    }
    return It->second;
  }

  std::vector<SetDistanceBank> build() const {
    std::vector<SetDistanceBank> Banks;
    Banks.reserve(Widest.size());
    for (const CacheConfig &C : Widest)
      Banks.emplace_back(C.BlockBytes, C.numSets(), C.Assoc);
    return Banks;
  }
};

/// How a valid point is answered: the one partition rule behind
/// runSweep and partitionSweepGroups.
enum class PointPath {
  Bank,      ///< Single-level write-allocate LRU: a stack-distance bank.
  Filtered,  ///< Two-level NINE: the filtered stream of its L1.
  Simulated, ///< Everything else: a simulation job.
};

PointPath pathOf(const HierarchyConfig &H) {
  const CacheConfig &L1 = H.Levels.front();
  if (H.numLevels() == 1 && L1.answeredByStackDistance())
    return PointPath::Bank;
  if (H.numLevels() == 2 &&
      H.Inclusion == InclusionPolicy::NonInclusiveNonExclusive)
    return PointPath::Filtered;
  return PointPath::Simulated;
}

/// The points each SweepMethod answered, indexed by the method; failed
/// points count under none.
std::array<size_t, 4>
okPointsByMethod(const std::vector<SweepPoint> &Points) {
  std::array<size_t, 4> N{};
  for (const SweepPoint &P : Points)
    if (P.Ok)
      ++N[static_cast<unsigned>(P.Method)];
  return N;
}

} // namespace

bool SweepReport::allOk() const {
  for (const SweepPoint &P : Points)
    if (!P.Ok)
      return false;
  return true;
}

std::string SweepReport::summary() const {
  char Pass[160];
  if (PeriodicPass)
    std::snprintf(Pass, sizeof(Pass),
                  "%u periodic warp passes (%u abandoned, %llu warps, "
                  "%.3f s; linear walk %.3f s)",
                  NumBanks, PeriodicAbandoned,
                  static_cast<unsigned long long>(PeriodicWarps),
                  PeriodicPassSeconds, TracePassSeconds);
  else
    std::snprintf(Pass, sizeof(Pass),
                  "one stack-distance pass (%u banks, %.3f s)", NumBanks,
                  TracePassSeconds);
  const std::array<size_t, 4> ByMethod = okPointsByMethod(Points);
  size_t Failed = Points.size();
  for (size_t N : ByMethod)
    Failed -= N;
  char Buf[512];
  std::snprintf(
      Buf, sizeof(Buf),
      "%zu points: %zu from %s, "
      "%zu from %u filtered L1 streams (%llu records, %llu stored, "
      "%.3f s), %zu fully simulated, %zu failed; %zu jobs (%zu replays, "
      "%zu deduped) on %u threads; %.3f s total",
      Points.size(),
      ByMethod[static_cast<unsigned>(SweepMethod::StackDistance)], Pass,
      ByMethod[static_cast<unsigned>(SweepMethod::FilteredStream)],
      FilteredGroups, static_cast<unsigned long long>(FilteredRecords),
      static_cast<unsigned long long>(FilteredStoredRecords), RecordSeconds,
      ByMethod[static_cast<unsigned>(SweepMethod::Simulated)], Failed,
      SimulatedJobs, ReplayJobs, DedupedPoints, Threads, WallSeconds);
  return Buf;
}

SweepReport wcs::runSweep(const ScopProgram &Program,
                          const std::vector<HierarchyConfig> &Configs,
                          const SweepOptions &Opts) {
  telemetry::Span RunSpan("sweep.run");
  RunSpan.arg("points", static_cast<uint64_t>(Configs.size()));
  telemetry::TimePoint T0 = telemetry::now();
  SweepReport Rep;
  Rep.Points.resize(Configs.size());

  // Partition the grid three ways:
  //  - single-level write-allocate LRU: answered from a per-set
  //    stack-distance bank keyed on (block size, set count), produced
  //    by a shared pass (periodic warp-aware per bank, or one linear
  //    walk feeding all banks -- see below);
  //  - two-level NINE: grouped by L1 config; each group records the
  //    L1-miss-filtered stream once, then answers LRU write-allocate
  //    L2s from banks conditioned on the stream and replays the rest
  //    through deduplicated BatchRunner jobs;
  //  - everything else: a simulation job, deduplicated by exact
  //    configuration.
  // An invalid point, or one whose blocks an element of the program
  // could straddle (validateBlockSize), fails with its diagnostic.
  BankPlan Plan;
  struct FastPoint {
    size_t Point;
    size_t Bank;
  };
  std::vector<FastPoint> Fast;

  struct AnalyticPoint {
    size_t Point;
    size_t Bank; ///< Index into the group's conditioned banks.
  };
  struct FilteredGroup {
    CacheConfig L1;
    std::vector<size_t> Members; ///< All input indices sharing this L1.
    std::vector<AnalyticPoint> Analytic;
    std::vector<size_t> ReplayPoints;
    BankPlan Plan;
    std::vector<SetDistanceBank> Banks; ///< Conditioned on the stream.
    FilteredStream Stream;
    double FeedSeconds = 0.0;
    /// Recording/feeding threw: the stream is unusable, exactly like a
    /// truncated one, and the group's points demote to plain simulation.
    bool Failed = false;
  };
  std::vector<FilteredGroup> Groups;
  std::map<std::string, size_t> GroupIndex; ///< L1 config key -> group.

  std::vector<size_t> PlainSim; ///< Input indices needing a full job.

  telemetry::Span PartitionSpan("sweep.partition");
  for (size_t I = 0; I < Configs.size(); ++I) {
    const HierarchyConfig &H = Configs[I];
    SweepPoint &P = Rep.Points[I];
    P.Cache = H;
    std::string CfgErr = H.validate();
    if (CfgErr.empty())
      CfgErr = validateBlockSize(Program, H.blockBytes(),
                                 Opts.Sim.IncludeScalars);
    if (!CfgErr.empty()) {
      P.Error = CfgErr;
      continue;
    }
    const CacheConfig &L1 = H.Levels.front();
    PointPath Path = pathOf(H);
    if (Path == PointPath::Bank) {
      P.Method = SweepMethod::StackDistance;
      P.Backend = SimBackend::StackDistance;
      Fast.push_back(FastPoint{I, Plan.add(L1)});
      continue;
    }
    if (Path == PointPath::Filtered) {
      std::string GKey = toJson(L1).dump(false);
      auto It = GroupIndex.find(GKey);
      if (It == GroupIndex.end()) {
        It = GroupIndex.emplace(std::move(GKey), Groups.size()).first;
        Groups.emplace_back();
        Groups.back().L1 = L1;
      }
      FilteredGroup &G = Groups[It->second];
      G.Members.push_back(I);
      P.Method = SweepMethod::FilteredStream;
      const CacheConfig &L2 = H.Levels[1];
      if (L2.answeredByStackDistance()) {
        P.Backend = SimBackend::StackDistance;
        G.Analytic.push_back(AnalyticPoint{I, G.Plan.add(L2)});
      } else {
        P.Backend = SimBackend::Concrete;
        G.ReplayPoints.push_back(I);
      }
      continue;
    }
    P.Method = SweepMethod::Simulated;
    P.Backend = Opts.Backend;
    PlainSim.push_back(I);
  }
  std::vector<SetDistanceBank> Banks = Plan.build();
  for (FilteredGroup &G : Groups)
    G.Banks = G.Plan.build();
  PartitionSpan.arg("banks", static_cast<uint64_t>(Banks.size()));
  PartitionSpan.arg("l1_groups", static_cast<uint64_t>(Groups.size()));
  PartitionSpan.arg("plain_sim", static_cast<uint64_t>(PlainSim.size()));
  PartitionSpan.end();
  Rep.NumBanks = static_cast<unsigned>(Banks.size());
  Rep.StackDistancePoints = Fast.size();

  // One runner serves the bank passes, the stream recordings and the
  // simulated partition (all independent work items).
  BatchRunner Runner(Opts.Threads);
  Rep.Threads = Runner.threads();

  // The shared stack-distance pass: every bank pays for one pass, of one
  // of two bit-identical flavors:
  //  - periodic (warp-aware): one warping depth-profile run per bank
  //    geometry, sublinear on periodic traces (trace/PeriodicPass);
  //  - linear: walks of the program feeding the banks (feedBanks), one
  //    per worker, each over its own group of banks.
  // A counting pre-walk (one step per loop activation) measures the
  // trace. Traces shorter than the threshold walk linearly -- their pass
  // is already cheap, and warping a cache that never fills cannot pay
  // for itself. Longer traces start a periodic pass per bank under a
  // warp pilot: a pass that has stepped 1/WarpPilotFraction of the trace
  // without a warp is abandoned, and its bank joins the linear walk. A
  // threshold of 0 runs every periodic pass to its end; UINT64_MAX
  // always walks linearly, without the pre-walk.
  //
  // Per bank: its periodic pass (none in the linear flavor, so its
  // seconds stay 0); whether the linear walk conditions it (every bank in
  // the linear flavor, the banks whose pass was not used in the periodic
  // one); and whether its pass counted past 2^64 - 1, which fails its
  // points with "counter overflow" -- a linear walk would count the same
  // accesses one by one and overflow too.
  std::vector<PeriodicPassResult> PassResults(Banks.size());
  std::vector<uint8_t> Walked(Banks.size(), 0), Overflowed(Banks.size(), 0);
  double PreWalkSeconds = 0.0;         ///< The counting pre-walk's cost.
  std::vector<SetDistanceBank *> Walk; ///< Banks the linear walk feeds.
  double WalkSeconds = 0.0;            ///< Its tasks' seconds, summed.
  if (!Banks.empty()) {
    telemetry::TimePoint P0 = telemetry::now();
    const bool Scalars = Opts.Sim.IncludeScalars;
    const uint64_t Threshold = Opts.WarpSweepMinAccesses;
    const uint64_t TraceLen =
        Threshold == UINT64_MAX ? 0 : countAccesses(Program, Scalars);
    const bool Periodic = Threshold != UINT64_MAX && TraceLen >= Threshold;
    // The pre-walk is pass cost too; count it so the attributed shares
    // still sum to the real cost of the method.
    PreWalkSeconds = telemetry::secondsSince(P0);
    if (Periodic) {
      Rep.PeriodicPass = true;
      Rep.PeriodicPassSeconds += PreWalkSeconds;
      const uint64_t Pilot =
          Threshold == 0 ? UINT64_MAX : TraceLen / WarpPilotFraction;
      // A pass that throws (e.g. bad_alloc) must not poison its bank: a
      // default-constructed PassResult holds an EMPTY histogram whose
      // addTo would "succeed" and make every point on the bank report
      // zero misses as if nothing was ever accessed. Track failures and
      // demote those banks to the linear walk.
      std::vector<std::function<void()>> Tasks;
      Tasks.reserve(Banks.size());
      for (size_t B = 0; B < Banks.size(); ++B)
        Tasks.push_back([&Program, &Opts, &PassResults, &Plan, &Walked,
                         &Overflowed, Pilot, B] {
          telemetry::Span PassSpan("sweep.periodic-bank");
          PassSpan.arg("bank", static_cast<uint64_t>(B));
          const CacheConfig &C = Plan.Widest[B];
          telemetry::TimePoint S0 = telemetry::now();
          try {
            PassResults[B] =
                runPeriodicPass(Program, C.BlockBytes, C.numSets(), C.Assoc,
                                Opts.Sim, Pilot);
          } catch (const std::overflow_error &) {
            Overflowed[B] = 1;
          } catch (...) {
            Walked[B] = 1;
          }
          // The pass's cost, whatever its outcome.
          PassResults[B].Stats.Seconds = telemetry::secondsSince(S0);
          PassSpan.arg("abandoned",
                       static_cast<uint64_t>(PassResults[B].Abandoned));
          PassSpan.arg("accesses", PassResults[B].Stats.SimulatedAccesses);
        });
      Runner.runTasks(Tasks);
      // A bank may also reject a successful pass result (its bulk
      // counters would overflow). Either way the bank stays empty and
      // is conditioned by the linear pass below instead -- the same
      // accesses, walked not scaled, so its points stay exact. Every
      // pass's seconds were spent, abandoned and failed ones included;
      // only the used passes' warps count. The fault point discards a
      // finished pass like a rejected result; it draws here, in bank
      // order, so a seeded schedule replays.
      for (size_t B = 0; B < Banks.size(); ++B) {
        Rep.PeriodicPassSeconds += PassResults[B].Stats.Seconds;
        if (Overflowed[B])
          continue;
        if (PassResults[B].Abandoned)
          ++Rep.PeriodicAbandoned;
        if (Walked[B] || PassResults[B].Abandoned ||
            faultinject::shouldFail("sweep.periodic-pass") ||
            !PassResults[B].addTo(Banks[B])) {
          Walked[B] = 1;
          Walk.push_back(&Banks[B]);
          continue;
        }
        if (Rep.TraceAccesses == 0)
          Rep.TraceAccesses = PassResults[B].Histogram.Accesses;
        Rep.PeriodicWarps += PassResults[B].Stats.Warps;
        Rep.PeriodicWarpedAccesses +=
            PassResults[B].Stats.WarpedAccesses;
      }
    } else {
      Rep.TracePassSeconds += PreWalkSeconds;
      Walked.assign(Banks.size(), 1);
      for (SetDistanceBank &B : Banks)
        Walk.push_back(&B);
    }
    if (!Walk.empty()) {
      // One walk per worker, each feeding its own group of banks: the
      // groups are disjoint, so the tasks share nothing they write.
      const size_t NumWalks =
          std::min<size_t>(Runner.threads(), Walk.size());
      std::vector<std::vector<SetDistanceBank *>> WalkGroups(NumWalks);
      for (size_t I = 0; I < Walk.size(); ++I)
        WalkGroups[I % NumWalks].push_back(Walk[I]);
      std::vector<double> TaskSeconds(NumWalks, 0.0);
      std::vector<uint64_t> WalkAccesses(NumWalks, 0);
      std::vector<std::function<void()>> Tasks;
      Tasks.reserve(NumWalks);
      for (size_t G = 0; G < NumWalks; ++G)
        Tasks.push_back([&Program, Scalars, &WalkGroups, &TaskSeconds,
                         &WalkAccesses, Periodic, G] {
          telemetry::Span WalkSpan("sweep.stack-distance-pass");
          WalkSpan.arg("flavor", Periodic ? "demoted-linear" : "linear");
          WalkSpan.arg("banks", static_cast<uint64_t>(WalkGroups[G].size()));
          telemetry::TimePoint L0 = telemetry::now();
          WalkAccesses[G] = feedBanks(Program, Scalars, WalkGroups[G]);
          TaskSeconds[G] = telemetry::secondsSince(L0);
        });
      Runner.runTasks(Tasks);
      for (double S : TaskSeconds)
        WalkSeconds += S;
      Rep.TracePassSeconds += WalkSeconds;
      if (Rep.TraceAccesses == 0)
        Rep.TraceAccesses = WalkAccesses.front();
    }
  }

  // Record one L1-miss-filtered stream per group and condition the L2
  // banks on it -- independent per group, so the recordings fan across
  // the worker pool. A truncated recording (stream cap exceeded even
  // after compression) demotes the whole group to plain simulation with
  // honest provenance.
  if (!Groups.empty()) {
    std::vector<std::function<void()>> RecTasks;
    RecTasks.reserve(Groups.size());
    for (FilteredGroup &G : Groups)
      RecTasks.push_back([&Program, &Opts, &G] {
        telemetry::Span RecSpan("sweep.filtered-record");
        RecSpan.arg("l1", G.L1.str());
        // Same honesty rule as the periodic passes: a recording that
        // throws leaves a default (empty, non-truncated) stream whose
        // replays would report zero misses. Fail the group instead; its
        // points demote to plain simulation below.
        try {
          G.Stream = FilteredStream::record(Program, G.L1, Opts.Sim,
                                            Opts.MaxFilteredRecords);
          if (!G.Stream.truncated() && !G.Banks.empty()) {
            telemetry::Span FeedSpan("sweep.filtered-feed");
            FeedSpan.arg("banks", static_cast<uint64_t>(G.Banks.size()));
            telemetry::TimePoint F0 = telemetry::now();
            for (SetDistanceBank &B : G.Banks)
              G.Stream.feed(B);
            G.FeedSeconds = telemetry::secondsSince(F0);
          }
        } catch (...) {
          G.Failed = true;
        }
      });
    Runner.runTasks(RecTasks);
  }
  for (FilteredGroup &G : Groups) {
    Rep.RecordSeconds += G.Stream.recordSeconds() + G.FeedSeconds;
    if (G.Stream.truncated() || G.Failed) {
      Rep.DemotedL1s.push_back(G.L1.str());
      for (size_t I : G.Members) {
        Rep.Points[I].Method = SweepMethod::Simulated;
        Rep.Points[I].Backend = Opts.Backend;
        PlainSim.push_back(I);
      }
      G.Analytic.clear();
      G.ReplayPoints.clear();
      continue;
    }
    ++Rep.FilteredGroups;
    Rep.FilteredPoints += G.Members.size();
    Rep.FilteredRecords += G.Stream.size();
    Rep.FilteredStoredRecords += G.Stream.storedRecords();
  }

  // Build the job list: full simulations plus stream replays, both
  // deduplicated by exact configuration (replays in their own key
  // namespace -- a replay and a full job of the same config must not
  // merge, their cost models differ).
  std::vector<BatchJob> Jobs;
  std::vector<std::vector<size_t>> JobPoints; ///< Job -> input indices.
  std::map<std::string, size_t> JobIndex;     ///< Config key -> job.
  auto addJob = [&](std::string Key, size_t PointIdx, BatchJob J) {
    auto It = JobIndex.find(Key);
    if (It == JobIndex.end()) {
      It = JobIndex.emplace(std::move(Key), Jobs.size()).first;
      Jobs.push_back(std::move(J));
      JobPoints.emplace_back();
    } else {
      ++Rep.DedupedPoints;
    }
    JobPoints[It->second].push_back(PointIdx);
  };
  for (size_t I : PlainSim) {
    const HierarchyConfig &H = Configs[I];
    BatchJob J;
    J.Program = &Program;
    J.Cache = H;
    J.Options = Opts.Sim;
    J.Backend = Opts.Backend;
    J.Tag = H.str();
    addJob(toJson(H).dump(false), I, std::move(J));
  }
  for (FilteredGroup &G : Groups)
    for (size_t I : G.ReplayPoints) {
      const HierarchyConfig &H = Configs[I];
      BatchJob J;
      J.Cache = H;
      J.Options = Opts.Sim;
      J.Backend = SimBackend::Concrete;
      J.Filtered = &G.Stream;
      J.Tag = H.str();
      addJob("replay:" + toJson(H).dump(false), I, std::move(J));
    }
  Rep.SimulatedJobs = Jobs.size();
  for (const BatchJob &J : Jobs)
    if (J.Filtered)
      ++Rep.ReplayJobs;

  // Fan the simulated partition across the workers.
  if (!Jobs.empty()) {
    BatchReport BRep = Runner.run(Jobs);
    for (size_t J = 0; J < Jobs.size(); ++J) {
      if (BRep.Results[J].Ok) {
        if (Jobs[J].Filtered)
          Rep.ReplaySeconds += BRep.Results[J].Stats.Seconds;
        else
          Rep.SimulatedSeconds += BRep.Results[J].Stats.Seconds;
      }
      for (size_t I : JobPoints[J]) {
        SweepPoint &P = Rep.Points[I];
        P.Ok = BRep.Results[J].Ok;
        P.Error = BRep.Results[J].Error;
        P.Stats = BRep.Results[J].Stats;
      }
    }
  }

  // Answer the fast-path points from the histograms. A point's seconds
  // are three equal shares: of its bank's pass over the bank's points,
  // of the pre-walk over every fast point, and, if the linear walk
  // conditioned its bank, of the walk over the walked points (the
  // linear flavor has no pass and walks every bank). They are the only
  // costs these points have, and the shares of every point, failed ones
  // included, sum back to stackDistanceSeconds().
  std::vector<size_t> BankPoints(Banks.size(), 0);
  size_t WalkedPoints = 0;
  for (const FastPoint &F : Fast) {
    ++BankPoints[F.Bank];
    WalkedPoints += Walked[F.Bank];
  }
  for (const FastPoint &F : Fast) {
    SweepPoint &P = Rep.Points[F.Point];
    const SimStats &PassStats = PassResults[F.Bank].Stats;
    P.Stats.Seconds =
        PassStats.Seconds / static_cast<double>(BankPoints[F.Bank]) +
        PreWalkSeconds / static_cast<double>(Fast.size());
    if (Walked[F.Bank])
      P.Stats.Seconds += WalkSeconds / static_cast<double>(WalkedPoints);
    if (Overflowed[F.Bank]) {
      P.Ok = false;
      P.Error = "counter overflow";
      continue;
    }
    const SetDistanceBank &Bank = Banks[F.Bank];
    P.Stats.NumLevels = 1;
    P.Stats.Level[0].Accesses = Bank.totalAccesses();
    P.Stats.Level[0].Misses =
        Bank.missesForCache(P.Cache.Levels.front());
    if (Walked[F.Bank]) {
      // Answered by the linear walk, whatever a discarded pass did.
      P.Stats.SimulatedAccesses = Bank.totalAccesses();
    } else {
      P.Stats.SimulatedAccesses = PassStats.SimulatedAccesses;
      P.Stats.WarpedAccesses = PassStats.WarpedAccesses;
      P.Stats.Warps = PassStats.Warps;
      P.Stats.FailedWarpChecks = PassStats.FailedWarpChecks;
      P.Stats.FailedBy = PassStats.FailedBy;
    }
    P.Ok = true;
  }

  // Answer the conditioned-bank points and attribute each group's
  // recording cost in equal shares over its members (replayed points
  // add their job's replay time on top; the shares again sum back to
  // the true recording cost).
  for (FilteredGroup &G : Groups) {
    if (G.Stream.truncated() || G.Failed)
      continue;
    double GShare = G.Members.empty()
                        ? 0.0
                        : (G.Stream.recordSeconds() + G.FeedSeconds) /
                              static_cast<double>(G.Members.size());
    for (const AnalyticPoint &A : G.Analytic) {
      SweepPoint &P = Rep.Points[A.Point];
      P.Stats.NumLevels = 2;
      P.Stats.Level[0] = G.Stream.l1Stats();
      P.Stats.Level[1].Accesses = G.Stream.size();
      P.Stats.Level[1].Misses =
          G.Banks[A.Bank].missesForCache(P.Cache.Levels[1]);
      P.Stats.SimulatedAccesses = G.Stream.l1Accesses();
      P.Stats.Seconds = GShare;
      P.Ok = true;
    }
    for (size_t I : G.ReplayPoints)
      Rep.Points[I].Stats.Seconds += GShare;
  }

  Rep.WallSeconds = telemetry::secondsSince(T0);
  return Rep;
}

std::vector<std::vector<size_t>>
wcs::partitionSweepGroups(const std::vector<HierarchyConfig> &Configs) {
  // The partition of runSweep (pathOf): the group key is the sharing
  // resource a point consumes, so points that could share work in one
  // combined call always land in one group.
  std::vector<std::vector<size_t>> Groups;
  std::map<std::string, size_t> ByKey;
  auto groupFor = [&](std::string Key) -> std::vector<size_t> & {
    auto It = ByKey.find(Key);
    if (It == ByKey.end()) {
      It = ByKey.emplace(std::move(Key), Groups.size()).first;
      Groups.emplace_back();
    }
    return Groups[It->second];
  };
  for (size_t I = 0; I < Configs.size(); ++I) {
    const HierarchyConfig &H = Configs[I];
    PointPath Path = H.validate().empty() ? pathOf(H) : PointPath::Simulated;
    if (Path == PointPath::Bank)
      groupFor("sd").push_back(I);
    else if (Path == PointPath::Filtered)
      groupFor("fs:" + toJson(H.Levels.front()).dump(false)).push_back(I);
    else
      groupFor("sim:" + toJson(H).dump(false)).push_back(I);
  }
  return Groups;
}

void wcs::mergeSweepReports(SweepReport &Into, const SweepReport &From) {
  Into.TracePassSeconds += From.TracePassSeconds;
  Into.TraceAccesses = std::max(Into.TraceAccesses, From.TraceAccesses);
  Into.NumBanks += From.NumBanks;
  Into.StackDistancePoints += From.StackDistancePoints;
  Into.PeriodicPass = Into.PeriodicPass || From.PeriodicPass;
  Into.PeriodicPassSeconds += From.PeriodicPassSeconds;
  Into.PeriodicAbandoned += From.PeriodicAbandoned;
  Into.PeriodicWarps += From.PeriodicWarps;
  Into.PeriodicWarpedAccesses += From.PeriodicWarpedAccesses;
  Into.FilteredPoints += From.FilteredPoints;
  Into.FilteredGroups += From.FilteredGroups;
  Into.FilteredRecords += From.FilteredRecords;
  Into.FilteredStoredRecords += From.FilteredStoredRecords;
  Into.RecordSeconds += From.RecordSeconds;
  Into.DemotedL1s.insert(Into.DemotedL1s.end(), From.DemotedL1s.begin(),
                         From.DemotedL1s.end());
  Into.SimulatedJobs += From.SimulatedJobs;
  Into.ReplayJobs += From.ReplayJobs;
  Into.DedupedPoints += From.DedupedPoints;
  Into.SimulatedSeconds += From.SimulatedSeconds;
  Into.ReplaySeconds += From.ReplaySeconds;
  Into.WallSeconds += From.WallSeconds;
}

std::string wcs::methodBreakdownLine(const SweepReport &D) {
  const std::array<size_t, 4> ByMethod = okPointsByMethod(D.Points);
  char Buf[448];
  int N = std::snprintf(
      Buf, sizeof(Buf),
      "stack-distance %zu pts %.3f s (%s)  |  filtered-stream %zu pts "
      "%.3f s (record %.3f, replay %.3f)  |  simulated %zu pts %.3f s",
      ByMethod[static_cast<unsigned>(SweepMethod::StackDistance)],
      D.TracePassSeconds + D.PeriodicPassSeconds,
      D.PeriodicPass ? "periodic warp pass" : "linear trace pass",
      ByMethod[static_cast<unsigned>(SweepMethod::FilteredStream)],
      D.RecordSeconds + D.ReplaySeconds, D.RecordSeconds,
      D.ReplaySeconds,
      ByMethod[static_cast<unsigned>(SweepMethod::Simulated)],
      D.SimulatedSeconds);
  // Store-served points only occur in daemon responses; the segment is
  // omitted for plain CLI sweeps so their summary line is unchanged.
  size_t Stored = ByMethod[static_cast<unsigned>(SweepMethod::Store)];
  if (Stored > 0 && N > 0 && static_cast<size_t>(N) < sizeof(Buf))
    std::snprintf(Buf + N, sizeof(Buf) - static_cast<size_t>(N),
                  "  |  store %zu pts", Stored);
  return Buf;
}

//===----------------------------------------------------------------------===//
// The wcs-sweep document
//===----------------------------------------------------------------------===//

Value wcs::toJson(const SweepPoint &P) {
  Value V = Value::object();
  V.set("cache", toJson(P.Cache));
  V.set("method", sweepMethodName(P.Method));
  V.set("backend", backendName(P.Backend));
  V.set("ok", P.Ok);
  V.set("error", P.Error);
  V.set("stats", toJson(P.Stats));
  return V;
}

bool wcs::fromJson(const Value &V, SweepPoint &Out, std::string *Err) {
  std::string Method, Backend;
  const Value *Cache, *Stats;
  if (!needMember(V, "cache", Cache, Err) ||
      !fromJson(*Cache, Out.Cache, Err) ||
      !needString(V, "method", Method, Err) ||
      !needString(V, "backend", Backend, Err) ||
      !needBool(V, "ok", Out.Ok, Err) ||
      !needString(V, "error", Out.Error, Err) ||
      !needMember(V, "stats", Stats, Err) ||
      !fromJson(*Stats, Out.Stats, Err))
    return false;
  if (!parseSweepMethodName(Method, Out.Method))
    return failMsg(Err, "unknown sweep method '" + Method + "'");
  if (!parseBackendName(Backend, Out.Backend))
    return failMsg(Err, "unknown backend '" + Backend + "'");
  return true;
}

Value wcs::toJson(const SweepReport &D) {
  Value V = Value::object();
  V.set("schema", SweepSchemaName);
  V.set("schema_version", SweepSchemaVersion);
  V.set("tool", D.Tool);
  V.set("program", D.Program);
  V.set("size", D.SizeName);
  V.set("threads", D.Threads);
  V.set("trace_pass_seconds", D.TracePassSeconds);
  V.set("trace_accesses", D.TraceAccesses);
  V.set("periodic_pass", D.PeriodicPass);
  V.set("periodic_pass_seconds", D.PeriodicPassSeconds);
  V.set("periodic_warps", D.PeriodicWarps);
  V.set("periodic_warped_accesses", D.PeriodicWarpedAccesses);
  V.set("filtered_groups", D.FilteredGroups);
  V.set("filtered_records", D.FilteredRecords);
  V.set("filtered_stored_records", D.FilteredStoredRecords);
  V.set("record_seconds", D.RecordSeconds);
  V.set("replay_seconds", D.ReplaySeconds);
  V.set("simulated_seconds", D.SimulatedSeconds);
  Value Demoted = Value::array();
  for (const std::string &L1 : D.DemotedL1s)
    Demoted.push(L1);
  V.set("demoted_l1_groups", std::move(Demoted));
  V.set("simulated_jobs", static_cast<uint64_t>(D.SimulatedJobs));
  V.set("deduped_points", static_cast<uint64_t>(D.DedupedPoints));
  Value Points = Value::array();
  for (const SweepPoint &P : D.Points)
    Points.push(toJson(P));
  V.set("points", std::move(Points));
  return V;
}

bool wcs::fromJson(const Value &V, SweepReport &Out, std::string *Err) {
  if (!needSchema(V, SweepSchemaName, SweepSchemaVersion, Err))
    return false;
  // Figures the document does not carry, and the optional ones absent
  // from pre-engine and pre-periodic v1 files, read as 0/false/empty.
  SweepReport R;
  uint64_t SimJobs, Deduped;
  const Value *Points;
  if (!needString(V, "tool", R.Tool, Err) ||
      !needString(V, "program", R.Program, Err) ||
      !needString(V, "size", R.SizeName, Err) ||
      !needU32(V, "threads", R.Threads, Err) ||
      !needDouble(V, "trace_pass_seconds", R.TracePassSeconds, Err) ||
      !needUInt(V, "trace_accesses", R.TraceAccesses, Err) ||
      // The filtered-stream and periodic-pass figures joined the v1
      // schema after its first release: optional on read (defaulting
      // to 0/false, which is what older sweeps genuinely had), always
      // written.
      !optBool(V, "periodic_pass", R.PeriodicPass, Err) ||
      !optDouble(V, "periodic_pass_seconds", R.PeriodicPassSeconds, Err) ||
      !optUInt(V, "periodic_warps", R.PeriodicWarps, Err) ||
      !optUInt(V, "periodic_warped_accesses", R.PeriodicWarpedAccesses, Err) ||
      !optU32(V, "filtered_groups", R.FilteredGroups, Err) ||
      !optUInt(V, "filtered_records", R.FilteredRecords, Err) ||
      !optUInt(V, "filtered_stored_records", R.FilteredStoredRecords, Err) ||
      !optDouble(V, "record_seconds", R.RecordSeconds, Err) ||
      !optDouble(V, "replay_seconds", R.ReplaySeconds, Err) ||
      !optDouble(V, "simulated_seconds", R.SimulatedSeconds, Err) ||
      !needUInt(V, "simulated_jobs", SimJobs, Err) ||
      !needUInt(V, "deduped_points", Deduped, Err) ||
      !needArray(V, "points", Points, Err))
    return false;
  if (const Value *Demoted = V.find("demoted_l1_groups")) {
    if (!Demoted->isArray())
      return failMsg(Err, "member 'demoted_l1_groups' must be an array");
    for (size_t N = 0; N < Demoted->size(); ++N) {
      if (!Demoted->at(N).isString())
        return failMsg(Err,
                       "member 'demoted_l1_groups' must hold strings");
      R.DemotedL1s.push_back(Demoted->at(N).asString());
    }
  }
  R.SimulatedJobs = static_cast<size_t>(SimJobs);
  R.DedupedPoints = static_cast<size_t>(Deduped);
  R.Points.reserve(Points->size());
  for (size_t N = 0; N < Points->size(); ++N) {
    SweepPoint P;
    if (!fromJson(Points->at(N), P, Err)) {
      if (Err) {
        std::ostringstream OS;
        OS << "point " << N << ": " << *Err;
        *Err = OS.str();
      }
      return false;
    }
    R.Points.push_back(std::move(P));
  }
  Out = std::move(R);
  return true;
}

bool wcs::writeSweepFile(const std::string &Path, const SweepReport &D,
                         std::string *Err) {
  return json::writeFile(Path, toJson(D), Err);
}

bool wcs::readSweepFile(const std::string &Path, SweepReport &Out,
                        std::string *Err) {
  Value V;
  if (!json::readFile(Path, V, Err))
    return false;
  std::string ParseErr;
  if (!fromJson(V, Out, &ParseErr)) {
    if (Err)
      *Err = Path + ": " + ParseErr;
    return false;
  }
  return true;
}
