//===- tests/sweep_request_test.cpp - SweepRequest API tests --------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// The one-request-type API behind every sweep: JSON round-trips of both
// program variants, validation rejections, the per-run-knob exclusion
// (threads, stream cap, pass-flavor threshold and the warping search
// bounds must not change a request's identity, and the members older
// documents carry for them are ignored), the grid-exclusion
// property of sweepPointKey (overlapping grids share point keys), and
// the CLI-equivalence contract -- running a request through
// runSweepRequest yields the same counters as the underlying runSweep.
//
//===----------------------------------------------------------------------===//

#include "wcs/driver/SweepRequest.h"

#include <gtest/gtest.h>

using namespace wcs;

namespace {

// A two-statement stencil that touches enough distinct blocks to make
// counters non-trivial at the tiny grid sizes below.
const char *TestSource = R"(
  int A[512]; int B[512];
  for (int i = 1; i < 511; i++)
    B[i] = A[i-1] + A[i+1];
)";

SweepRequest sourceRequest() {
  SweepRequest R;
  R.Source = TestSource;
  R.SourceName = "stencil.wcs";
  R.L1.SizesBytes = {1024, 2048};
  R.L1.Assocs = {2, 4};
  R.L1.Policies = {PolicyKind::Lru, PolicyKind::Fifo};
  return R;
}

SweepRequest kernelRequest() {
  SweepRequest R;
  R.Kernel = "gemm";
  R.Size = ProblemSize::Mini;
  R.L1.SizesBytes = {4096, 8192};
  R.HasL2 = true;
  R.L2.SizesBytes = {32768};
  R.L2.Assocs = {8};
  R.Inclusion = InclusionPolicy::Inclusive;
  R.Options.Backend = SimBackend::Concrete;
  return R;
}

std::string dump(const SweepRequest &R) { return toJson(R).dump(false); }

TEST(SweepRequest, KernelVariantRoundTrips) {
  SweepRequest R = kernelRequest();
  SweepRequest Back;
  std::string Err;
  ASSERT_TRUE(fromJson(toJson(R), Back, &Err)) << Err;
  EXPECT_EQ(Back.Kernel, "gemm");
  EXPECT_EQ(Back.Size, ProblemSize::Mini);
  EXPECT_TRUE(Back.HasL2);
  EXPECT_EQ(Back.Inclusion, InclusionPolicy::Inclusive);
  EXPECT_EQ(Back.L1, R.L1); // SweepLevelGrid operator==.
  EXPECT_EQ(Back.L2, R.L2);
  EXPECT_EQ(Back.Options.Backend, SimBackend::Concrete);
  // Serialization is a fixed point: re-dumping the parsed request
  // reproduces the document byte for byte.
  EXPECT_EQ(dump(Back), dump(R));
}

TEST(SweepRequest, SourceVariantRoundTrips) {
  SweepRequest R = sourceRequest();
  R.Params = {{"N", 100}, {"M", 7}};
  SweepRequest Back;
  std::string Err;
  ASSERT_TRUE(fromJson(toJson(R), Back, &Err)) << Err;
  EXPECT_TRUE(Back.Kernel.empty());
  EXPECT_EQ(Back.Source, R.Source);
  EXPECT_EQ(Back.SourceName, "stencil.wcs");
  EXPECT_EQ(Back.Params, R.Params);
  EXPECT_EQ(dump(Back), dump(R));
}

TEST(SweepRequest, ParamOrderDoesNotChangeIdentity) {
  // std::map canonicalizes; a request is the same request no matter the
  // order its parameters were specified in.
  SweepRequest A = sourceRequest();
  A.Params["N"] = 100;
  A.Params["M"] = 7;
  SweepRequest B = sourceRequest();
  B.Params["M"] = 7;
  B.Params["N"] = 100;
  EXPECT_EQ(dump(A), dump(B));
  EXPECT_EQ(requestHash(A), requestHash(B));
}

TEST(SweepRequest, PerRunKnobsAreNotRequestIdentity) {
  SweepRequest A = sourceRequest();
  SweepRequest B = sourceRequest();
  B.Options.Threads = 16;
  B.Options.MaxFilteredRecords = 1;
  B.Options.WarpSweepMinAccesses = UINT64_MAX;
  B.Options.Sim.BatchConcrete = false;
  B.Options.Sim.Warp.Enable = false;
  B.Options.Sim.Warp.SnapshotRingSize = 0;
  B.Options.Sim.Warp.MaxDelta = 8;
  // Same document, same hash: where a request runs, how wide, and how
  // hard the engine searches must never change what it means (or its
  // store keys).
  EXPECT_EQ(dump(A), dump(B));
  EXPECT_EQ(requestHash(A), requestHash(B));

  HierarchyConfig H = HierarchyConfig::singleLevel(
      CacheConfig{1024, 2, 64, PolicyKind::Lru, WriteAllocate::Yes});
  EXPECT_EQ(sweepPointKey(A, H), sweepPointKey(B, H));

  // The document's options hold exactly what changes a counter.
  json::Value Doc = toJson(B);
  const json::Value *Opts = Doc.find("options");
  ASSERT_NE(Opts, nullptr);
  EXPECT_EQ(Opts->dump(false),
            R"({"sim":{"include_scalars":false},"backend":"warping"})");
}

// Documents written before the engine-tuning members left the request
// carry 17 option leaves. They still parse -- to the same identity as
// the trimmed document, whatever the old members hold -- and the parsed
// request runs at the per-run defaults. These are kernelRequest()'s
// options with every old member at a hostile value.
const char *LegacyOptions = R"({
  "sim": {"include_scalars": false,
          "warp": {"enable": false, "max_probe_iters": 4294967295,
                   "snapshot_ring_size": 0, "max_snapshots_per_bucket": 0,
                   "min_snapshot_spacing": -1,
                   "max_delta_for_coupled_domains": -1,
                   "eager_snapshot_trip_limit": -1, "max_delta": 0,
                   "disable_after_failed_activations": 0,
                   "min_probes_for_learning": 0,
                   "enable_profit_guard": false,
                   "profit_guard_activations": 0}},
  "backend": "concrete", "max_filtered_records": 0, "warp_sweep": false,
  "warp_sweep_min_accesses": 0
})";

TEST(SweepRequest, LegacyTuningMembersAreIgnored) {
  SweepRequest R = kernelRequest();
  json::Value Opts;
  std::string Err;
  ASSERT_TRUE(json::parse(LegacyOptions, Opts, &Err)) << Err;
  json::Value Doc = toJson(R);
  Doc.set("options", std::move(Opts));

  SweepRequest Back;
  ASSERT_TRUE(fromJson(Doc, Back, &Err)) << Err;
  EXPECT_EQ(dump(Back), dump(R));
  EXPECT_EQ(requestHash(Back), requestHash(R));
  HierarchyConfig H = HierarchyConfig::twoLevel(
      CacheConfig{4096, 8, 64, PolicyKind::Plru, WriteAllocate::Yes},
      CacheConfig{32768, 8, 64, PolicyKind::Plru, WriteAllocate::Yes},
      InclusionPolicy::Inclusive);
  EXPECT_EQ(sweepPointKey(Back, H), sweepPointKey(R, H));

  const SweepOptions Defaults;
  EXPECT_EQ(Back.Options.MaxFilteredRecords, Defaults.MaxFilteredRecords);
  EXPECT_EQ(Back.Options.WarpSweepMinAccesses, Defaults.WarpSweepMinAccesses);
  EXPECT_TRUE(Back.Options.Sim.Warp.Enable);
  EXPECT_EQ(Back.Options.Sim.Warp.SnapshotRingSize,
            Defaults.Sim.Warp.SnapshotRingSize);
  EXPECT_EQ(Back.Options.Sim.Warp.MaxProbeIters,
            Defaults.Sim.Warp.MaxProbeIters);
}

TEST(SweepRequest, PointKeysIgnoreTheGridButNotTheProgram) {
  // Two overlapping grids: the shared hierarchy config must produce the
  // SAME key (that is what lets a store serve one grid from another),
  // while a different program or different options must not.
  SweepRequest Narrow = sourceRequest();
  Narrow.L1.SizesBytes = {1024};
  SweepRequest Wide = sourceRequest();
  Wide.L1.SizesBytes = {1024, 2048, 4096};
  EXPECT_NE(requestHash(Narrow), requestHash(Wide)); // Distinct requests...

  HierarchyConfig Shared = HierarchyConfig::singleLevel(
      CacheConfig{1024, 2, 64, PolicyKind::Lru, WriteAllocate::Yes});
  EXPECT_EQ(sweepPointKey(Narrow, Shared),
            sweepPointKey(Wide, Shared)); // ...sharing stored points.

  SweepRequest OtherProgram = kernelRequest();
  EXPECT_NE(sweepPointKey(Narrow, Shared),
            sweepPointKey(OtherProgram, Shared));
  SweepRequest OtherOptions = sourceRequest();
  OtherOptions.L1.SizesBytes = {1024};
  OtherOptions.Options.Backend = SimBackend::Concrete;
  EXPECT_NE(sweepPointKey(Narrow, Shared),
            sweepPointKey(OtherOptions, Shared));
}

TEST(SweepRequest, ValidationRejections) {
  std::string Err;
  SweepRequest NoProgram;
  NoProgram.L1.SizesBytes = {1024};
  EXPECT_FALSE(validateSweepRequest(NoProgram, &Err));
  EXPECT_NE(Err.find("names no program"), std::string::npos);

  SweepRequest Both = sourceRequest();
  Both.Kernel = "gemm";
  EXPECT_FALSE(validateSweepRequest(Both, &Err));
  EXPECT_NE(Err.find("both"), std::string::npos);

  SweepRequest EmptyGrid;
  EmptyGrid.Kernel = "gemm";
  EXPECT_FALSE(validateSweepRequest(EmptyGrid, &Err));
  EXPECT_NE(Err.find("empty L1 grid"), std::string::npos);

  SweepRequest InclusionNoL2 = sourceRequest();
  InclusionNoL2.Inclusion = InclusionPolicy::Inclusive;
  EXPECT_FALSE(validateSweepRequest(InclusionNoL2, &Err));
  EXPECT_NE(Err.find("requires an L2"), std::string::npos);

  // fromJson runs the same validation: a structurally well-formed
  // document that names no valid sweep is rejected, not half-accepted.
  json::Value Doc = toJson(sourceRequest());
  json::Value Grid = *Doc.find("grid");
  json::Value BadL1 = *Grid.find("l1");
  BadL1.set("sizes_bytes", json::Value::array());
  Grid.set("l1", std::move(BadL1));
  Doc.set("grid", std::move(Grid));
  SweepRequest Out;
  EXPECT_FALSE(fromJson(Doc, Out, &Err));
  EXPECT_NE(Err.find("no capacity"), std::string::npos);
}

// The grid cap counts points from the list lengths, before expanding
// anything: exactly MaxSweepPoints passes, one more is refused, and a
// product past 2^64 saturates instead of wrapping to something small.
TEST(SweepRequest, GridPointCapIsCheckedBeforeExpansion) {
  std::string Err;
  SweepRequest Req = sourceRequest();
  Req.L1.SizesBytes.assign(MaxSweepPoints, 4096);
  Req.L1.Assocs = {4};
  Req.L1.Policies = {PolicyKind::Lru};
  EXPECT_TRUE(validateSweepRequest(Req, &Err)) << Err;
  Req.L1.SizesBytes.push_back(4096);
  EXPECT_FALSE(validateSweepRequest(Req, &Err));
  EXPECT_NE(Err.find("grid expands to 65537 points, over the cap of 65536 "
                     "points per request"),
            std::string::npos)
      << Err;

  // 2048^6 = 2^66 points: the wrapped product would be 0.
  SweepRequest Overflow = sourceRequest();
  Overflow.HasL2 = true;
  for (SweepLevelGrid *G : {&Overflow.L1, &Overflow.L2}) {
    G->SizesBytes.assign(2048, 4096);
    G->Assocs.assign(2048, 4);
    G->Policies.assign(2048, PolicyKind::Lru);
  }
  EXPECT_FALSE(validateSweepRequest(Overflow, &Err));
  EXPECT_NE(Err.find("at least 18446744073709551615 points"),
            std::string::npos)
      << Err;
  // fromJson refuses the same document, so a daemon never expands it.
  SweepRequest Out;
  EXPECT_FALSE(fromJson(toJson(Overflow), Out, &Err));
  EXPECT_NE(Err.find("over the cap"), std::string::npos) << Err;
}

TEST(SweepRequest, PrepareReportsProgramAndGridErrors) {
  std::string Err;
  PreparedSweep Prep;
  SweepRequest Unknown;
  Unknown.Kernel = "not-a-kernel";
  Unknown.L1.SizesBytes = {4096};
  EXPECT_FALSE(prepareSweep(Unknown, Prep, &Err));
  EXPECT_NE(Err.find("not-a-kernel"), std::string::npos);

  SweepRequest BadSource = sourceRequest();
  BadSource.Source = "for (;;) nonsense";
  EXPECT_FALSE(prepareSweep(BadSource, Prep, &Err));
  EXPECT_NE(Err.find("stencil.wcs"), std::string::npos); // Named source.

  SweepRequest BadGrid = sourceRequest();
  BadGrid.L1.Assocs = {3};
  BadGrid.L1.Policies = {PolicyKind::Plru}; // PLRU needs a power of two.
  EXPECT_FALSE(prepareSweep(BadGrid, Prep, &Err));
  EXPECT_FALSE(Err.empty());
}

TEST(SweepRequest, PrepareExpandsTheGridInInputOrder) {
  SweepRequest R = sourceRequest();
  PreparedSweep Prep;
  std::string Err;
  ASSERT_TRUE(prepareSweep(R, Prep, &Err)) << Err;
  // 2 sizes x 2 assocs x 2 policies.
  ASSERT_EQ(Prep.Configs.size(), 8u);
  EXPECT_EQ(Prep.Configs.front().Levels[0].SizeBytes, 1024u);
  EXPECT_EQ(Prep.Configs.back().Levels[0].SizeBytes, 2048u);
  EXPECT_EQ(Prep.Program.accesses().size(), 3u);
}

TEST(SweepRequest, RunMatchesDirectRunSweep) {
  // The CLI-equivalence contract: executing through the request API is
  // the same sweep as preparing by hand and calling runSweep -- same
  // partition, same counters, point for point.
  SweepRequest R = sourceRequest();
  PreparedSweep Prep;
  SweepReport ViaRequest;
  std::string Err;
  ASSERT_TRUE(runSweepRequest(R, /*Threads=*/2, Prep, ViaRequest, &Err))
      << Err;

  SweepOptions Direct = R.Options;
  Direct.Threads = 2;
  SweepReport Reference = runSweep(Prep.Program, Prep.Configs, Direct);

  ASSERT_EQ(ViaRequest.Points.size(), Reference.Points.size());
  for (size_t I = 0; I < Reference.Points.size(); ++I) {
    SweepPoint A = ViaRequest.Points[I], B = Reference.Points[I];
    ASSERT_TRUE(A.Ok) << A.Error;
    A.Stats.Seconds = B.Stats.Seconds = 0.0; // Timing is measurement.
    EXPECT_EQ(toJson(A).dump(false), toJson(B).dump(false)) << "point " << I;
  }
}

TEST(SweepRequest, FileRoundTrip) {
  std::string Path = ::testing::TempDir() + "wcs-request-roundtrip.json";
  SweepRequest R = kernelRequest();
  std::string Err;
  ASSERT_TRUE(writeRequestFile(Path, R, &Err)) << Err;
  SweepRequest Back;
  ASSERT_TRUE(readRequestFile(Path, Back, &Err)) << Err;
  EXPECT_EQ(dump(Back), dump(R));
  EXPECT_EQ(requestHash(Back), requestHash(R));
  std::remove(Path.c_str());

  // Unreadable path: diagnostic names the file.
  EXPECT_FALSE(readRequestFile("/nonexistent/req.json", Back, &Err));
  EXPECT_FALSE(Err.empty());
}

TEST(SweepRequest, DeadlineRidesTheDocumentButNotThePointKeys) {
  // deadline_seconds joined wcs-request v1 late: absent = 0 (no
  // deadline), written only when set, so every pre-deadline document
  // and its hash are unchanged.
  SweepRequest Plain = sourceRequest();
  EXPECT_EQ(toJson(Plain).find("deadline_seconds"), nullptr);
  SweepRequest Back;
  std::string Err;
  ASSERT_TRUE(fromJson(toJson(Plain), Back, &Err)) << Err;
  EXPECT_EQ(Back.DeadlineSeconds, 0.0);

  SweepRequest Dated = sourceRequest();
  Dated.DeadlineSeconds = 2.5;
  ASSERT_TRUE(fromJson(toJson(Dated), Back, &Err)) << Err;
  EXPECT_EQ(Back.DeadlineSeconds, 2.5);
  EXPECT_EQ(dump(Back), dump(Dated));

  // The deadline is part of the request's identity (two submissions
  // with different deadlines are different requests)...
  EXPECT_NE(requestHash(Plain), requestHash(Dated));
  // ...but NOT of its points' identity: how long a client will wait
  // must never change what a point means, or every store entry and
  // cross-request dedup would fracture by deadline.
  HierarchyConfig H = HierarchyConfig::singleLevel(
      CacheConfig{1024, 2, 64, PolicyKind::Lru, WriteAllocate::Yes});
  EXPECT_EQ(sweepPointKey(Plain, H), sweepPointKey(Dated, H));

  // A negative deadline is malformed, not "no deadline".
  json::Value Doc = toJson(Dated);
  Doc.set("deadline_seconds", -1.0);
  EXPECT_FALSE(fromJson(Doc, Back, &Err));
  EXPECT_NE(Err.find("non-negative"), std::string::npos) << Err;
}

TEST(SweepResponse, RetryAfterRidesOverloadedResponses) {
  SweepResponse Shed;
  Shed.Ok = false;
  Shed.Error = "overloaded";
  Shed.RequestHash = "00000000deadbeef";
  Shed.RetryAfterSeconds = 0.75;
  SweepResponse Back;
  std::string Err;
  ASSERT_TRUE(fromJson(toJson(Shed), Back, &Err)) << Err;
  EXPECT_EQ(Back.RetryAfterSeconds, 0.75);
  EXPECT_EQ(toJson(Back).dump(false), toJson(Shed).dump(false));

  // Absent (every non-shed response, and every pre-shedding daemon's
  // output) reads back as 0: no hint.
  SweepResponse Plain;
  Plain.Ok = false;
  Plain.Error = "nope";
  Plain.RequestHash = "00000000deadbeef";
  EXPECT_EQ(toJson(Plain).find("retry_after_seconds"), nullptr);
  ASSERT_TRUE(fromJson(toJson(Plain), Back, &Err)) << Err;
  EXPECT_EQ(Back.RetryAfterSeconds, 0.0);
}

TEST(SweepResponse, RoundTripsBothOutcomes) {
  SweepResponse Ok;
  Ok.Ok = true;
  Ok.RequestHash = "00000000deadbeef";
  Ok.StoreHits = 3;
  Ok.StoreMisses = 5;
  Ok.StoreEntries = 8;
  Ok.Sweep.Tool = "wcs-serve";
  Ok.Sweep.Program = "gemm";
  std::string Err;
  SweepResponse Back;
  ASSERT_TRUE(fromJson(toJson(Ok), Back, &Err)) << Err;
  EXPECT_TRUE(Back.Ok);
  EXPECT_EQ(Back.StoreHits, 3u);
  EXPECT_EQ(Back.Sweep.Program, "gemm");
  EXPECT_EQ(toJson(Back).dump(false), toJson(Ok).dump(false));

  SweepResponse Fail;
  Fail.Ok = false;
  Fail.Error = "request has an empty L1 grid";
  Fail.RequestHash = "00000000deadbeef";
  ASSERT_TRUE(fromJson(toJson(Fail), Back, &Err)) << Err;
  EXPECT_FALSE(Back.Ok);
  EXPECT_EQ(Back.Error, Fail.Error);
  // An error response carries no sweep payload at all.
  EXPECT_EQ(toJson(Fail).find("sweep"), nullptr);
}

} // namespace
