//===- tests/results_test.cpp - Results serialization round-trips ---------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
// serialize -> parse -> compare coverage for the wcs-results pipeline:
// SimStats, cache configurations, batch results and whole results
// documents (including one produced by a real BatchRunner run), plus
// schema-version rejection and tag escaping.
//
//===----------------------------------------------------------------------===//

#include "wcs/driver/Results.h"
#include "wcs/polybench/Polybench.h"

#include "gtest/gtest.h"

using namespace wcs;
using json::Value;

namespace {

/// Dump + reparse, asserting both directions succeed.
template <typename T> T reserialized(const T &In) {
  std::string Text = toJson(In).dump();
  Value V;
  std::string Err;
  EXPECT_TRUE(json::parse(Text, V, &Err)) << Err;
  T Out;
  EXPECT_TRUE(fromJson(V, Out, &Err)) << Err << "\n" << Text;
  return Out;
}

void expectStatsEq(const SimStats &A, const SimStats &B) {
  ASSERT_EQ(A.NumLevels, B.NumLevels);
  for (unsigned L = 0; L < A.NumLevels; ++L) {
    EXPECT_EQ(A.Level[L].Accesses, B.Level[L].Accesses);
    EXPECT_EQ(A.Level[L].Misses, B.Level[L].Misses);
  }
  EXPECT_EQ(A.SimulatedAccesses, B.SimulatedAccesses);
  EXPECT_EQ(A.WarpedAccesses, B.WarpedAccesses);
  EXPECT_EQ(A.Warps, B.Warps);
  EXPECT_EQ(A.FailedWarpChecks, B.FailedWarpChecks);
  EXPECT_EQ(A.FailedBy.Shift, B.FailedBy.Shift);
  EXPECT_EQ(A.FailedBy.State, B.FailedBy.State);
  EXPECT_EQ(A.FailedBy.Room, B.FailedBy.Room);
  EXPECT_EQ(A.FailedBy.Unknown, B.FailedBy.Unknown);
  EXPECT_EQ(A.FailedBy.Agree, B.FailedBy.Agree);
  EXPECT_DOUBLE_EQ(A.Seconds, B.Seconds);
}

void expectCacheEq(const CacheConfig &A, const CacheConfig &B) {
  EXPECT_EQ(A.SizeBytes, B.SizeBytes);
  EXPECT_EQ(A.Assoc, B.Assoc);
  EXPECT_EQ(A.BlockBytes, B.BlockBytes);
  EXPECT_EQ(A.Policy, B.Policy);
  EXPECT_EQ(A.WriteAlloc, B.WriteAlloc);
}

SimStats sampleStats() {
  SimStats S;
  S.NumLevels = 2;
  S.Level[0] = {123456789012345ull, 987654321ull};
  S.Level[1] = {987654321ull, 13ull};
  S.SimulatedAccesses = 1111;
  S.WarpedAccesses = 123456789012345ull - 1111;
  S.Warps = 77;
  S.FailedWarpChecks = 3;
  S.FailedBy.Shift = 1;
  S.FailedBy.Room = 2;
  S.Seconds = 0.0625; // Binary-exact, so EXPECT_DOUBLE_EQ is meaningful.
  return S;
}

TEST(ResultsJson, SimStatsRoundTrip) {
  SimStats S = sampleStats();
  expectStatsEq(reserialized(S), S);

  SimStats OneLevel;
  OneLevel.NumLevels = 1;
  OneLevel.Level[0] = {42, 7};
  OneLevel.Seconds = 1.5;
  expectStatsEq(reserialized(OneLevel), OneLevel);
}

/// Failed checks by reason are written with the counters but optional on
/// read: documents from before they existed read with every reason 0,
/// and a present but malformed member is refused.
TEST(ResultsJson, FailureReasonsAreOptionalOnRead) {
  ASSERT_NE(toJson(sampleStats()).find("failed_check_reasons"), nullptr);
  const std::string Old =
      "{\"levels\":[{\"accesses\":10,\"misses\":2}],"
      "\"simulated_accesses\":10,\"warped_accesses\":0,\"warps\":0,"
      "\"failed_warp_checks\":3,\"seconds\":0.5";
  Value V;
  std::string Err;
  SimStats Out;
  ASSERT_TRUE(json::parse(Old + "}", V, &Err)) << Err;
  ASSERT_TRUE(fromJson(V, Out, &Err)) << Err;
  EXPECT_EQ(Out.FailedWarpChecks, 3u);
  EXPECT_EQ(Out.FailedBy.total(), 0u);

  ASSERT_TRUE(json::parse(Old + ",\"failed_check_reasons\":{\"shift\":-1,"
                                "\"state\":0,\"room\":0,\"unknown\":0,"
                                "\"agree\":0}}",
                          V, &Err))
      << Err;
  EXPECT_FALSE(fromJson(V, Out, &Err));
}

TEST(ResultsJson, SimStatsAboveInt64RoundTripExactly) {
  // Run skipping and warping reach counts in [2^63, 2^64) in
  // milliseconds; they are written as exact integers, never as doubles.
  SimStats S;
  S.NumLevels = 1;
  S.Level[0] = {13835058055282163712ull, 1};          // 3 * 2^62
  S.SimulatedAccesses = 18446744073709551615ull;      // 2^64 - 1
  S.WarpedAccesses = uint64_t(INT64_MAX) + 1;         // 2^63
  S.Seconds = 0.25;
  std::string Text = toJson(S).dump();
  EXPECT_NE(Text.find("13835058055282163712"), std::string::npos) << Text;
  EXPECT_EQ(Text.find("e+19"), std::string::npos) << Text;
  expectStatsEq(reserialized(S), S);
}

TEST(ResultsJson, SimStatsRejectsMalformed) {
  SimStats Out;
  std::string Err;
  Value V;
  ASSERT_TRUE(json::parse("{\"levels\":[]}", V, &Err));
  EXPECT_FALSE(fromJson(V, Out, &Err)); // Zero levels.
  ASSERT_TRUE(json::parse("{\"levels\":[{\"accesses\":1}]}", V, &Err));
  EXPECT_FALSE(fromJson(V, Out, &Err)); // Missing misses member.
  EXPECT_NE(Err.find("misses"), std::string::npos);
  ASSERT_TRUE(json::parse("[]", V, &Err));
  EXPECT_FALSE(fromJson(V, Out, &Err)); // Not an object at all.
}

TEST(ResultsJson, CountersMustBeExactIntegers) {
  // Counters are written as exact integers; a negative, fractional or
  // astronomically large (double-kind) value is a malformed file and
  // must fail loudly, not truncate or wrap into a plausible counter.
  SimStats Out;
  std::string Err;
  Value V;
  const char *Base = "{\"levels\":[{\"accesses\":%s,\"misses\":0}],"
                     "\"simulated_accesses\":0,\"warped_accesses\":0,"
                     "\"warps\":0,\"failed_warp_checks\":0,\"seconds\":0}";
  for (const char *BadCount : {"-1", "1.5", "1e300"}) {
    char Text[256];
    std::snprintf(Text, sizeof(Text), Base, BadCount);
    ASSERT_TRUE(json::parse(Text, V, &Err)) << Err;
    EXPECT_FALSE(fromJson(V, Out, &Err)) << BadCount;
    EXPECT_NE(Err.find("accesses"), std::string::npos);
  }
  char Good[256];
  std::snprintf(Good, sizeof(Good), Base, "7");
  ASSERT_TRUE(json::parse(Good, V, &Err));
  EXPECT_TRUE(fromJson(V, Out, &Err)) << Err;
  EXPECT_EQ(Out.Level[0].Accesses, 7u);
}

TEST(ResultsJson, CacheConfigRoundTrip) {
  for (PolicyKind P : {PolicyKind::Lru, PolicyKind::Fifo, PolicyKind::Plru,
                       PolicyKind::QuadAgeLru})
    for (WriteAllocate W : {WriteAllocate::Yes, WriteAllocate::No}) {
      CacheConfig C{3 * 1024 * 1024, 12, 128, P, W};
      expectCacheEq(reserialized(C), C);
    }
}

TEST(ResultsJson, HierarchyConfigRoundTrip) {
  for (InclusionPolicy Inc :
       {InclusionPolicy::NonInclusiveNonExclusive, InclusionPolicy::Inclusive,
        InclusionPolicy::Exclusive}) {
    HierarchyConfig H = HierarchyConfig::twoLevel(
        CacheConfig::testSystemL1(), CacheConfig::testSystemL2(), Inc);
    HierarchyConfig Out = reserialized(H);
    ASSERT_EQ(Out.numLevels(), 2u);
    expectCacheEq(Out.Levels[0], H.Levels[0]);
    expectCacheEq(Out.Levels[1], H.Levels[1]);
    EXPECT_EQ(Out.Inclusion, H.Inclusion);
  }
  HierarchyConfig L1 = HierarchyConfig::singleLevel(CacheConfig::scaledL1());
  EXPECT_EQ(reserialized(L1).numLevels(), 1u);
}

TEST(ResultsJson, HierarchyRejectsUnknownPolicyNames) {
  HierarchyConfig Out;
  std::string Err;
  Value V = toJson(HierarchyConfig::singleLevel(CacheConfig::scaledL1()));
  Value Bad = V;
  ASSERT_TRUE(json::parse(
      V.dump(false), Bad, &Err)); // Copy through text, then corrupt.
  // (Mutating a nested member needs re-set on the copy's levels array.)
  Value Level0 = Bad["levels"].at(0);
  Level0.set("policy", "mru");
  Value Levels = Value::array();
  Levels.push(std::move(Level0));
  Bad.set("levels", std::move(Levels));
  EXPECT_FALSE(fromJson(Bad, Out, &Err));
  EXPECT_NE(Err.find("mru"), std::string::npos);

  Bad.set("inclusion", "sideways");
  Value Good = toJson(CacheConfig::scaledL1());
  Levels = Value::array();
  Levels.push(std::move(Good));
  Bad.set("levels", std::move(Levels));
  EXPECT_FALSE(fromJson(Bad, Out, &Err));
  EXPECT_NE(Err.find("sideways"), std::string::npos);
}

// SimOptions serializes as {include_scalars}: the warping search
// bounds only change how a point is computed. Entries written while
// they were serialized (bench/baseline.json among them) carry a "warp"
// object; it is read past, never into the options, and the entry
// re-serializes without it.
TEST(ResultsJson, EntryWithTheOldWarpObjectParses) {
  SimOptions O;
  O.IncludeScalars = true;
  O.Warp.SnapshotRingSize = 3; // Not serialized.
  EXPECT_EQ(toJson(O).dump(false), R"({"include_scalars":true})");

  ResultEntry E;
  E.Tag = "ablation/adi/max-delta=8/warping";
  E.Cache = HierarchyConfig::singleLevel(CacheConfig::scaledL1());
  E.Options.IncludeScalars = true;
  E.Ok = true;
  E.Stats = sampleStats();
  Value V = toJson(E);
  Value Options = *V.find("options");
  Value Warp = Value::object();
  Warp.set("enable", false);
  Warp.set("max_probe_iters", 4294967295u);
  Warp.set("snapshot_ring_size", 0u);
  Warp.set("max_delta", 8);
  Warp.set("enable_profit_guard", false);
  Options.set("warp", std::move(Warp));
  V.set("options", std::move(Options));

  ResultEntry Out;
  std::string Err;
  ASSERT_TRUE(fromJson(V, Out, &Err)) << Err;
  EXPECT_EQ(Out.Tag, E.Tag);
  EXPECT_TRUE(Out.Options.IncludeScalars);
  const WarpConfig Defaults;
  EXPECT_TRUE(Out.Options.Warp.Enable);
  EXPECT_EQ(Out.Options.Warp.SnapshotRingSize, Defaults.SnapshotRingSize);
  EXPECT_EQ(Out.Options.Warp.MaxProbeIters, Defaults.MaxProbeIters);
  EXPECT_EQ(Out.Options.Warp.MaxDelta, Defaults.MaxDelta);
  expectStatsEq(Out.Stats, E.Stats);
  EXPECT_EQ(toJson(Out).dump(), toJson(E).dump());
}

TEST(ResultsJson, BatchResultRoundTrip) {
  BatchResult R;
  R.JobIndex = 17;
  R.Tag = "gemm/\"quoted\"/new\nline\ttab\\slash";
  R.Ok = false;
  R.Error = "invalid config: \"bad\"";
  R.Stats = sampleStats();
  BatchResult Out = reserialized(R);
  EXPECT_EQ(Out.JobIndex, R.JobIndex);
  EXPECT_EQ(Out.Tag, R.Tag); // Escaping survives the round trip.
  EXPECT_EQ(Out.Ok, R.Ok);
  EXPECT_EQ(Out.Error, R.Error);
  expectStatsEq(Out.Stats, R.Stats);
}

TEST(ResultsJson, EntrySamplesRoundTripAndStayOptional) {
  ResultEntry E;
  E.Tag = "bench/gemm";
  E.Cache = HierarchyConfig::singleLevel(CacheConfig::scaledL1());
  E.Ok = true;
  E.Stats.NumLevels = 1;
  E.Stats.Seconds = 0.2;
  E.Samples = {0.25, 0.2, 0.15};
  ResultEntry Out = reserialized(E);
  ASSERT_EQ(Out.Samples.size(), 3u);
  EXPECT_DOUBLE_EQ(Out.Samples[0], 0.25);
  EXPECT_DOUBLE_EQ(Out.Samples[1], 0.2);
  EXPECT_DOUBLE_EQ(Out.Samples[2], 0.15);

  // Single-sample producers leave Samples empty and the key is omitted
  // entirely, so single-rep output is byte-identical to pre-reps files.
  E.Samples.clear();
  Value Single = toJson(E);
  EXPECT_EQ(Single.find("samples"), nullptr);

  // A baseline written before the key existed still parses (and a stale
  // Samples vector in Out must not leak through the parse).
  std::string Err;
  ResultEntry Legacy = Out;
  ASSERT_TRUE(fromJson(Single, Legacy, &Err)) << Err;
  EXPECT_TRUE(Legacy.Samples.empty());

  // Malformed samples fail loudly rather than gating on garbage.
  Value Bad = Single;
  Bad.set("samples", "not-an-array");
  EXPECT_FALSE(fromJson(Bad, Legacy, &Err));
  EXPECT_NE(Err.find("samples"), std::string::npos);

  Value BadElem = Single;
  Value Arr = Value::array();
  Arr.push(Value(1.0));
  Arr.push(Value("fast"));
  BadElem.set("samples", std::move(Arr));
  EXPECT_FALSE(fromJson(BadElem, Legacy, &Err));
  EXPECT_NE(Err.find("samples"), std::string::npos);
}

TEST(ResultsJson, DocFromRealBatchRoundTrip) {
  // Run a real two-job batch (warping + concrete on a mini kernel) and
  // push the whole report through the file format.
  std::string BuildErr;
  ScopProgram P = buildKernel("gemm", ProblemSize::Mini, &BuildErr);
  ASSERT_TRUE(BuildErr.empty()) << BuildErr;

  std::vector<BatchJob> Jobs;
  BatchJob J;
  J.Program = &P;
  J.Cache = HierarchyConfig::twoLevel(CacheConfig::scaledL1(),
                                      CacheConfig::scaledL2());
  J.Options.IncludeScalars = true; // Must survive into the file.
  J.Backend = SimBackend::Concrete;
  J.Tag = "gemm/concrete";
  Jobs.push_back(J);
  J.Backend = SimBackend::Warping;
  J.Tag = "gemm/warping";
  Jobs.push_back(J);

  BatchReport Rep = BatchRunner(1).run(Jobs);
  ASSERT_TRUE(Rep.allOk());

  ResultsDoc Doc;
  Doc.Tool = "results_test";
  Doc.SizeName = "MINI";
  Doc.Threads = Rep.Threads;
  Doc.Entries = makeResultEntries(Jobs, Rep);
  ASSERT_EQ(Doc.Entries.size(), 2u);
  EXPECT_EQ(Doc.Entries[1].Backend, SimBackend::Warping);

  std::string Path = ::testing::TempDir() + "/wcs_results_test.json";
  std::string Err;
  ASSERT_TRUE(writeResultsFile(Path, Doc, &Err)) << Err;
  ResultsDoc Back;
  ASSERT_TRUE(readResultsFile(Path, Back, &Err)) << Err;

  EXPECT_EQ(Back.Tool, Doc.Tool);
  EXPECT_EQ(Back.SizeName, Doc.SizeName);
  EXPECT_EQ(Back.Threads, Doc.Threads);
  ASSERT_EQ(Back.Entries.size(), Doc.Entries.size());
  for (size_t N = 0; N < Doc.Entries.size(); ++N) {
    EXPECT_EQ(Back.Entries[N].Tag, Doc.Entries[N].Tag);
    EXPECT_EQ(Back.Entries[N].Backend, Doc.Entries[N].Backend);
    EXPECT_EQ(Back.Entries[N].Ok, Doc.Entries[N].Ok);
    EXPECT_TRUE(Back.Entries[N].Options.IncludeScalars);
    expectStatsEq(Back.Entries[N].Stats, Doc.Entries[N].Stats);
    ASSERT_EQ(Back.Entries[N].Cache.numLevels(),
              Doc.Entries[N].Cache.numLevels());
    for (unsigned L = 0; L < Doc.Entries[N].Cache.numLevels(); ++L)
      expectCacheEq(Back.Entries[N].Cache.Levels[L],
                    Doc.Entries[N].Cache.Levels[L]);
  }
  const ResultEntry *Warp = Back.find("gemm/warping");
  ASSERT_NE(Warp, nullptr);
  EXPECT_EQ(Warp->Stats.totalAccesses(),
            Back.find("gemm/concrete")->Stats.totalAccesses());
  EXPECT_EQ(Back.find("gemm/nope"), nullptr);

  // Serialization is deterministic: the same document always dumps to
  // byte-identical text.
  EXPECT_EQ(toJson(Doc).dump(), toJson(Doc).dump());
}

TEST(ResultsJson, SchemaRejection) {
  ResultsDoc Doc;
  Doc.Tool = "t";
  Value Good = toJson(Doc);
  ResultsDoc Out;
  std::string Err;
  ASSERT_TRUE(fromJson(Good, Out, &Err)) << Err;

  Value WrongName = Good;
  WrongName.set("schema", "speedometer");
  EXPECT_FALSE(fromJson(WrongName, Out, &Err));
  EXPECT_NE(Err.find("speedometer"), std::string::npos);

  // A future schema version must be rejected, not half-read.
  Value Future = Good;
  Future.set("schema_version", ResultsSchemaVersion + 1);
  EXPECT_FALSE(fromJson(Future, Out, &Err));
  EXPECT_NE(Err.find("version"), std::string::npos);

  Value NoStamp = Value::object();
  NoStamp.set("entries", Value::array());
  EXPECT_FALSE(fromJson(NoStamp, Out, &Err));
  EXPECT_NE(Err.find("schema"), std::string::npos);
}

TEST(ResultsJson, BadEntryDiagnosticsNameTheEntry) {
  ResultsDoc Doc;
  ResultEntry E;
  E.Tag = "ok-entry";
  E.Cache = HierarchyConfig::singleLevel(CacheConfig::scaledL1());
  E.Stats.NumLevels = 1;
  Doc.Entries.push_back(E);
  Value V = toJson(Doc);

  // Corrupt the (only) entry: drop its stats member.
  Value BadEntry = V["entries"].at(0);
  BadEntry.set("stats", Value::array()); // Wrong kind.
  Value Entries = Value::array();
  Entries.push(std::move(BadEntry));
  V.set("entries", std::move(Entries));

  ResultsDoc Out;
  std::string Err;
  EXPECT_FALSE(fromJson(V, Out, &Err));
  EXPECT_NE(Err.find("entry 0"), std::string::npos);
}

} // namespace
