//===- tests/json_reader_test.cpp - Reader API and schema rejection -------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// Tests for the public JSON reader API (support/JsonReader.h): the
// need/opt member extractors, and -- via needSchema -- the
// wrong-schema / wrong-version rejection contract of every
// schema-versioned document type (wcs-results, wcs-sweep,
// wcs-request, wcs-response, wcs-status, wcs-metrics). Every reader
// must refuse a document of another type and a version it does not
// speak, with a diagnostic naming the problem, before touching any
// payload member.
//
//===----------------------------------------------------------------------===//

#include "wcs/driver/Results.h"
#include "wcs/driver/SweepRequest.h"
#include "wcs/serve/Protocol.h"
#include "wcs/support/JsonReader.h"
#include "wcs/support/Telemetry.h"

#include "gtest/gtest.h"

using namespace wcs;
using namespace wcs::jsonfield;
using json::Value;

namespace {

//===----------------------------------------------------------------------===//
// Member extractors
//===----------------------------------------------------------------------===//

TEST(JsonReader, NeedRejectsMissingAndMistyped) {
  Value V = Value::object();
  V.set("n", 7);
  V.set("s", "text");
  V.set("d", 1.5);
  V.set("b", true);

  uint64_t U;
  std::string S, Err;
  EXPECT_TRUE(needUInt(V, "n", U, &Err));
  EXPECT_EQ(U, 7u);
  EXPECT_FALSE(needUInt(V, "absent", U, &Err));
  EXPECT_NE(Err.find("missing member 'absent'"), std::string::npos);
  EXPECT_FALSE(needUInt(V, "s", U, &Err)); // Mistyped.
  EXPECT_FALSE(needUInt(V, "d", U, &Err)); // Fractional is not a counter.
  EXPECT_FALSE(needString(V, "n", S, &Err));
  EXPECT_FALSE(needUInt(Value("not an object"), "n", U, &Err));
  EXPECT_EQ(Err, "expected an object");
}

TEST(JsonReader, NeedUIntRejectsNegative) {
  Value V = Value::object();
  V.set("n", -1);
  uint64_t U;
  std::string Err;
  EXPECT_FALSE(needUInt(V, "n", U, &Err));
  EXPECT_NE(Err.find("non-negative"), std::string::npos);
  int64_t I;
  EXPECT_TRUE(needInt(V, "n", I, &Err));
  EXPECT_EQ(I, -1);
}

TEST(JsonReader, IntegersAboveInt64AreUIntOnly) {
  Value V = Value::object();
  V.set("n", uint64_t(INT64_MAX) + 1);
  uint64_t U = 0;
  std::string Err;
  EXPECT_TRUE(needUInt(V, "n", U, &Err)) << Err;
  EXPECT_EQ(U, uint64_t(INT64_MAX) + 1);
  int64_t I;
  EXPECT_FALSE(needInt(V, "n", I, &Err));
  EXPECT_NE(Err.find("must be an integer"), std::string::npos);
}

TEST(JsonReader, NeedU32RejectsOverflow) {
  Value V = Value::object();
  V.set("n", int64_t(1) << 33);
  unsigned U;
  std::string Err;
  EXPECT_FALSE(needU32(V, "n", U, &Err));
  EXPECT_NE(Err.find("32 bits"), std::string::npos);
}

TEST(JsonReader, OptLeavesDefaultWhenAbsentButChecksTypeWhenPresent) {
  Value V = Value::object();
  V.set("present", 42);
  V.set("mistyped", "nope");

  uint64_t U = 99;
  std::string Err;
  EXPECT_TRUE(optUInt(V, "absent", U, &Err));
  EXPECT_EQ(U, 99u); // Caller default untouched.
  EXPECT_TRUE(optUInt(V, "present", U, &Err));
  EXPECT_EQ(U, 42u);
  EXPECT_FALSE(optUInt(V, "mistyped", U, &Err)); // Present + wrong kind.

  bool B = true;
  EXPECT_TRUE(optBool(V, "absent", B, &Err));
  EXPECT_TRUE(B);
  double D = 2.5;
  EXPECT_TRUE(optDouble(V, "absent", D, &Err));
  EXPECT_EQ(D, 2.5);
  std::string S = "default";
  EXPECT_TRUE(optString(V, "absent", S, &Err));
  EXPECT_EQ(S, "default");
}

TEST(JsonReader, NeedSchemaDiagnostics) {
  Value V = Value::object();
  V.set("schema", "wcs-other");
  V.set("schema_version", 1);
  std::string Err;
  EXPECT_FALSE(needSchema(V, "wcs-results", 1, &Err));
  EXPECT_EQ(Err, "not a wcs-results file (schema 'wcs-other')");
  V.set("schema", "wcs-results");
  V.set("schema_version", 2);
  EXPECT_FALSE(needSchema(V, "wcs-results", 1, &Err));
  EXPECT_EQ(Err, "unsupported schema version 2 (this reader speaks 1)");
  V.set("schema_version", 1);
  EXPECT_TRUE(needSchema(V, "wcs-results", 1, &Err));
}

//===----------------------------------------------------------------------===//
// The document types: wrong schema / wrong version rejection
//===----------------------------------------------------------------------===//

// One valid instance of each document type, round-tripped through its
// serializer so the rejection tests start from known-good JSON.

Value validResults() {
  ResultsDoc D;
  D.Tool = "test";
  D.SizeName = "mini";
  return toJson(D);
}

Value validSweep() {
  SweepReport D;
  D.Tool = "test";
  D.Program = "gemm";
  return toJson(D);
}

Value validRequest() {
  SweepRequest R;
  R.Kernel = "gemm";
  R.Size = ProblemSize::Mini;
  R.L1.SizesBytes = {4096};
  return toJson(R);
}

Value validResponse() {
  SweepResponse R;
  R.Ok = true;
  R.RequestHash = "0123456789abcdef";
  R.Sweep.Tool = "wcs-serve";
  return toJson(R);
}

Value validStatus() {
  StatusDoc D;
  D.RequestsServed = 4;
  D.PointsComputed = 6;
  D.MaxConnections = 8;
  return toJson(D);
}

Value validMetrics() {
  MetricsDoc D;
  D.Tool = "wcs-serve";
  D.Counters.emplace_back("serve.requests", 4);
  MetricsDoc::Hist H;
  H.Name = "serve.request_seconds";
  H.Bounds = {0.001, 1.0};
  H.Counts = {1, 2, 1};
  H.Count = 4;
  H.Sum = 2.5;
  D.Histograms.push_back(std::move(H));
  D.Spans.push_back({"serve.request", 4, 2.5});
  return toJson(D);
}

template <typename DocT>
void expectRejection(Value Good, const char *SchemaName) {
  DocT Out;
  std::string Err;
  // The untampered document parses.
  ASSERT_TRUE(fromJson(Good, Out, &Err)) << SchemaName << ": " << Err;

  // Wrong schema: a document of another type must be refused by name.
  Value WrongSchema = Good;
  WrongSchema.set("schema", "wcs-imposter");
  EXPECT_FALSE(fromJson(WrongSchema, Out, &Err));
  EXPECT_NE(Err.find(std::string("not a ") + SchemaName),
            std::string::npos)
      << Err;

  // Wrong version: same type, future version, must be refused.
  Value WrongVersion = Good;
  WrongVersion.set("schema_version", 99);
  EXPECT_FALSE(fromJson(WrongVersion, Out, &Err));
  EXPECT_NE(Err.find("unsupported schema version 99"), std::string::npos)
      << Err;

  // Missing envelope entirely.
  EXPECT_FALSE(fromJson(Value::object(), Out, &Err));
  EXPECT_NE(Err.find("missing member 'schema'"), std::string::npos) << Err;
}

TEST(SchemaRejection, ResultsDoc) {
  expectRejection<ResultsDoc>(validResults(), "wcs-results");
}

TEST(SchemaRejection, SweepReport) {
  expectRejection<SweepReport>(validSweep(), "wcs-sweep");
}

TEST(SchemaRejection, SweepRequest) {
  expectRejection<SweepRequest>(validRequest(), "wcs-request");
}

TEST(SchemaRejection, SweepResponse) {
  expectRejection<SweepResponse>(validResponse(), "wcs-response");
}

TEST(SchemaRejection, StatusDoc) {
  expectRejection<StatusDoc>(validStatus(), "wcs-status");
}

TEST(SchemaRejection, MetricsDoc) {
  expectRejection<MetricsDoc>(validMetrics(), "wcs-metrics");
}

TEST(SchemaRejection, CrossTypeConfusion) {
  // Feeding one document type to another type's reader must fail on
  // the schema name -- not half-parse into garbage.
  SweepRequest Req;
  std::string Err;
  EXPECT_FALSE(fromJson(validSweep(), Req, &Err));
  EXPECT_NE(Err.find("not a wcs-request"), std::string::npos) << Err;
  SweepReport Doc;
  EXPECT_FALSE(fromJson(validRequest(), Doc, &Err));
  EXPECT_NE(Err.find("not a wcs-sweep"), std::string::npos) << Err;
  StatusDoc St;
  EXPECT_FALSE(fromJson(validMetrics(), St, &Err));
  EXPECT_NE(Err.find("not a wcs-status"), std::string::npos) << Err;
  MetricsDoc Me;
  EXPECT_FALSE(fromJson(validStatus(), Me, &Err));
  EXPECT_NE(Err.find("not a wcs-metrics"), std::string::npos) << Err;
}

} // namespace
