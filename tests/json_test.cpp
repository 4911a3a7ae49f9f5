//===- tests/json_test.cpp - JSON writer/parser unit tests ----------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "wcs/support/Json.h"

#include "gtest/gtest.h"

#include <cstdint>
#include <limits>

using namespace wcs;
using json::Value;

namespace {

Value parseOk(const std::string &Text) {
  Value V;
  std::string Err;
  EXPECT_TRUE(json::parse(Text, V, &Err)) << Text << ": " << Err;
  return V;
}

std::string parseErr(const std::string &Text) {
  Value V;
  std::string Err;
  EXPECT_FALSE(json::parse(Text, V, &Err)) << Text;
  return Err;
}

TEST(JsonValue, Scalars) {
  EXPECT_TRUE(Value().isNull());
  EXPECT_TRUE(Value(nullptr).isNull());
  EXPECT_TRUE(Value(true).asBool());
  EXPECT_EQ(Value(int64_t(-7)).asInt(), -7);
  EXPECT_EQ(Value(uint64_t(42)).asUInt(), 42u);
  EXPECT_DOUBLE_EQ(Value(2.5).asDouble(), 2.5);
  EXPECT_EQ(Value("hi").asString(), "hi");
  // Numeric kinds convert into each other; mismatches yield the default.
  EXPECT_DOUBLE_EQ(Value(int64_t(3)).asDouble(), 3.0);
  EXPECT_EQ(Value(2.9).asInt(), 2);
  EXPECT_EQ(Value("x").asInt(123), 123);
  EXPECT_EQ(Value(int64_t(1)).asString(), "");
  // Unrepresentable conversions yield the default instead of UB: doubles
  // beyond the integer ranges, and negatives under asUInt.
  EXPECT_EQ(Value(1e300).asInt(-5), -5);
  EXPECT_EQ(Value(-1e300).asInt(-5), -5);
  EXPECT_EQ(Value(1e300).asUInt(9), 9u);
  EXPECT_EQ(Value(-0.5).asUInt(9), 9u);
  EXPECT_EQ(Value(int64_t(-1)).asUInt(9), 9u);
  EXPECT_EQ(Value(18446744073709551615.0).asUInt(9), 9u); // Rounds to 2^64.
  // uint64 values up to int64 max are Int; above it they are UInt,
  // exact, and refused by asInt instead of wrapping negative.
  EXPECT_EQ(Value(uint64_t(123)).kind(), Value::Kind::Int);
  EXPECT_EQ(Value(uint64_t(9223372036854775807ull)).asInt(), // 2^63 - 1
            9223372036854775807LL);
  Value Big(uint64_t(1) << 63);
  EXPECT_EQ(Big.kind(), Value::Kind::UInt);
  EXPECT_TRUE(Big.isNumber());
  EXPECT_TRUE(Big.isNonNegativeInt());
  EXPECT_EQ(Big.asUInt(), uint64_t(1) << 63);
  EXPECT_EQ(Big.asInt(-5), -5);
  EXPECT_DOUBLE_EQ(Big.asDouble(), 9223372036854775808.0);
  EXPECT_FALSE(Value(int64_t(-1)).isNonNegativeInt());
  EXPECT_FALSE(Value(1.0).isNonNegativeInt());
}

/// Counters in [2^63, 2^64) round-trip exactly through dump and parse.
TEST(JsonValue, UnsignedAboveInt64RoundTrips) {
  const uint64_t Cases[] = {uint64_t(INT64_MAX) + 1,
                            13835058055282163712ull, // 3 * 2^62
                            std::numeric_limits<uint64_t>::max()};
  for (uint64_t C : Cases) {
    Value Doc = Value::object();
    Doc.set("accesses", Value(C));
    for (bool Pretty : {true, false}) {
      std::string Text = Doc.dump(Pretty);
      EXPECT_NE(Text.find(std::to_string(C)), std::string::npos) << Text;
      Value Back = parseOk(Text);
      EXPECT_TRUE(Back == Doc) << Text;
      EXPECT_EQ(Back["accesses"].kind(), Value::Kind::UInt);
      EXPECT_EQ(Back["accesses"].asUInt(), C);
    }
  }
  // Past UINT64_MAX, and below INT64_MIN, integers still degrade to
  // doubles; a negative never parses as unsigned.
  EXPECT_EQ(parseOk("18446744073709551616").kind(), Value::Kind::Double);
  EXPECT_EQ(parseOk("-9223372036854775809").kind(), Value::Kind::Double);
}

TEST(JsonValue, ObjectInsertionOrderAndReplace) {
  Value V = Value::object();
  V.set("zebra", 1).set("alpha", 2).set("mid", 3);
  // Keys serialize in insertion order, not sorted.
  EXPECT_EQ(V.dump(/*Pretty=*/false), "{\"zebra\":1,\"alpha\":2,\"mid\":3}");
  // Replacing keeps the original position.
  V.set("alpha", 9);
  EXPECT_EQ(V.dump(false), "{\"zebra\":1,\"alpha\":9,\"mid\":3}");
  EXPECT_EQ(V.size(), 3u);
  EXPECT_EQ(V["alpha"].asInt(), 9);
  EXPECT_EQ(V.find("missing"), nullptr);
  EXPECT_TRUE(V["missing"].isNull());
}

TEST(JsonValue, ArrayPushAndAt) {
  Value V = Value::array();
  V.push(1);
  V.push("two");
  V.push(Value::array());
  EXPECT_EQ(V.size(), 3u);
  EXPECT_EQ(V.at(0).asInt(), 1);
  EXPECT_EQ(V.at(1).asString(), "two");
  EXPECT_TRUE(V.at(7).isNull());
  EXPECT_EQ(V.dump(false), "[1,\"two\",[]]");
}

TEST(JsonWriter, Escaping) {
  Value V = Value::object();
  V.set("k\"ey", "line1\nline2\ttab \\ back \"quote\" \x01");
  EXPECT_EQ(V.dump(false),
            "{\"k\\\"ey\":"
            "\"line1\\nline2\\ttab \\\\ back \\\"quote\\\" \\u0001\"}");
  // And the escaped form parses back to the original.
  Value Back = parseOk(V.dump(false));
  EXPECT_EQ(Back, V);
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  Value V = Value::array();
  V.push(std::numeric_limits<double>::infinity());
  V.push(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(V.dump(false), "[null,null]");
}

TEST(JsonWriter, PrettyForm) {
  Value V = Value::object();
  V.set("a", 1);
  Value Arr = Value::array();
  Arr.push(2);
  V.set("b", std::move(Arr));
  EXPECT_EQ(V.dump(true), "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}");
}

TEST(JsonParser, RoundTripNested) {
  const char *Text = "{\"name\":\"gemm\",\"levels\":[{\"misses\":10},"
                     "{\"misses\":0}],\"ok\":true,\"ratio\":0.25,"
                     "\"nothing\":null}";
  Value V = parseOk(Text);
  EXPECT_EQ(V["name"].asString(), "gemm");
  EXPECT_EQ(V["levels"].at(0)["misses"].asInt(), 10);
  EXPECT_TRUE(V["ok"].asBool());
  EXPECT_DOUBLE_EQ(V["ratio"].asDouble(), 0.25);
  EXPECT_TRUE(V["nothing"].isNull());
  // Compact dump of the parse result reproduces the input byte for byte.
  EXPECT_EQ(V.dump(false), Text);
}

TEST(JsonParser, Numbers) {
  EXPECT_EQ(parseOk("9223372036854775807").asInt(),
            std::numeric_limits<int64_t>::max());
  EXPECT_EQ(parseOk("-9223372036854775808").asInt(),
            std::numeric_limits<int64_t>::min());
  // Beyond int64 range degrades to double instead of failing.
  EXPECT_TRUE(parseOk("123456789012345678901").isNumber());
  EXPECT_DOUBLE_EQ(parseOk("1.5e3").asDouble(), 1500.0);
  EXPECT_DOUBLE_EQ(parseOk("-2.5E-1").asDouble(), -0.25);
  // Integers parse as Int exactly (no double round-trip).
  Value V = parseOk("[1152921504606846977]"); // 2^60 + 1, not double-exact.
  EXPECT_EQ(V.at(0).asInt(), 1152921504606846977LL);
}

TEST(JsonParser, UnicodeEscapes) {
  EXPECT_EQ(parseOk("\"\\u0041\"").asString(), "A");
  EXPECT_EQ(parseOk("\"\\u00e9\"").asString(), "\xC3\xA9");     // é
  EXPECT_EQ(parseOk("\"\\u20ac\"").asString(), "\xE2\x82\xAC"); // €
  // Surrogate pair: U+1F600.
  EXPECT_EQ(parseOk("\"\\ud83d\\ude00\"").asString(),
            "\xF0\x9F\x98\x80");
}

TEST(JsonParser, Whitespace) {
  Value V = parseOk("  \n\t{ \"a\" : [ 1 , 2 ] }\r\n ");
  EXPECT_EQ(V["a"].size(), 2u);
}

TEST(JsonParser, Errors) {
  // Every diagnostic carries a line:col prefix.
  EXPECT_NE(parseErr("{\"a\":}").find("1:6"), std::string::npos);
  parseErr("");
  parseErr("{");
  parseErr("[1,]");
  parseErr("{\"a\" 1}");
  parseErr("{\"a\":1,}");
  parseErr("\"unterminated");
  parseErr("\"bad escape \\x\"");
  parseErr("\"bad hex \\u00zz\"");
  parseErr("tru");
  parseErr("nul");
  parseErr("01x");
  parseErr("-");
  parseErr("1.e5"); // Digits required after the decimal point.
  parseErr("[1] trailing");
  parseErr("{\"a\":1} {}");
  // Raw control characters must be escaped.
  parseErr("\"a\nb\"");
  // Error positions track newlines.
  EXPECT_NE(parseErr("{\n  \"a\": oops\n}").find("2:8"), std::string::npos);
}

TEST(JsonParser, DepthLimit) {
  std::string Deep(200, '[');
  Deep += std::string(200, ']');
  EXPECT_NE(parseErr(Deep).find("depth"), std::string::npos);
  // 50 levels is comfortably inside the limit.
  std::string Ok(50, '[');
  Ok += std::string(50, ']');
  parseOk(Ok);
}

TEST(JsonParser, DuplicateKeysLastWins) {
  // The parser builds objects through set(), which replaces in place, so
  // a duplicate key keeps the later value at the original position.
  Value V = parseOk("{\"a\":1,\"a\":2,\"b\":3}");
  EXPECT_EQ(V["a"].asInt(), 2);
  EXPECT_EQ(V.size(), 2u);
  EXPECT_EQ(V.dump(false), "{\"a\":2,\"b\":3}");
}

TEST(JsonFile, WriteReadRoundTrip) {
  Value V = Value::object();
  V.set("answer", 42).set("text", "with \"quotes\"");
  std::string Path = ::testing::TempDir() + "/wcs_json_test.json";
  std::string Err;
  ASSERT_TRUE(json::writeFile(Path, V, &Err)) << Err;
  Value Back;
  ASSERT_TRUE(json::readFile(Path, Back, &Err)) << Err;
  EXPECT_EQ(Back, V);
}

TEST(JsonFile, ReadErrors) {
  Value V;
  std::string Err;
  EXPECT_FALSE(json::readFile("/nonexistent/wcs.json", V, &Err));
  EXPECT_NE(Err.find("cannot open"), std::string::npos);
}

} // namespace
