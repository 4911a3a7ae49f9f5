//===- wcs/support/Json.h - Dependency-free JSON value/writer/parser -*- C++ -*-===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small, dependency-free JSON library: a Value variant, a writer with
/// stable key order, and a recursive-descent parser. Backs the results
/// pipeline (structured SimStats / config / batch-result files consumed
/// by wcs-report and CI), so the design goals are determinism and
/// round-trip fidelity, not feature breadth:
///
///  - Objects keep *insertion* order and the writer emits keys in that
///    order, so serializing the same data always yields byte-identical
///    text (diffable results files, stable golden tests).
///  - Integers are stored exactly, from INT64_MIN to UINT64_MAX: an
///    int64 kind, plus an unsigned kind for (INT64_MAX, UINT64_MAX]
///    (counter values survive a round trip bit-for-bit; doubles would
///    silently lose precision beyond 2^53). Doubles print with %.17g,
///    enough to round-trip.
///  - The parser reports line/column on malformed input and enforces a
///    nesting-depth limit instead of recursing unboundedly.
///
//===----------------------------------------------------------------------===//

#ifndef WCS_SUPPORT_JSON_H
#define WCS_SUPPORT_JSON_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace wcs {
namespace json {

struct Member;

/// A JSON document node: null, bool, integer, double, string, array or
/// object. Value is cheap to move; copying deep-copies the subtree.
class Value {
public:
  /// Int holds every integer in int64 range and UInt only those above
  /// it, so each integer has exactly one representation.
  enum class Kind { Null, Bool, Int, UInt, Double, String, Array, Object };

  Value() = default;
  Value(std::nullptr_t) {}
  Value(bool V) : K(Kind::Bool), B(V) {}
  Value(int V) : K(Kind::Int), I(V) {}
  Value(int64_t V) : K(Kind::Int), I(V) {}
  Value(unsigned V) : K(Kind::Int), I(static_cast<int64_t>(V)) {}
  /// Int when \p V fits in int64, UInt above that.
  Value(uint64_t V) {
    if (V <= static_cast<uint64_t>(INT64_MAX)) {
      K = Kind::Int;
      I = static_cast<int64_t>(V);
    } else {
      K = Kind::UInt;
      I = static_cast<int64_t>(V);
    }
  }
  Value(double V) : K(Kind::Double), D(V) {}
  Value(const char *V) : K(Kind::String), S(V) {}
  Value(std::string V) : K(Kind::String), S(std::move(V)) {}

  static Value array() {
    Value V;
    V.K = Kind::Array;
    return V;
  }
  static Value object() {
    Value V;
    V.K = Kind::Object;
    return V;
  }

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isNumber() const {
    return K == Kind::Int || K == Kind::UInt || K == Kind::Double;
  }
  /// An integer in [0, UINT64_MAX]: what counters are written as.
  bool isNonNegativeInt() const {
    return (K == Kind::Int && I >= 0) || K == Kind::UInt;
  }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  /// Scalar getters; on a kind mismatch they return \p Def. Numeric
  /// kinds convert between each other, but only when the conversion is
  /// representable: a double outside int64/uint64 range, a UInt under
  /// asInt and a negative value under asUInt yield \p Def instead of
  /// undefined behavior.
  bool asBool(bool Def = false) const { return isBool() ? B : Def; }
  int64_t asInt(int64_t Def = 0) const;
  uint64_t asUInt(uint64_t Def = 0) const;
  double asDouble(double Def = 0.0) const;
  const std::string &asString() const;

  /// Elements of an array, members of an object, 0 otherwise.
  size_t size() const;

  // --- Array interface ---

  /// Appends \p V (the value becomes an array if it was null).
  void push(Value V);
  /// Element \p Idx, or a shared null Value when out of range.
  const Value &at(size_t Idx) const;
  const std::vector<Value> &items() const { return Arr; }

  // --- Object interface ---

  /// Sets member \p Key to \p V: replaces the existing member in place
  /// (key order is unchanged) or appends a new one. The value becomes an
  /// object if it was null. Returns *this to allow chaining.
  Value &set(std::string Key, Value V);
  /// The member named \p Key, or nullptr. Objects never hold duplicate
  /// keys: set() replaces, and the parser builds through set(), so a
  /// duplicate key in parsed text keeps the last value.
  const Value *find(std::string_view Key) const;
  /// The member named \p Key, or a shared null Value.
  const Value &operator[](std::string_view Key) const;
  const std::vector<Member> &members() const { return Obj; }

  /// Serializes the value. \p Pretty adds two-space indentation and
  /// newlines; the compact form has no whitespace at all. Object keys are
  /// always written in insertion order.
  std::string dump(bool Pretty = true) const;

  bool operator==(const Value &O) const;

private:
  Kind K = Kind::Null;
  bool B = false;
  int64_t I = 0; ///< Int, or the bits of a UInt.
  double D = 0.0;
  std::string S;
  std::vector<Value> Arr;
  std::vector<Member> Obj;

  void dumpTo(std::string &Out, unsigned Depth, bool Pretty) const;
};

/// One key/value member of an object.
struct Member {
  std::string Key;
  Value Val;
};

/// Appends the JSON string-literal encoding of \p S (including the
/// surrounding quotes) to \p Out, escaping quotes, backslashes and
/// control characters. Non-ASCII bytes pass through untouched (the
/// writer assumes UTF-8 input).
void appendEscaped(std::string &Out, std::string_view S);

/// Parses a complete JSON document. Returns false on malformed input or
/// trailing garbage and, when \p Err is non-null, stores a
/// "line:col: message" diagnostic. Nesting is limited to 100 levels.
bool parse(std::string_view Text, Value &Out, std::string *Err = nullptr);

/// Reads and parses the file at \p Path.
bool readFile(const std::string &Path, Value &Out, std::string *Err = nullptr);

/// Pretty-prints \p V to the file at \p Path (trailing newline included).
bool writeFile(const std::string &Path, const Value &V,
               std::string *Err = nullptr);

} // namespace json
} // namespace wcs

#endif // WCS_SUPPORT_JSON_H
