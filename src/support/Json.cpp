//===- src/support/Json.cpp - JSON writer and parser ----------------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "wcs/support/Json.h"

#include <cassert>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

using namespace wcs;
using namespace wcs::json;

namespace {
const Value NullValue;
const std::string EmptyString;
} // namespace

int64_t Value::asInt(int64_t Def) const {
  if (K == Kind::Int)
    return I;
  // A double only converts when the cast is defined behavior: the
  // comparison bounds are exact doubles (-2^63 and 2^63), and any value
  // inside them truncates representably.
  if (K == Kind::Double && D >= -9223372036854775808.0 &&
      D < 9223372036854775808.0)
    return static_cast<int64_t>(D);
  return Def;
}

uint64_t Value::asUInt(uint64_t Def) const {
  if (K == Kind::Int)
    return I >= 0 ? static_cast<uint64_t>(I) : Def;
  if (K == Kind::UInt)
    return static_cast<uint64_t>(I);
  if (K == Kind::Double && D >= 0.0 && D < 18446744073709551616.0)
    return static_cast<uint64_t>(D);
  return Def;
}

double Value::asDouble(double Def) const {
  if (K == Kind::Double)
    return D;
  if (K == Kind::Int)
    return static_cast<double>(I);
  if (K == Kind::UInt)
    return static_cast<double>(static_cast<uint64_t>(I));
  return Def;
}

const std::string &Value::asString() const {
  return K == Kind::String ? S : EmptyString;
}

size_t Value::size() const {
  if (K == Kind::Array)
    return Arr.size();
  if (K == Kind::Object)
    return Obj.size();
  return 0;
}

void Value::push(Value V) {
  if (K == Kind::Null)
    K = Kind::Array;
  assert(K == Kind::Array && "push() on a non-array Value");
  Arr.push_back(std::move(V));
}

const Value &Value::at(size_t Idx) const {
  return Idx < Arr.size() ? Arr[Idx] : NullValue;
}

Value &Value::set(std::string Key, Value V) {
  if (K == Kind::Null)
    K = Kind::Object;
  assert(K == Kind::Object && "set() on a non-object Value");
  for (Member &M : Obj)
    if (M.Key == Key) {
      M.Val = std::move(V);
      return *this;
    }
  Obj.push_back(Member{std::move(Key), std::move(V)});
  return *this;
}

const Value *Value::find(std::string_view Key) const {
  for (const Member &M : Obj)
    if (M.Key == Key)
      return &M.Val;
  return nullptr;
}

const Value &Value::operator[](std::string_view Key) const {
  const Value *V = find(Key);
  return V ? *V : NullValue;
}

bool Value::operator==(const Value &O) const {
  if (K != O.K)
    return false;
  switch (K) {
  case Kind::Null:
    return true;
  case Kind::Bool:
    return B == O.B;
  case Kind::Int:
  case Kind::UInt:
    return I == O.I;
  case Kind::Double:
    return D == O.D;
  case Kind::String:
    return S == O.S;
  case Kind::Array:
    return Arr == O.Arr;
  case Kind::Object:
    if (Obj.size() != O.Obj.size())
      return false;
    for (size_t N = 0; N < Obj.size(); ++N)
      if (Obj[N].Key != O.Obj[N].Key || !(Obj[N].Val == O.Obj[N].Val))
        return false;
    return true;
  }
  return false;
}

void wcs::json::appendEscaped(std::string &Out, std::string_view S) {
  Out += '"';
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\b':
      Out += "\\b";
      break;
    case '\f':
      Out += "\\f";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  Out += '"';
}

void Value::dumpTo(std::string &Out, unsigned Depth, bool Pretty) const {
  auto Indent = [&](unsigned N) {
    if (Pretty) {
      Out += '\n';
      Out.append(2 * N, ' ');
    }
  };
  switch (K) {
  case Kind::Null:
    Out += "null";
    break;
  case Kind::Bool:
    Out += B ? "true" : "false";
    break;
  case Kind::Int: {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%lld", static_cast<long long>(I));
    Out += Buf;
    break;
  }
  case Kind::UInt: {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%llu",
                  static_cast<unsigned long long>(I));
    Out += Buf;
    break;
  }
  case Kind::Double: {
    // %.17g round-trips every finite double; JSON has no literal for
    // infinities and NaNs, so those degrade to null.
    if (!std::isfinite(D)) {
      Out += "null";
      break;
    }
    char Buf[40];
    std::snprintf(Buf, sizeof(Buf), "%.17g", D);
    Out += Buf;
    break;
  }
  case Kind::String:
    appendEscaped(Out, S);
    break;
  case Kind::Array:
    if (Arr.empty()) {
      Out += "[]";
      break;
    }
    Out += '[';
    for (size_t N = 0; N < Arr.size(); ++N) {
      if (N)
        Out += ',';
      Indent(Depth + 1);
      Arr[N].dumpTo(Out, Depth + 1, Pretty);
    }
    Indent(Depth);
    Out += ']';
    break;
  case Kind::Object:
    if (Obj.empty()) {
      Out += "{}";
      break;
    }
    Out += '{';
    for (size_t N = 0; N < Obj.size(); ++N) {
      if (N)
        Out += ',';
      Indent(Depth + 1);
      appendEscaped(Out, Obj[N].Key);
      Out += Pretty ? ": " : ":";
      Obj[N].Val.dumpTo(Out, Depth + 1, Pretty);
    }
    Indent(Depth);
    Out += '}';
    break;
  }
}

std::string Value::dump(bool Pretty) const {
  std::string Out;
  dumpTo(Out, 0, Pretty);
  return Out;
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

namespace {

constexpr unsigned MaxDepth = 100;

class Parser {
public:
  Parser(std::string_view Text) : Text(Text) {}

  bool run(Value &Out, std::string *Err) {
    skipWhitespace();
    if (!parseValue(Out, 0))
      return fail(Err);
    skipWhitespace();
    if (Pos != Text.size()) {
      error("trailing garbage after the document");
      return fail(Err);
    }
    return true;
  }

private:
  std::string_view Text;
  size_t Pos = 0;
  std::string Message;
  size_t ErrPos = 0;

  bool fail(std::string *Err) {
    if (!Err)
      return false;
    // Translate the error offset into line:col.
    size_t Line = 1, Col = 1;
    for (size_t N = 0; N < ErrPos && N < Text.size(); ++N) {
      if (Text[N] == '\n') {
        ++Line;
        Col = 1;
      } else {
        ++Col;
      }
    }
    std::ostringstream OS;
    OS << Line << ":" << Col << ": " << Message;
    *Err = OS.str();
    return false;
  }

  bool error(const std::string &Msg) {
    if (Message.empty()) { // Keep the innermost diagnostic.
      Message = Msg;
      ErrPos = Pos;
    }
    return false;
  }

  bool eof() const { return Pos >= Text.size(); }
  char peek() const { return Text[Pos]; }

  void skipWhitespace() {
    while (!eof() && (peek() == ' ' || peek() == '\t' || peek() == '\n' ||
                      peek() == '\r'))
      ++Pos;
  }

  bool consume(char C) {
    if (eof() || peek() != C)
      return false;
    ++Pos;
    return true;
  }

  bool expect(char C, const char *What) {
    if (consume(C))
      return true;
    return error(std::string("expected '") + C + "' " + What);
  }

  bool literal(std::string_view Word) {
    if (Text.substr(Pos, Word.size()) != Word)
      return false;
    Pos += Word.size();
    return true;
  }

  bool parseValue(Value &Out, unsigned Depth) {
    if (Depth > MaxDepth)
      return error("nesting depth limit exceeded");
    skipWhitespace();
    if (eof())
      return error("unexpected end of input");
    switch (peek()) {
    case '{':
      return parseObject(Out, Depth);
    case '[':
      return parseArray(Out, Depth);
    case '"': {
      std::string S;
      if (!parseString(S))
        return false;
      Out = Value(std::move(S));
      return true;
    }
    case 't':
      if (literal("true")) {
        Out = Value(true);
        return true;
      }
      return error("invalid literal");
    case 'f':
      if (literal("false")) {
        Out = Value(false);
        return true;
      }
      return error("invalid literal");
    case 'n':
      if (literal("null")) {
        Out = Value(nullptr);
        return true;
      }
      return error("invalid literal");
    default:
      return parseNumber(Out);
    }
  }

  bool parseObject(Value &Out, unsigned Depth) {
    expect('{', "to open an object");
    Out = Value::object();
    skipWhitespace();
    if (consume('}'))
      return true;
    while (true) {
      skipWhitespace();
      std::string Key;
      if (!parseString(Key))
        return error("expected a member key string");
      skipWhitespace();
      if (!expect(':', "after a member key"))
        return false;
      Value V;
      if (!parseValue(V, Depth + 1))
        return false;
      Out.set(std::move(Key), std::move(V));
      skipWhitespace();
      if (consume(','))
        continue;
      return expect('}', "to close an object");
    }
  }

  bool parseArray(Value &Out, unsigned Depth) {
    expect('[', "to open an array");
    Out = Value::array();
    skipWhitespace();
    if (consume(']'))
      return true;
    while (true) {
      Value V;
      if (!parseValue(V, Depth + 1))
        return false;
      Out.push(std::move(V));
      skipWhitespace();
      if (consume(','))
        continue;
      return expect(']', "to close an array");
    }
  }

  /// Appends the UTF-8 encoding of code point \p CP to \p Out.
  static void appendUtf8(std::string &Out, uint32_t CP) {
    if (CP < 0x80) {
      Out += static_cast<char>(CP);
    } else if (CP < 0x800) {
      Out += static_cast<char>(0xC0 | (CP >> 6));
      Out += static_cast<char>(0x80 | (CP & 0x3F));
    } else if (CP < 0x10000) {
      Out += static_cast<char>(0xE0 | (CP >> 12));
      Out += static_cast<char>(0x80 | ((CP >> 6) & 0x3F));
      Out += static_cast<char>(0x80 | (CP & 0x3F));
    } else {
      Out += static_cast<char>(0xF0 | (CP >> 18));
      Out += static_cast<char>(0x80 | ((CP >> 12) & 0x3F));
      Out += static_cast<char>(0x80 | ((CP >> 6) & 0x3F));
      Out += static_cast<char>(0x80 | (CP & 0x3F));
    }
  }

  bool parseHex4(uint32_t &Out) {
    if (Pos + 4 > Text.size())
      return error("truncated \\u escape");
    Out = 0;
    for (int N = 0; N < 4; ++N) {
      char C = Text[Pos++];
      Out <<= 4;
      if (C >= '0' && C <= '9')
        Out |= static_cast<uint32_t>(C - '0');
      else if (C >= 'a' && C <= 'f')
        Out |= static_cast<uint32_t>(C - 'a' + 10);
      else if (C >= 'A' && C <= 'F')
        Out |= static_cast<uint32_t>(C - 'A' + 10);
      else
        return error("invalid hex digit in \\u escape");
    }
    return true;
  }

  bool parseString(std::string &Out) {
    if (!consume('"'))
      return error("expected a string");
    Out.clear();
    while (true) {
      if (eof())
        return error("unterminated string");
      char C = Text[Pos++];
      if (C == '"')
        return true;
      if (static_cast<unsigned char>(C) < 0x20)
        return error("raw control character in string");
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (eof())
        return error("unterminated escape");
      char E = Text[Pos++];
      switch (E) {
      case '"':
      case '\\':
      case '/':
        Out += E;
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'n':
        Out += '\n';
        break;
      case 'r':
        Out += '\r';
        break;
      case 't':
        Out += '\t';
        break;
      case 'u': {
        uint32_t CP;
        if (!parseHex4(CP))
          return false;
        // Combine a surrogate pair into one code point when the low half
        // follows; a lone surrogate encodes as-is (lenient, like most
        // parsers).
        if (CP >= 0xD800 && CP <= 0xDBFF &&
            Text.substr(Pos, 2) == "\\u") {
          size_t Save = Pos;
          Pos += 2;
          uint32_t Low;
          if (!parseHex4(Low))
            return false;
          if (Low >= 0xDC00 && Low <= 0xDFFF)
            CP = 0x10000 + ((CP - 0xD800) << 10) + (Low - 0xDC00);
          else
            Pos = Save; // Not a pair; re-scan the second escape normally.
        }
        appendUtf8(Out, CP);
        break;
      }
      default:
        return error("invalid escape character");
      }
    }
  }

  bool parseNumber(Value &Out) {
    size_t Start = Pos;
    consume('-');
    while (!eof() && peek() >= '0' && peek() <= '9')
      ++Pos;
    bool Integral = Pos > Start && Text[Pos - 1] >= '0';
    if (!Integral)
      return error("invalid number");
    if (!eof() && (peek() == '.' || peek() == 'e' || peek() == 'E')) {
      Integral = false;
      if (consume('.')) {
        size_t FracStart = Pos;
        while (!eof() && peek() >= '0' && peek() <= '9')
          ++Pos;
        if (Pos == FracStart)
          return error("expected digits after the decimal point");
      }
      if (!eof() && (peek() == 'e' || peek() == 'E')) {
        ++Pos;
        if (!eof() && (peek() == '+' || peek() == '-'))
          ++Pos;
        size_t ExpStart = Pos;
        while (!eof() && peek() >= '0' && peek() <= '9')
          ++Pos;
        if (Pos == ExpStart)
          return error("expected digits in the exponent");
      }
    }
    std::string Token(Text.substr(Start, Pos - Start));
    errno = 0;
    if (Integral) {
      char *End = nullptr;
      long long V = std::strtoll(Token.c_str(), &End, 10);
      if (errno != ERANGE && End && *End == '\0') {
        Out = Value(static_cast<int64_t>(V));
        return true;
      }
      // Above int64: exact up to UINT64_MAX (strtoull would negate a
      // leading '-' instead of refusing it).
      if (Token[0] != '-') {
        errno = 0;
        unsigned long long UV = std::strtoull(Token.c_str(), &End, 10);
        if (errno != ERANGE && End && *End == '\0') {
          Out = Value(static_cast<uint64_t>(UV));
          return true;
        }
      }
      // Fall through to double beyond the integer range.
    }
    char *End = nullptr;
    errno = 0;
    double V = std::strtod(Token.c_str(), &End);
    if (!End || *End != '\0')
      return error("invalid number");
    Out = Value(V);
    return true;
  }
};

} // namespace

bool wcs::json::parse(std::string_view Text, Value &Out, std::string *Err) {
  return Parser(Text).run(Out, Err);
}

bool wcs::json::readFile(const std::string &Path, Value &Out,
                         std::string *Err) {
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    if (Err)
      *Err = Path + ": cannot open for reading";
    return false;
  }
  std::ostringstream SS;
  SS << In.rdbuf();
  std::string ParseErr;
  if (!parse(SS.str(), Out, &ParseErr)) {
    if (Err)
      *Err = Path + ":" + ParseErr;
    return false;
  }
  return true;
}

bool wcs::json::writeFile(const std::string &Path, const Value &V,
                          std::string *Err) {
  std::ofstream OutFile(Path, std::ios::binary | std::ios::trunc);
  if (!OutFile) {
    if (Err)
      *Err = Path + ": cannot open for writing";
    return false;
  }
  OutFile << V.dump(/*Pretty=*/true) << "\n";
  OutFile.flush();
  if (!OutFile) {
    if (Err)
      *Err = Path + ": write failed";
    return false;
  }
  return true;
}
