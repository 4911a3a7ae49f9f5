//===- wcs/support/JsonReader.h - Typed JSON document reading ---*- C++ -*-===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reader API behind every schema-versioned wcs document: the
/// wcs-results and wcs-sweep files plus the wcs-request/wcs-response
/// serving protocol. Three layers:
///
///  - needX(V, Key, Out, Err): fetch object member \p Key, demand kind
///    X, fail with the uniform "missing or mistyped member" diagnostic.
///    Counters and config fields are written as exact JSON integers, so
///    the integer readers demand an integer kind outright -- needUInt
///    any integer in [0, UINT64_MAX], needInt one in int64 range: a
///    fractional, out-of-range or (for unsigned fields) negative number
///    is a malformed file and fails loudly instead of being truncated or
///    wrapped into a plausible value.
///
///  - optX(V, Key, Out, Err): an absent member leaves \p Out at its
///    caller-set default and succeeds; a present but mistyped member
///    still fails loudly. For fields added to a schema after its first
///    release -- writers always emit them, but older files of the same
///    version must keep parsing.
///
///  - needSchema(V, Name, Version, Err): the envelope check every
///    document reader runs first. Rejects a wrong "schema" member
///    ("not a <Name> file") and a wrong "schema_version" ("unsupported
///    schema version"), so no reader ever half-parses a document it
///    does not speak. Rejection behavior for all four document types is
///    pinned by tests/json_reader_test.cpp.
///
/// Documents are still read through their typed fromJson entry points;
/// these helpers are what those entry points are built from.
///
//===----------------------------------------------------------------------===//

#ifndef WCS_SUPPORT_JSONREADER_H
#define WCS_SUPPORT_JSONREADER_H

#include "wcs/support/Json.h"

#include <cstdint>
#include <sstream>
#include <string>

namespace wcs {
namespace jsonfield {

inline bool failMsg(std::string *Err, const std::string &Msg) {
  if (Err)
    *Err = Msg;
  return false;
}

/// Fetches object member \p Key into \p Out. Central place for the
/// "missing or mistyped member" diagnostics every fromJson needs.
inline bool needMember(const json::Value &V, const char *Key,
                       const json::Value *&Out, std::string *Err) {
  if (!V.isObject())
    return failMsg(Err, "expected an object");
  Out = V.find(Key);
  if (!Out)
    return failMsg(Err, std::string("missing member '") + Key + "'");
  return true;
}

inline bool needUInt(const json::Value &V, const char *Key, uint64_t &Out,
                     std::string *Err) {
  const json::Value *M;
  if (!needMember(V, Key, M, Err))
    return false;
  if (!M->isNonNegativeInt())
    return failMsg(Err, std::string("member '") + Key +
                            "' must be a non-negative integer");
  Out = M->asUInt();
  return true;
}

inline bool needInt(const json::Value &V, const char *Key, int64_t &Out,
                    std::string *Err) {
  const json::Value *M;
  if (!needMember(V, Key, M, Err))
    return false;
  if (M->kind() != json::Value::Kind::Int)
    return failMsg(Err, std::string("member '") + Key + "' must be an integer");
  Out = M->asInt();
  return true;
}

inline bool needU32(const json::Value &V, const char *Key, unsigned &Out,
                    std::string *Err) {
  uint64_t U;
  if (!needUInt(V, Key, U, Err))
    return false;
  if (U > 0xffffffffull)
    return failMsg(Err, std::string("member '") + Key +
                            "' does not fit in 32 bits");
  Out = static_cast<unsigned>(U);
  return true;
}

inline bool needDouble(const json::Value &V, const char *Key, double &Out,
                       std::string *Err) {
  const json::Value *M;
  if (!needMember(V, Key, M, Err))
    return false;
  if (!M->isNumber())
    return failMsg(Err, std::string("member '") + Key + "' must be a number");
  Out = M->asDouble();
  return true;
}

inline bool needBool(const json::Value &V, const char *Key, bool &Out,
                     std::string *Err) {
  const json::Value *M;
  if (!needMember(V, Key, M, Err))
    return false;
  if (!M->isBool())
    return failMsg(Err, std::string("member '") + Key + "' must be a bool");
  Out = M->asBool();
  return true;
}

inline bool needString(const json::Value &V, const char *Key,
                       std::string &Out, std::string *Err) {
  const json::Value *M;
  if (!needMember(V, Key, M, Err))
    return false;
  if (!M->isString())
    return failMsg(Err, std::string("member '") + Key + "' must be a string");
  Out = M->asString();
  return true;
}

inline bool needArray(const json::Value &V, const char *Key,
                      const json::Value *&Out, std::string *Err) {
  if (!needMember(V, Key, Out, Err))
    return false;
  if (!Out->isArray())
    return failMsg(Err, std::string("member '") + Key + "' must be an array");
  return true;
}

inline bool needObject(const json::Value &V, const char *Key,
                       const json::Value *&Out, std::string *Err) {
  if (!needMember(V, Key, Out, Err))
    return false;
  if (!Out->isObject())
    return failMsg(Err, std::string("member '") + Key + "' must be an object");
  return true;
}

inline bool optUInt(const json::Value &V, const char *Key, uint64_t &Out,
                    std::string *Err) {
  if (!V.isObject())
    return failMsg(Err, "expected an object");
  return V.find(Key) == nullptr || needUInt(V, Key, Out, Err);
}

inline bool optU32(const json::Value &V, const char *Key, unsigned &Out,
                   std::string *Err) {
  if (!V.isObject())
    return failMsg(Err, "expected an object");
  return V.find(Key) == nullptr || needU32(V, Key, Out, Err);
}

inline bool optDouble(const json::Value &V, const char *Key, double &Out,
                      std::string *Err) {
  if (!V.isObject())
    return failMsg(Err, "expected an object");
  return V.find(Key) == nullptr || needDouble(V, Key, Out, Err);
}

inline bool optBool(const json::Value &V, const char *Key, bool &Out,
                    std::string *Err) {
  if (!V.isObject())
    return failMsg(Err, "expected an object");
  return V.find(Key) == nullptr || needBool(V, Key, Out, Err);
}

inline bool optString(const json::Value &V, const char *Key, std::string &Out,
                      std::string *Err) {
  if (!V.isObject())
    return failMsg(Err, "expected an object");
  return V.find(Key) == nullptr || needString(V, Key, Out, Err);
}

/// The envelope check of every schema-versioned document reader:
/// demands `"schema": Name` and `"schema_version": Version` before any
/// payload member is touched. A document of another type fails with
/// "not a <Name> file"; a version this reader does not speak fails
/// with "unsupported schema version".
inline bool needSchema(const json::Value &V, const char *Name,
                       int64_t Version, std::string *Err) {
  std::string Schema;
  int64_t Got;
  if (!needString(V, "schema", Schema, Err) ||
      !needInt(V, "schema_version", Got, Err))
    return false;
  if (Schema != Name)
    return failMsg(Err, "not a " + std::string(Name) + " file (schema '" +
                            Schema + "')");
  if (Got != Version) {
    std::ostringstream OS;
    OS << "unsupported schema version " << Got << " (this reader speaks "
       << Version << ")";
    return failMsg(Err, OS.str());
  }
  return true;
}

} // namespace jsonfield
} // namespace wcs

#endif // WCS_SUPPORT_JSONREADER_H
