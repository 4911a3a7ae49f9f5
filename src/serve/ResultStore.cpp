//===- src/serve/ResultStore.cpp - Content-addressed result store ---------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "wcs/serve/ResultStore.h"

#include "wcs/support/FaultInjection.h"
#include "wcs/support/Hashing.h"
#include "wcs/support/JsonReader.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

using namespace wcs;
using namespace wcs::jsonfield;
using json::Value;

std::string wcs::resultStoreLine(const std::string &Key,
                                 const SweepPoint &Point) {
  Value V = Value::object();
  V.set("hash", hashHex(hashString(Key)));
  V.set("key", Key);
  V.set("point", toJson(Point));
  return V.dump(false);
}

namespace {

/// Parses and self-checks one log line. Returns false on any defect --
/// the caller treats the line (and everything after it) as torn.
bool parseStoreLine(const std::string &Line, std::string &Key,
                    SweepPoint &Point) {
  Value V;
  if (!json::parse(Line, V))
    return false;
  std::string Hash;
  const Value *P;
  if (!needString(V, "hash", Hash, nullptr) ||
      !needString(V, "key", Key, nullptr) ||
      !needMember(V, "point", P, nullptr))
    return false;
  if (Hash != hashHex(hashString(Key)))
    return false; // Hash/key mismatch: corruption, not data.
  return fromJson(*P, Point, nullptr);
}

} // namespace

bool ResultStore::open(const std::string &OpenPath, std::string *Err) {
  Path = OpenPath;
  Entries.clear();
  Index.clear();
  NextSeq = 0;
  RecoveredBytes = 0;
  TailDirty = false;
  if (Path.empty())
    return true;

  std::ifstream In(Path, std::ios::binary);
  if (!In.is_open()) {
    // Not there yet: create an empty log so later appends and a
    // concurrent --compact see the same file.
    std::ofstream Create(Path, std::ios::binary | std::ios::app);
    if (!Create.is_open())
      return failMsg(Err, Path + ": cannot create store");
    return true;
  }

  // Replay. GoodBytes tracks the end of the last intact line; anything
  // after the first bad line is a torn tail (a crashed writer never
  // reorders lines, so nothing after the tear can be trusted).
  uint64_t GoodBytes = 0;
  std::string Line;
  bool Torn = false;
  while (std::getline(In, Line)) {
    // A final line without its trailing '\n' is in-flight: even if it
    // parses, the writer died mid-append, so only count it intact when
    // the newline made it to disk.
    bool HasNewline = !In.eof();
    std::string Key;
    SweepPoint Point;
    if (!HasNewline || !parseStoreLine(Line, Key, Point)) {
      Torn = true;
      break;
    }
    GoodBytes += Line.size() + 1;
    auto It = Index.find(Key);
    if (It != Index.end()) {
      Entries[It->second].Point = std::move(Point);
      Entries[It->second].Seq = NextSeq++;
    } else {
      Index[Key] = Entries.size();
      Entries.push_back({std::move(Key), std::move(Point), NextSeq++});
    }
  }
  In.clear(); // getline set eofbit on a clean full read; seekg needs it gone.
  In.seekg(0, std::ios::end);
  uint64_t FileBytes = static_cast<uint64_t>(In.tellg());
  In.close();

  if (Torn && FileBytes > GoodBytes) {
    RecoveredBytes = FileBytes - GoodBytes;
    // Truncate the tear away so the next append starts a clean line.
    std::ifstream Re(Path, std::ios::binary);
    std::string Keep(GoodBytes, '\0');
    Re.read(Keep.data(), static_cast<std::streamsize>(GoodBytes));
    Re.close();
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    if (!Out.is_open())
      return failMsg(Err, Path + ": cannot truncate torn tail");
    Out.write(Keep.data(), static_cast<std::streamsize>(GoodBytes));
    Out.close();
    if (!Out)
      return failMsg(Err, Path + ": torn-tail truncation failed");
  }
  return true;
}

bool ResultStore::lookup(const std::string &Key, SweepPoint &Out) {
  auto It = Index.find(Key);
  if (It == Index.end())
    return false;
  Out = Entries[It->second].Point;
  return true;
}

bool ResultStore::appendLine(const Entry &E, std::string *Err) {
  if (Path.empty())
    return true;
  if (TailDirty)
    // A previous append failed partway, so the bytes at the end of the
    // log are not a clean line boundary. Appending after them would
    // merge into the torn fragment and -- unlike a real crash, which
    // stops the writer -- poison every later line for replay. Refuse
    // until a reopen truncates the tear.
    return failMsg(Err, Path + ": refusing append after a failed write "
                        "(torn tail; reopen to recover)");
  std::ofstream Out(Path, std::ios::binary | std::ios::app);
  if (!Out.is_open())
    return failMsg(Err, Path + ": cannot append");
  if (faultinject::shouldFail("store.write")) {
    // Crash-equivalent tear: write a prefix of the line, no '\n', and
    // fail. The next open() sees exactly what a daemon killed mid-
    // append leaves behind and truncates it.
    std::string Line = resultStoreLine(E.Key, E.Point);
    Out.write(Line.data(), static_cast<std::streamsize>(Line.size() / 2));
    Out.flush();
    TailDirty = true;
    return failMsg(Err, Path + ": injected fault (store.write), torn "
                        "append");
  }
  Out << resultStoreLine(E.Key, E.Point) << '\n';
  Out.flush();
  if (!Out) {
    TailDirty = true;
    return failMsg(Err, Path + ": append failed");
  }
  return true;
}

bool ResultStore::insert(const std::string &Key, const SweepPoint &Point,
                         std::string *Err) {
  Entry E{Key, Point, NextSeq++};
  if (!appendLine(E, Err))
    return false;
  auto It = Index.find(Key);
  if (It != Index.end()) {
    Entries[It->second].Point = Point;
    Entries[It->second].Seq = E.Seq;
  } else {
    Index[Key] = Entries.size();
    Entries.push_back(std::move(E));
  }
  return true;
}

bool ResultStore::compact(size_t MaxEntries, std::string *Err) {
  // Evict oldest-inserted beyond the cap (0 = keep everything live).
  if (MaxEntries > 0 && Entries.size() > MaxEntries) {
    std::sort(Entries.begin(), Entries.end(),
              [](const Entry &A, const Entry &B) { return A.Seq < B.Seq; });
    Entries.erase(Entries.begin(),
                  Entries.end() - static_cast<ptrdiff_t>(MaxEntries));
    Index.clear();
    for (size_t I = 0; I < Entries.size(); ++I)
      Index[Entries[I].Key] = I;
  }
  if (Path.empty())
    return true;

  // One line per live key, oldest first, written beside the log and
  // renamed over it so a crash mid-compaction leaves the old log.
  std::vector<const Entry *> Order;
  Order.reserve(Entries.size());
  for (const Entry &E : Entries)
    Order.push_back(&E);
  std::sort(Order.begin(), Order.end(),
            [](const Entry *A, const Entry *B) { return A->Seq < B->Seq; });

  std::string Tmp = Path + ".compact";
  std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
  if (!Out.is_open())
    return failMsg(Err, Tmp + ": cannot write");
  for (const Entry *E : Order)
    Out << resultStoreLine(E->Key, E->Point) << '\n';
  Out.close();
  if (!Out)
    return failMsg(Err, Tmp + ": write failed");
  if (std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    std::remove(Tmp.c_str());
    return failMsg(Err, Path + ": rename failed");
  }
  return true;
}
