//===- wcs/serve/ResultStore.h - Content-addressed result store -*- C++ -*-===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wcs-serve memoization store: canonical sweep-point keys
/// (driver/SweepRequest's sweepPointKey) mapped to their SweepPoint
/// results, persisted as an append-only JSON-lines log. One line per
/// insert:
///
///   {"hash":"<16 hex>","key":"<canonical key>","point":{...}}
///
/// where hash is hashHex(hashString(key)) -- redundant with the key,
/// which makes every line self-checking: a line whose hash does not
/// match its key is corruption, not data. Loading replays the log
/// (last insert wins); a torn tail -- a partial final line from a
/// crashed writer, or any line that fails to parse or self-check --
/// truncates the file at the first bad byte and keeps everything
/// before it, so a crash can lose at most the in-flight insert.
/// Inserts append and flush one line; there is no background
/// rewriting. Explicit compaction (the wcs-serve --compact command)
/// rewrites the log atomically (temp file + rename), dropping
/// superseded duplicates and, given a cap, the oldest-inserted entries
/// beyond it.
///
//===----------------------------------------------------------------------===//

#ifndef WCS_SERVE_RESULTSTORE_H
#define WCS_SERVE_RESULTSTORE_H

#include "wcs/driver/Sweep.h"

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace wcs {

class ResultStore {
public:
  /// Opens the log at \p Path, creating it if absent, replaying and
  /// tail-recovering it if present. An empty \p Path makes a purely
  /// in-memory store (tests, --store-less serving). Returns false only
  /// on I/O errors; corruption is recovered, not fatal.
  bool open(const std::string &Path, std::string *Err);

  /// Looks up one canonical point key. A hit copies the stored point
  /// into \p Out exactly as inserted (stats, provenance, seconds).
  bool lookup(const std::string &Key, SweepPoint &Out);

  /// Inserts (or supersedes) the result for \p Key: appends one line
  /// to the log and updates the index. Last insert wins on reload.
  /// A failed append (I/O error, injected store.write fault) returns
  /// false WITHOUT updating the index -- the key stays a miss, so the
  /// point is honestly recomputed later -- and marks the log tail
  /// dirty: the on-disk bytes after the failure point cannot be
  /// trusted, so further appends are refused until the store is
  /// reopened (open() truncates the torn tail, recovering every line
  /// before it). Lookups keep serving from memory throughout.
  bool insert(const std::string &Key, const SweepPoint &Point,
              std::string *Err);

  /// Rewrites the log to one line per live key, atomically (temp file
  /// + rename). \p MaxEntries > 0 additionally evicts the
  /// oldest-inserted entries beyond the cap. No-op for in-memory
  /// stores (the index is already compact).
  bool compact(size_t MaxEntries, std::string *Err);

  size_t numEntries() const { return Index.size(); }
  /// Bytes dropped by torn-tail recovery at open() (0 = clean load).
  uint64_t recoveredBytes() const { return RecoveredBytes; }
  /// True after a failed append: the log refuses further writes until
  /// reopened (see insert()).
  bool tailDirty() const { return TailDirty; }
  const std::string &path() const { return Path; }

private:
  struct Entry {
    std::string Key;
    SweepPoint Point;
    uint64_t Seq = 0; ///< Insertion order; compaction evicts lowest.
  };

  bool appendLine(const Entry &E, std::string *Err);

  std::string Path; ///< Empty = in-memory.
  std::vector<Entry> Entries; ///< Live entries, unordered; see Index.
  std::unordered_map<std::string, size_t> Index; ///< Key -> Entries idx.
  uint64_t NextSeq = 0;
  uint64_t RecoveredBytes = 0;
  bool TailDirty = false; ///< A failed append poisoned the log tail.
};

/// Renders one store log line (exposed for tests and external tooling
/// that wants to audit a log).
std::string resultStoreLine(const std::string &Key, const SweepPoint &Point);

} // namespace wcs

#endif // WCS_SERVE_RESULTSTORE_H
