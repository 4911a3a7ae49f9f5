//===- wcs/scop/Builder.h - Programmatic SCoP construction ------*- C++ -*-===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small fluent API for constructing SCoP trees directly, used by tests,
/// examples and the randomized program generator. The frontend library
/// offers the more convenient path of parsing the C-like loop-nest
/// dialect; both produce the same ScopProgram.
///
/// Example (the paper's Fig. 1 stencil):
/// \code
///   ScopBuilder B("stencil1d");
///   unsigned A = B.addArray("A", 4, {1000});
///   unsigned Bv = B.addArray("B", 4, {1000});
///   B.beginLoop("i", B.cst(1), B.cst(998));
///   B.read(A, {B.iter("i") - B.cst(1)});
///   B.read(A, {B.iter("i")});
///   B.write(Bv, {B.iter("i") - B.cst(1)});
///   B.endLoop();
///   ScopProgram P = B.finish();
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef WCS_SCOP_BUILDER_H
#define WCS_SCOP_BUILDER_H

#include "wcs/scop/Program.h"

#include <string>
#include <vector>

namespace wcs {

/// Incremental builder for ScopPrograms.
class ScopBuilder {
public:
  explicit ScopBuilder(std::string Name);

  /// Declares an array with the given extents; returns its id.
  unsigned addArray(std::string Name, unsigned ElemBytes,
                    std::vector<int64_t> DimSizes);
  /// Declares a scalar (zero-dimensional array); returns its id.
  unsigned addScalar(std::string Name, unsigned ElemBytes = 8);

  /// The current loop-nest depth.
  unsigned depth() const { return static_cast<unsigned>(OpenLoops.size()); }

  /// An AffineExpr denoting the named enclosing iterator.
  AffineExpr iter(const std::string &Name) const;
  /// An AffineExpr denoting the iterator at nesting level \p Level.
  AffineExpr iterAt(unsigned Level) const;
  /// A constant AffineExpr at the current depth.
  AffineExpr cst(int64_t C) const;

  /// Opens a loop `for Name = Lo .. Hi` (inclusive bounds; expressions
  /// over the enclosing iterators).
  void beginLoop(std::string Name, AffineExpr Lo, AffineExpr Hi);
  void endLoop();

  /// Opens a guard: statements until endGuard execute only where
  /// `C` holds. Guards nest.
  void beginGuard(Constraint C);
  void endGuard();

  /// Emits an access node at the current position.
  void access(unsigned ArrayId, AccessKind K,
              std::vector<AffineExpr> Subscripts);
  void read(unsigned ArrayId, std::vector<AffineExpr> Subscripts) {
    access(ArrayId, AccessKind::Read, std::move(Subscripts));
  }
  void write(unsigned ArrayId, std::vector<AffineExpr> Subscripts) {
    access(ArrayId, AccessKind::Write, std::move(Subscripts));
  }
  /// Emits a scalar read/write.
  void readScalar(unsigned ArrayId) { read(ArrayId, {}); }
  void writeScalar(unsigned ArrayId) { write(ArrayId, {}); }

  /// Closes construction: assigns the layout, finalizes and validates.
  /// On failure, returns an empty program, sets \p Error and, when
  /// nonnull, \p Refused to the entity the error names (loops and
  /// accesses numbered in the order they were emitted, arrays in the
  /// order they were declared).
  ScopProgram finish(std::string *Error = nullptr, int64_t AlignBytes = 4096,
                     ScopEntity *Refused = nullptr);

private:
  void appendNode(std::unique_ptr<Node> N);

  ScopProgram P;
  std::vector<LoopNode *> OpenLoops;
  std::vector<std::string> IterNames;
  /// Current domain over depth() dimensions (loop bounds + open guards).
  ConvexSet CurDomain{0};
  /// Saved domains for each open loop / guard scope.
  std::vector<ConvexSet> DomainStack;
  unsigned OpenGuards = 0;
  std::string DeferredError;
};

} // namespace wcs

#endif // WCS_SCOP_BUILDER_H
