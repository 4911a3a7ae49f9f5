//===- wcs/poly/ConvexSet.h - Conjunctions of affine constraints -*- C++ -*-===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A convex integer set: the integer points satisfying a conjunction of
/// affine constraints. Iteration domains of loop and access nodes (paper
/// Sec. 3.2) are represented as these: the dialect has no disjunctive
/// guards, so every domain is convex.
///
//===----------------------------------------------------------------------===//

#ifndef WCS_POLY_CONVEXSET_H
#define WCS_POLY_CONVEXSET_H

#include "wcs/poly/AffineExpr.h"
#include "wcs/support/IterVec.h"

#include <optional>
#include <string>
#include <vector>

namespace wcs {

/// A single affine constraint: `Expr >= 0` or `Expr == 0`.
struct Constraint {
  enum class Kind { GE, EQ };

  AffineExpr Expr;
  Kind K = Kind::GE;

  Constraint() = default;
  Constraint(AffineExpr E, Kind K) : Expr(std::move(E)), K(K) {}

  static Constraint ge(AffineExpr E) {
    return Constraint(std::move(E), Kind::GE);
  }
  static Constraint eq(AffineExpr E) {
    return Constraint(std::move(E), Kind::EQ);
  }

  bool holdsAt(const IterVec &At) const {
    int64_t V = Expr.eval(At);
    return K == Kind::EQ ? V == 0 : V >= 0;
  }
};

/// Inclusive integer bounds of one variable under a fixed prefix.
struct VarBounds {
  int64_t Lo;
  int64_t Hi; ///< Lo > Hi encodes an empty range.

  bool empty() const { return Lo > Hi; }
};

/// The integer points of `Z^NumDims` satisfying all constraints.
class ConvexSet {
public:
  ConvexSet() = default;
  explicit ConvexSet(unsigned NumDims) : Dims(NumDims) {}

  unsigned numDims() const { return Dims; }
  const std::vector<Constraint> &constraints() const { return Cons; }

  void addConstraint(Constraint C);

  /// Returns this set with dimensions extended to \p NumDims (constraints
  /// are unchanged; the new trailing dimensions are unconstrained).
  ConvexSet extendedTo(unsigned NumDims) const;

  /// Exact membership test.
  bool contains(const IterVec &At) const;

  /// Integer bounds of the last dimension when all other dimensions are
  /// fixed to the first numDims()-1 values of \p Prefix. Requires that no
  /// constraint mentions dimensions beyond the last (always true for loop
  /// domains). Returns std::nullopt if the variable is unbounded in either
  /// direction (an invalid loop domain).
  ///
  /// Because all constraints are affine inequalities/equalities, the
  /// feasible values of the last dimension under a fixed prefix always
  /// form a contiguous interval, so no per-point membership test is needed
  /// when iterating a loop domain.
  std::optional<VarBounds> lastDimBounds(const IterVec &Prefix) const;

  std::string str(const std::vector<std::string> &DimNames = {}) const;

private:
  unsigned Dims = 0;
  std::vector<Constraint> Cons;
};

} // namespace wcs

#endif // WCS_POLY_CONVEXSET_H
