//===- wcs/poly/FourierMotzkin.h - Rational FM elimination ------*- C++ -*-===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fourier-Motzkin elimination over systems of linear inequalities with
/// integer coefficients. This is the engine behind the warping
/// applicability checks (FurthestByDomains / FurthestByOverlap, paper
/// Sec. 5.3): they reduce to "minimize one variable subject to a linear
/// system", solved here over the rationals.
///
/// Rational relaxation is sound for warping: it can only report a conflict
/// at an iteration *no later* than the true integer conflict, which shrinks
/// the warp distance but never admits an incorrect warp. Coefficient
/// overflow is detected and reported as `Unknown`, which callers treat as
/// an immediate conflict (again sound).
///
//===----------------------------------------------------------------------===//

#ifndef WCS_POLY_FOURIERMOTZKIN_H
#define WCS_POLY_FOURIERMOTZKIN_H

#include <cstdint>
#include <optional>
#include <vector>

namespace wcs {

/// An exact rational number with int64 numerator/denominator.
struct Rational {
  int64_t Num = 0;
  int64_t Den = 1; ///< Always positive.

  Rational() = default;
  Rational(int64_t N, int64_t D);
  static Rational fromInt(int64_t N) { return Rational(N, 1); }

  int64_t floor() const;
  int64_t ceil() const;

  friend bool operator<(const Rational &A, const Rational &B) {
    return static_cast<__int128>(A.Num) * B.Den <
           static_cast<__int128>(B.Num) * A.Den;
  }
  friend bool operator<=(const Rational &A, const Rational &B) {
    return !(B < A);
  }
  friend bool operator==(const Rational &A, const Rational &B) {
    return A.Num == B.Num && A.Den == B.Den;
  }
};

/// Result category of a rational feasibility / optimization query.
enum class FMStatus {
  Feasible,   ///< The system has a rational solution.
  Infeasible, ///< The system is rationally (hence integrally) empty.
  Unknown,    ///< Coefficient overflow; treat conservatively.
};

/// A system of linear inequalities `a . x + c >= 0` over NumVars variables.
class LinearSystem {
public:
  explicit LinearSystem(unsigned NumVars) : NumVars(NumVars) {}

  /// Adds the inequality `Coeffs . x + Const >= 0`.
  void addGE(std::vector<int64_t> Coeffs, int64_t Const);

  /// Adds the equality `Coeffs . x + Const == 0` (as two inequalities).
  void addEQ(const std::vector<int64_t> &Coeffs, int64_t Const);

  /// Rational feasibility via elimination of all variables.
  FMStatus feasible() const;

  /// Computes the rational minimum of variable \p Var subject to the
  /// system. On Feasible, \p Min is set if the variable is bounded below
  /// (unset means unbounded below).
  FMStatus minimize(unsigned Var, std::optional<Rational> &Min) const;

private:
  struct Row {
    std::vector<int64_t> Coeffs;
    int64_t Const;
  };

  /// Eliminates variable \p Var from \p Rows in place. Returns false on
  /// coefficient overflow.
  static bool eliminate(std::vector<Row> &Rows, unsigned Var);

  /// Normalizes a row by the gcd of its coefficients. Returns false if a
  /// coefficient does not fit int64.
  static bool normalize(Row &R);

  unsigned NumVars;
  std::vector<Row> Rows;
};

} // namespace wcs

#endif // WCS_POLY_FOURIERMOTZKIN_H
