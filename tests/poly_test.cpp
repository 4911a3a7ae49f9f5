//===- tests/poly_test.cpp - Polyhedral substrate unit tests -------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "wcs/poly/AffineExpr.h"
#include "wcs/poly/ConvexSet.h"
#include "wcs/poly/FourierMotzkin.h"

#include <gtest/gtest.h>

using namespace wcs;

namespace {

// Convenience: e = c0 + sum ci * xi over N dims.
AffineExpr expr(std::vector<int64_t> Coeffs, int64_t Const) {
  AffineExpr E(static_cast<unsigned>(Coeffs.size()));
  for (unsigned I = 0; I < Coeffs.size(); ++I)
    E.setCoeff(I, Coeffs[I]);
  E.setConstantTerm(Const);
  return E;
}

TEST(AffineExpr, EvalAndArithmetic) {
  AffineExpr E = expr({2, -3}, 5); // 2x - 3y + 5
  EXPECT_EQ(E.eval(IterVec{4, 1}), 10);
  EXPECT_EQ((E * 2).eval(IterVec{4, 1}), 20);
  EXPECT_EQ((E - E).eval(IterVec{7, 9}), 0);
  AffineExpr F = E + AffineExpr::dim(2, 1); // 2x - 2y + 5
  EXPECT_EQ(F.eval(IterVec{0, 1}), 3);
  EXPECT_FALSE(E.isConstant());
  EXPECT_TRUE(AffineExpr::constant(3, 9).isConstant());
}

TEST(AffineExpr, SameLinearPartIgnoresConstant) {
  EXPECT_TRUE(expr({1, 2}, 0).sameLinearPart(expr({1, 2}, 50)));
  EXPECT_FALSE(expr({1, 2}, 0).sameLinearPart(expr({1, 3}, 0)));
  // Extension with zero coefficients still matches.
  EXPECT_TRUE(expr({1}, 4).sameLinearPart(expr({1, 0}, 9)));
}

TEST(AffineExpr, EvalUnderDeeperIterators) {
  AffineExpr E = expr({1}, 0);
  EXPECT_EQ(E.eval(IterVec{5, 77, 99}), 5) << "extra dims must be ignored";
}

TEST(AffineExpr, Printing) {
  EXPECT_EQ(expr({1, -2}, 3).str({"i", "j"}), "i - 2*j + 3");
  EXPECT_EQ(expr({0, 0}, -7).str(), "-7");
  EXPECT_EQ(expr({-1, 0}, 0).str({"i", "j"}), "-i");
}

TEST(ConvexSet, MembershipAndBounds) {
  // Triangular domain: 0 <= i < 10, i <= j < 10.
  ConvexSet S(2);
  S.addConstraint(Constraint::ge(expr({1, 0}, 0)));   // i >= 0
  S.addConstraint(Constraint::ge(expr({-1, 0}, 9)));  // i <= 9
  S.addConstraint(Constraint::ge(expr({-1, 1}, 0)));  // j >= i
  S.addConstraint(Constraint::ge(expr({0, -1}, 9)));  // j <= 9

  EXPECT_TRUE(S.contains(IterVec{3, 3}));
  EXPECT_TRUE(S.contains(IterVec{0, 9}));
  EXPECT_FALSE(S.contains(IterVec{4, 3}));
  EXPECT_FALSE(S.contains(IterVec{10, 10}));

  auto B = S.lastDimBounds(IterVec{4});
  ASSERT_TRUE(B.has_value());
  EXPECT_EQ(B->Lo, 4);
  EXPECT_EQ(B->Hi, 9);

  auto B2 = S.lastDimBounds(IterVec{20}); // i out of range: empty j range?
  ASSERT_TRUE(B2.has_value());
  // Constraints on i alone (dims below last) make the set empty for i=20.
  EXPECT_TRUE(B2->empty());
}

TEST(ConvexSet, EqualityConstraints) {
  ConvexSet S(1);
  S.addConstraint(Constraint::eq(expr({2}, -6))); // 2i == 6
  auto B = S.lastDimBounds(IterVec{});
  ASSERT_TRUE(B.has_value());
  EXPECT_EQ(B->Lo, 3);
  EXPECT_EQ(B->Hi, 3);

  ConvexSet T(1);
  T.addConstraint(Constraint::eq(expr({2}, -5))); // 2i == 5: no int solution
  auto BT = T.lastDimBounds(IterVec{});
  ASSERT_TRUE(BT.has_value());
  EXPECT_TRUE(BT->empty());
}

TEST(ConvexSet, UnboundedDomainReportsNullopt) {
  ConvexSet S(1);
  S.addConstraint(Constraint::ge(expr({1}, 0))); // i >= 0 only
  EXPECT_FALSE(S.lastDimBounds(IterVec{}).has_value());
}

TEST(FourierMotzkin, RationalEmptiness) {
  LinearSystem S(2);
  S.addGE({1, 1}, -10); // x + y >= 10
  S.addGE({-1, 0}, 3);  // x <= 3
  S.addGE({0, -1}, 3);  // y <= 3
  EXPECT_EQ(S.feasible(), FMStatus::Infeasible);

  LinearSystem T(2);
  T.addGE({1, 1}, -6); // x + y >= 6
  T.addGE({-1, 0}, 3); // x <= 3
  T.addGE({0, -1}, 3); // y <= 3
  EXPECT_EQ(T.feasible(), FMStatus::Feasible);
}

TEST(FourierMotzkin, MinimizeSimpleLP) {
  // min k s.t. k >= 1, 3k >= y, 0 <= y <= 10, y >= 8  => k >= 8/3.
  LinearSystem Sys(2); // vars: k, y
  Sys.addGE({1, 0}, -1);  // k - 1 >= 0
  Sys.addGE({3, -1}, 0);  // 3k - y >= 0
  Sys.addGE({0, 1}, 0);   // y >= 0
  Sys.addGE({0, -1}, 10); // y <= 10
  Sys.addGE({0, 1}, -8);  // y >= 8
  std::optional<Rational> Min;
  ASSERT_EQ(Sys.minimize(0, Min), FMStatus::Feasible);
  ASSERT_TRUE(Min.has_value());
  EXPECT_EQ(Min->Num, 8);
  EXPECT_EQ(Min->Den, 3);
  EXPECT_EQ(Min->ceil(), 3);
  EXPECT_EQ(Min->floor(), 2);
}

TEST(FourierMotzkin, MinimizeInfeasible) {
  LinearSystem Sys(1);
  Sys.addGE({1}, -5);  // x >= 5
  Sys.addGE({-1}, 2);  // x <= 2
  std::optional<Rational> Min;
  EXPECT_EQ(Sys.minimize(0, Min), FMStatus::Infeasible);
}

TEST(FourierMotzkin, MinimizeUnboundedBelow) {
  LinearSystem Sys(1);
  Sys.addGE({-1}, 100); // x <= 100
  std::optional<Rational> Min;
  ASSERT_EQ(Sys.minimize(0, Min), FMStatus::Feasible);
  EXPECT_FALSE(Min.has_value());
}

TEST(FourierMotzkin, EqualityRows) {
  // x == 2y, y == 3  =>  min x == 6.
  LinearSystem Sys(2);
  Sys.addEQ({1, -2}, 0);
  Sys.addEQ({0, 1}, -3);
  std::optional<Rational> Min;
  ASSERT_EQ(Sys.minimize(0, Min), FMStatus::Feasible);
  ASSERT_TRUE(Min.has_value());
  EXPECT_EQ(*Min, Rational::fromInt(6));
}

TEST(Rational, NormalizationAndOrder) {
  Rational A(6, -4); // -3/2
  EXPECT_EQ(A.Num, -3);
  EXPECT_EQ(A.Den, 2);
  EXPECT_EQ(A.floor(), -2);
  EXPECT_EQ(A.ceil(), -1);
  EXPECT_LT(A, Rational(0, 1));
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_LE(Rational(2, 4), Rational(1, 2));
}

} // namespace
