//===- tests/frontend_test.cpp - Frontend (mini-pet) unit tests ----------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "wcs/frontend/Frontend.h"
#include "wcs/support/IterVec.h"

#include <gtest/gtest.h>

#include <string>

using namespace wcs;

namespace {

ScopProgram parseOk(const std::string &Src,
                    std::map<std::string, int64_t> Params = {}) {
  ParseResult R = parseScop(Src, Params, "test");
  EXPECT_TRUE(R.ok()) << R.message();
  return std::move(R.Program);
}

std::string parseErr(const std::string &Src,
                     std::map<std::string, int64_t> Params = {}) {
  ParseResult R = parseScop(Src, Params, "test");
  EXPECT_FALSE(R.ok()) << "expected a parse error";
  return R.Error;
}

TEST(Frontend, PaperFig1Stencil) {
  ScopProgram P = parseOk(R"(
    int A[1000]; int B[1000];
    for (int i = 1; i < 999; i++)
      B[i-1] = A[i-1] + A[i];
  )");
  ASSERT_EQ(P.accesses().size(), 3u);
  // Reads in right-hand-side order, then the write.
  EXPECT_EQ(P.accesses()[0]->AKind, AccessKind::Read);
  EXPECT_EQ(P.array(P.accesses()[0]->ArrayId).Name, "A");
  EXPECT_EQ(P.accesses()[1]->AKind, AccessKind::Read);
  EXPECT_EQ(P.accesses()[2]->AKind, AccessKind::Write);
  EXPECT_EQ(P.array(P.accesses()[2]->ArrayId).Name, "B");
  // A[i-1]: address = base + 4*(i-1).
  const AccessNode *A0 = P.accesses()[0];
  EXPECT_EQ(A0->Address.eval(IterVec{5}),
            P.array(A0->ArrayId).BaseAddr + 4 * 4);
  // Loop domain: i in [1, 998].
  const LoopNode *L = P.loops()[0];
  auto B = L->Domain.lastDimBounds(IterVec{});
  ASSERT_TRUE(B.has_value());
  EXPECT_EQ(B->Lo, 1);
  EXPECT_EQ(B->Hi, 998);
}

TEST(Frontend, ParameterBindingAndDefaults) {
  ScopProgram P = parseOk(R"(
    param N;
    param M = 7;
    double A[N][M];
    for (i = 0; i < N; i++)
      A[i][M-1] = 0.0;
  )",
                          {{"N", 10}});
  EXPECT_EQ(P.array(0).DimSizes, (std::vector<int64_t>{10, 7}));
  const AccessNode *W = P.accesses()[0];
  EXPECT_EQ(W->Address.eval(IterVec{2}),
            P.array(0).BaseAddr + 8 * (2 * 7 + 6));
  // Binding overrides the default.
  ScopProgram P2 = parseOk("param M = 7; double A[M]; A[0] = 1.0;",
                           {{"M", 3}});
  EXPECT_EQ(P2.array(0).DimSizes, (std::vector<int64_t>{3}));

  EXPECT_NE(parseErr("param N; double A[N]; A[0]=1.0;").find("no binding"),
            std::string::npos);
}

TEST(Frontend, CompoundAssignmentReadsLhsFirst) {
  ScopProgram P = parseOk(R"(
    double C[10]; double A[10];
    for (i = 0; i < 10; i++)
      C[i] += A[i];
  )");
  ASSERT_EQ(P.accesses().size(), 3u);
  EXPECT_EQ(P.array(P.accesses()[0]->ArrayId).Name, "C");
  EXPECT_EQ(P.accesses()[0]->AKind, AccessKind::Read);
  EXPECT_EQ(P.array(P.accesses()[1]->ArrayId).Name, "A");
  EXPECT_EQ(P.accesses()[2]->AKind, AccessKind::Write);
}

TEST(Frontend, TriangularLoopAndFig4Order) {
  ScopProgram P = parseOk(R"(
    param N = 100;
    double c[N]; double A[N][N]; double x[N];
    for (i = 0; i < N; i++) {
      c[i] = 0.0;
      for (j = i; j < N; j++)
        c[i] = c[i] + A[i][j] * x[j];
    }
  )");
  ASSERT_EQ(P.accesses().size(), 5u);
  EXPECT_EQ(P.array(P.accesses()[1]->ArrayId).Name, "c"); // read c[i]
  EXPECT_EQ(P.array(P.accesses()[2]->ArrayId).Name, "A");
  EXPECT_EQ(P.array(P.accesses()[3]->ArrayId).Name, "x");
  EXPECT_EQ(P.array(P.accesses()[4]->ArrayId).Name, "c"); // write c[i]
  const LoopNode *Lj = P.loops()[1];
  EXPECT_FALSE(Lj->Domain.contains(IterVec{5, 4}));
  EXPECT_TRUE(Lj->Domain.contains(IterVec{5, 5}));
}

TEST(Frontend, DescendingLoopIsNormalized) {
  // for (i = 8; i >= 2; i--) A[i] = 0: canonical t in [0, 6], i = 8 - t.
  ScopProgram P = parseOk(R"(
    double A[10];
    for (i = 8; i >= 2; i--)
      A[i] = 0.0;
  )");
  const LoopNode *L = P.loops()[0];
  auto B = L->Domain.lastDimBounds(IterVec{});
  ASSERT_TRUE(B.has_value());
  EXPECT_EQ(B->Lo, 0);
  EXPECT_EQ(B->Hi, 6);
  // At t = 0 the write touches A[8].
  const AccessNode *W = P.accesses()[0];
  EXPECT_EQ(W->Address.eval(IterVec{0}), P.array(0).BaseAddr + 8 * 8);
  EXPECT_EQ(W->Address.eval(IterVec{6}), P.array(0).BaseAddr + 8 * 2);
}

TEST(Frontend, StridedLoopRequiresConstantBounds) {
  ScopProgram P = parseOk(R"(
    double A[100];
    for (i = 0; i < 100; i += 3)
      A[i] = 0.0;
  )");
  const LoopNode *L = P.loops()[0];
  auto B = L->Domain.lastDimBounds(IterVec{});
  ASSERT_TRUE(B.has_value());
  EXPECT_EQ(B->Hi - B->Lo + 1, 34); // i = 0,3,...,99.
  const AccessNode *W = P.accesses()[0];
  EXPECT_EQ(W->Address.eval(IterVec{2}), P.array(0).BaseAddr + 8 * 6);

  std::string E = parseErr(R"(
    param N = 50; double A[100];
    for (i = 0; i < N; i++)
      for (j = i; j < 100; j += 2)
        A[j] = 0.0;
  )");
  EXPECT_NE(E.find("constant bounds"), std::string::npos);
}

TEST(Frontend, GuardsBecomeDomainConstraints) {
  ScopProgram P = parseOk(R"(
    double A[50];
    for (i = 0; i < 50; i++)
      if (i >= 10 && i < 40)
        A[i] = 0.0;
  )");
  const AccessNode *W = P.accesses()[0];
  EXPECT_TRUE(W->Guarded);
  EXPECT_FALSE(W->Domain.contains(IterVec{9}));
  EXPECT_TRUE(W->Domain.contains(IterVec{10}));
  EXPECT_FALSE(W->Domain.contains(IterVec{40}));
}

TEST(Frontend, CallsReadTheirArguments) {
  ScopProgram P = parseOk(R"(
    double A[10]; double B[10]; double n;
    for (i = 0; i < 10; i++)
      B[i] = max(A[i], sqrt(n));
  )");
  ASSERT_EQ(P.accesses().size(), 3u);
  EXPECT_EQ(P.array(P.accesses()[0]->ArrayId).Name, "A");
  EXPECT_EQ(P.array(P.accesses()[1]->ArrayId).Name, "n");
  EXPECT_TRUE(P.array(P.accesses()[1]->ArrayId).isScalar());
  EXPECT_EQ(P.accesses()[2]->AKind, AccessKind::Write);
}

TEST(Frontend, ScalarReadsAndWrites) {
  ScopProgram P = parseOk(R"(
    double s; double A[10];
    s = 0.0;
    for (i = 0; i < 10; i++)
      s += A[i];
  )");
  // s=0: write s. Loop: read s, read A[i], write s.
  ASSERT_EQ(P.accesses().size(), 4u);
  EXPECT_EQ(P.accesses()[0]->AKind, AccessKind::Write);
  EXPECT_EQ(P.accesses()[0]->Depth, 0u);
  EXPECT_EQ(P.accesses()[1]->AKind, AccessKind::Read);
  EXPECT_TRUE(P.array(P.accesses()[1]->ArrayId).isScalar());
}

TEST(Frontend, IteratorShadowingAcrossNests) {
  ScopProgram P = parseOk(R"(
    double A[10];
    for (i = 0; i < 10; i++)
      A[i] = 0.0;
    for (i = 0; i < 5; i++)
      A[i+1] = 1.0;
  )");
  EXPECT_EQ(P.loops().size(), 2u);
  EXPECT_EQ(P.accesses()[1]->Address.eval(IterVec{3}),
            P.array(0).BaseAddr + 8 * 4);
}

TEST(Frontend, Diagnostics) {
  EXPECT_NE(parseErr("double A[10]; A[0] = B[0];").find("undeclared"),
            std::string::npos);
  EXPECT_NE(parseErr("double A[10]; for (i=0;i<10;i++) A[i*i] = 0.0;")
                .find("non-affine"),
            std::string::npos);
  EXPECT_NE(parseErr("double A[10]; A[0][1] = 0.0;").find("subscripts"),
            std::string::npos);
  EXPECT_NE(
      parseErr("double A[4]; for (i=0;i<4;i++) if (i == 1 || i == 2) "
               "A[i]=0.0;")
          .find("'||'"),
      std::string::npos);
  EXPECT_NE(parseErr("param N = 4; N = 5;").find("read-only"),
            std::string::npos);
  EXPECT_NE(parseErr("double A[10]; for (i = 0; i < 10; i--) A[i]=0.0;")
                .find("descending"),
            std::string::npos);
  EXPECT_NE(parseErr("double A[10]; A[0] = 1.0").find("';'"),
            std::string::npos);
  EXPECT_NE(parseErr("double A[0]; A[0]=1.0;").find("extent"),
            std::string::npos);
  // Lexer-level diagnostics propagate with locations.
  ParseResult R = parseScop("double A[10]; A[0] = #;", {}, "t");
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(R.ErrorLoc.Line, 1);
}

TEST(Frontend, ErrorLocationsAreMeaningful) {
  ParseResult R = parseScop("double A[10];\nfor (i = 0; i < 10; i++)\n"
                            "  A[j] = 0.0;",
                            {}, "t");
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.ErrorLoc.Line, 3);
  EXPECT_NE(R.message().find("line 3"), std::string::npos);
}

// Hostile nesting is refused while parsing, with a located diagnostic:
// with its recursion unbounded, the parser would exhaust the stack on
// each shape below.
TEST(Frontend, DeepNestingIsRefusedAtParseTime) {
  const size_t Deep = 100000;
  const std::string Open(Deep, '('), Close(Deep, ')');
  std::string Negations, Calls;
  for (size_t I = 0; I < Deep; ++I) {
    Negations += "- ";
    Calls += "f(";
  }
  const std::string Sources[] = {
      // Parentheses and unary minus in a subscript (affine grammar).
      "double A[10];\nA[" + Open + "0" + Close + "] = 0.0;",
      "double A[10];\nA[" + Negations + "0] = 0.0;",
      // Parentheses around a value expression, and nested calls.
      "double A[10];\nA[0] = " + Open + "1.0" + Close + ";",
      "double A[10];\nA[0] = " + Calls + "1.0" + Close + ";",
      // Blocks.
      "double A[10];\n" + std::string(Deep, '{') + "A[0] = 0.0;" +
          std::string(Deep, '}'),
  };
  for (const std::string &Src : Sources) {
    ParseResult R = parseScop(Src, {}, "t");
    ASSERT_FALSE(R.ok());
    EXPECT_NE(R.Error.find("nesting deeper than 100 levels"),
              std::string::npos)
        << R.Error;
    EXPECT_EQ(R.ErrorLoc.Line, 2);
    EXPECT_GT(R.ErrorLoc.Col, 1);
  }
  // Ordinary nesting stays well inside the limit.
  std::string Fifty = std::string(50, '(') + "i" + std::string(50, ')');
  parseOk("double A[10]; for (i = 0; i < 10; i++) A[" + Fifty +
          "] = -(-(" + Fifty + "));");
}

// MaxLoopDepth is enforced as each `for` opens, so a deep nest is
// refused at its first excess loop instead of being lowered first, at a
// time and memory cost that grows with its depth.
TEST(Frontend, LoopNestDepthIsCheckedWhenALoopOpens) {
  auto Nest = [](unsigned Depth) {
    std::string Src = "double A[10];\n";
    for (unsigned D = 0; D < Depth; ++D) {
      std::string I = "i" + std::to_string(D);
      Src += "for (" + I + " = 0; " + I + " < 2; " + I + "++)\n";
    }
    return Src + "A[0] = 0.0;\n";
  };
  parseOk(Nest(MaxLoopDepth));
  for (unsigned Depth : {MaxLoopDepth + 1, 500u, 2000u}) {
    ParseResult R = parseScop(Nest(Depth), {}, "t");
    ASSERT_FALSE(R.ok()) << Depth;
    EXPECT_NE(R.Error.find("MaxLoopDepth"), std::string::npos) << R.Error;
    // The first excess `for` opens line MaxLoopDepth + 2.
    EXPECT_EQ(R.ErrorLoc.Line, static_cast<int>(MaxLoopDepth) + 2);
    EXPECT_EQ(R.ErrorLoc.Col, 1);
  }
}

TEST(Frontend, CommentsAndWhitespace) {
  ScopProgram P = parseOk(R"(
    // array declaration
    double A[10]; /* block
                     comment */
    for (i = 0; i < 10; i++)
      A[i] = 0.0; // trailing
  )");
  EXPECT_EQ(P.accesses().size(), 1u);
}

TEST(Frontend, DivisionByConstantInAffineContext) {
  ScopProgram P = parseOk(R"(
    param N = 64;
    double A[N];
    for (i = 0; i < N / 2; i++)
      A[2*i] = 0.0;
  )");
  auto B = P.loops()[0]->Domain.lastDimBounds(IterVec{});
  ASSERT_TRUE(B.has_value());
  EXPECT_EQ(B->Hi, 31);
  EXPECT_NE(parseErr("double A[10]; for (i=0;i<10;i++) A[i/2] = 0.0;")
                .find("constant"),
            std::string::npos);
}

/// Programs whose iterator, address or size arithmetic can overflow
/// int64 are refused when they are built, with the loop or the array
/// named; every walk and both simulators then stay in range.
TEST(Frontend, Int64OverflowIsRefused) {
  EXPECT_EQ(parseErr("double A[1];"
                     "for (i = 9223372036854775806;"
                     "     i <= 9223372036854775807; i++) A[0] = 0;"),
            "loop 'i' iterates outside [-2^62, 2^62)");
  EXPECT_EQ(parseErr("double A[16];"
                     "for (i = -9223372036854775807;"
                     "     i < -9223372036854775800; i++) A[i] = 0;"),
            "loop 'i' iterates outside [-2^62, 2^62)");
  EXPECT_EQ(parseErr("double A[16];"
                     "for (i = 0; i < 4; i++) A[9223372036854775807*i] = 0;"),
            "access to 'A' overflows int64 address arithmetic");
  EXPECT_EQ(parseErr("double A[4611686018427387904][4];"
                     "for (i = 0; i < 4; i++) A[i][0] = 0;"),
            "array 'A' does not fit in int64 addresses");
  EXPECT_EQ(parseErr("double A[16];"
                     "for (i = 0; i < 4; i++) A[576460752303423488*i] = 0;"),
            "access to 'A' leaves the address range [-2^62, 2^62)");
  // Bounds are taken over the box hull of the enclosing loops.
  EXPECT_EQ(parseErr("double A[16];"
                     "for (j = 0; j < 2; j++)"
                     "  for (i = 0; i <= 4611686018427387904*j; i++)"
                     "    A[0] = 0;"),
            "loop 'i' iterates outside [-2^62, 2^62)");
  EXPECT_EQ(parseErr("double A[16];"
                     "for (j = 0; j < 4; j++)"
                     "  for (i = 0; i < 4611686018427387904*j; i++) A[0] = 0;"),
            "loop 'i' has bounds that overflow int64");
  // The limits themselves are accepted: a 2^62-iteration loop, and an
  // out-of-bounds subscript that stays in the address range.
  ScopProgram P = parseOk("param N; double A[1];"
                          "for (i = 0; i < N; i++) A[0] = 0;",
                          {{"N", int64_t(1) << 62}});
  EXPECT_EQ(P.loops()[0]->Domain.lastDimBounds(IterVec{})->Hi,
            (int64_t(1) << 62) - 1);
  parseOk("double A[16]; for (i = 0; i < 4; i++) A[i+1000000] = 0;");
}

} // namespace
