//===- wcs/frontend/Parser.h - Recursive-descent SCoP parser ----*- C++ -*-===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Single-pass recursive-descent parser that lowers the loop-nest dialect
/// directly into a ScopBuilder (no intermediate AST: the only semantic
/// content of a statement is the ordered sequence of array accesses it
/// performs, which the parser can emit on the fly).
///
//===----------------------------------------------------------------------===//

#ifndef WCS_FRONTEND_PARSER_H
#define WCS_FRONTEND_PARSER_H

#include "wcs/frontend/Frontend.h"
#include "wcs/frontend/Lexer.h"
#include "wcs/scop/Builder.h"

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace wcs {

/// Parses one kernel; use via parseScop() (Frontend.h).
class Parser {
public:
  Parser(const std::string &Source,
         const std::map<std::string, int64_t> &Params, std::string Name);

  ParseResult run(int64_t AlignBytes);

private:
  // -- Symbols -----------------------------------------------------------
  struct Symbol {
    enum class Kind { Param, Array, Scalar, Iterator };
    Kind K = Kind::Param;
    int64_t ParamValue = 0; ///< Param: bound value.
    unsigned ArrayId = 0;   ///< Array/Scalar: ScopBuilder id.
    unsigned NumDims = 0;   ///< Array: declared dimensionality.
    AffineExpr IterExpr;    ///< Iterator: source iterator in terms of the
                            ///< canonical dims (handles -- and +=c loops).
  };

  // -- Token stream ------------------------------------------------------
  void bump();
  bool expect(Token::Kind K, const char *Context);
  bool expectIdent(std::string &Out, const char *Context);

  // -- Diagnostics -------------------------------------------------------
  bool fail(SrcLoc Loc, std::string Msg);

  // -- Nesting limit -----------------------------------------------------
  /// Deepest nesting of recursive productions (statements inside blocks,
  /// guards and loops; parenthesized, negated and call-argument
  /// subexpressions) the parser accepts. Deeper input is refused with a
  /// located diagnostic instead of exhausting the stack, like
  /// support/Json.cpp's MaxDepth.
  static constexpr unsigned MaxNestingDepth = 100;

  /// One level of a recursive production, held while it parses. ok() is
  /// false, with the diagnostic recorded, past MaxNestingDepth.
  class NestingScope {
  public:
    explicit NestingScope(Parser &P);
    ~NestingScope() { --P.Nesting; }
    NestingScope(const NestingScope &) = delete;
    NestingScope &operator=(const NestingScope &) = delete;
    bool ok() const { return P.Nesting <= MaxNestingDepth; }

  private:
    Parser &P;
  };

  // -- Declarations and statements (Lowering.cpp) -------------------------
  bool parseTopLevel();
  bool parseParamDecl();
  bool parseVarDecl(unsigned ElemBytes);
  bool parseStmt();
  bool parseFor();
  bool parseIf();
  bool parseBlock();
  bool parseAssign();

  // -- Expressions (Parser.cpp) -------------------------------------------
  /// Affine expressions over the canonical iterator dims at current depth.
  std::optional<AffineExpr> parseAffine();
  std::optional<AffineExpr> parseAffineAdditive();
  std::optional<AffineExpr> parseAffineTerm();
  std::optional<AffineExpr> parseAffinePrimary();

  /// Constant-folds an affine expression; error if not constant.
  std::optional<int64_t> parseConstant(const char *Context);

  /// Value expressions: emits reads for array/scalar operands.
  bool parseValueExpr();
  bool parseValueAdditive();
  bool parseValueTerm();
  bool parseValueUnary();
  bool parseValuePrimary();

  /// A conjunction of affine comparisons; produces one Constraint per
  /// comparison (x != y and || are rejected with a diagnostic).
  bool parseCondition(std::vector<Constraint> &Out);
  bool parseComparison(std::vector<Constraint> &Out);

  /// Parses `name[e]...[e]`; returns the symbol and affine subscripts.
  bool parseLValue(Symbol &SymOut, std::vector<AffineExpr> &SubsOut,
                   SrcLoc &LocOut);

  const Symbol *lookup(const std::string &Name) const;
  bool isTypeKeyword(const std::string &Ident, unsigned &ElemBytes) const;

  Lexer Lex;
  Token Tok;
  std::map<std::string, int64_t> Params;
  std::map<std::string, Symbol> Syms;
  ScopBuilder Builder;
  bool SeenStmt = false;
  unsigned Nesting = 0; ///< Open NestingScopes.
  std::string Error;
  SrcLoc ErrorLoc;
  /// Source of each loop (its `for`), access (its array name) and array
  /// (its declared name), in the order the builder got them: the ids a
  /// ScopBuilder::finish refusal names.
  std::vector<SrcLoc> LoopLocs, AccessLocs, ArrayLocs;
};

} // namespace wcs

#endif // WCS_FRONTEND_PARSER_H
