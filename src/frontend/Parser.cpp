//===- frontend/Parser.cpp - Expressions, symbols, entry point ------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "wcs/frontend/Parser.h"

#include <cassert>
#include <sstream>
#include <string>

using namespace wcs;

std::string ParseResult::message() const {
  if (ok())
    return "";
  std::ostringstream OS;
  OS << "line " << ErrorLoc.Line << ", column " << ErrorLoc.Col << ": "
     << Error;
  return OS.str();
}

ParseResult wcs::parseScop(const std::string &Source,
                           const std::map<std::string, int64_t> &Params,
                           const std::string &Name, int64_t AlignBytes) {
  Parser P(Source, Params, Name);
  return P.run(AlignBytes);
}

Parser::Parser(const std::string &Source,
               const std::map<std::string, int64_t> &Params, std::string Name)
    : Lex(Source), Params(Params), Builder(std::move(Name)) {}

ParseResult Parser::run(int64_t AlignBytes) {
  ParseResult R;
  bump();
  if (parseTopLevel()) {
    std::string FinishErr;
    ScopEntity Refused;
    R.Program = Builder.finish(&FinishErr, AlignBytes, &Refused);
    R.Error = FinishErr;
    // Report a refusal where its loop, access or array is written.
    const std::vector<SrcLoc> *Locs = nullptr;
    switch (Refused.K) {
    case ScopEntity::Kind::Loop:
      Locs = &LoopLocs;
      break;
    case ScopEntity::Kind::Access:
      Locs = &AccessLocs;
      break;
    case ScopEntity::Kind::Array:
      Locs = &ArrayLocs;
      break;
    case ScopEntity::Kind::None:
      break;
    }
    if (Locs && Refused.Id >= 0 &&
        static_cast<size_t>(Refused.Id) < Locs->size())
      R.ErrorLoc = (*Locs)[static_cast<size_t>(Refused.Id)];
  } else {
    R.Error = Error;
    R.ErrorLoc = ErrorLoc;
  }
  return R;
}

// -- Token stream ---------------------------------------------------------

void Parser::bump() { Tok = Lex.next(); }

bool Parser::expect(Token::Kind K, const char *Context) {
  if (Tok.is(Token::Kind::Error))
    return fail(Tok.Loc, Tok.Text);
  if (!Tok.is(K)) {
    std::ostringstream OS;
    OS << "expected " << tokenKindName(K) << " " << Context << ", found "
       << tokenKindName(Tok.K);
    if (Tok.is(Token::Kind::Ident))
      OS << " '" << Tok.Text << "'";
    return fail(Tok.Loc, OS.str());
  }
  bump();
  return true;
}

bool Parser::expectIdent(std::string &Out, const char *Context) {
  if (!Tok.is(Token::Kind::Ident)) {
    std::ostringstream OS;
    OS << "expected identifier " << Context << ", found "
       << tokenKindName(Tok.K);
    return fail(Tok.Loc, OS.str());
  }
  Out = Tok.Text;
  bump();
  return true;
}

bool Parser::fail(SrcLoc Loc, std::string Msg) {
  if (Error.empty()) { // Keep the first error.
    Error = std::move(Msg);
    ErrorLoc = Loc;
  }
  return false;
}

Parser::NestingScope::NestingScope(Parser &P) : P(P) {
  if (++P.Nesting > MaxNestingDepth)
    P.fail(P.Tok.Loc, "nesting deeper than " +
                          std::to_string(MaxNestingDepth) + " levels");
}

const Parser::Symbol *Parser::lookup(const std::string &Name) const {
  auto It = Syms.find(Name);
  return It == Syms.end() ? nullptr : &It->second;
}

bool Parser::isTypeKeyword(const std::string &Ident,
                           unsigned &ElemBytes) const {
  if (Ident == "double" || Ident == "long") {
    ElemBytes = 8;
    return true;
  }
  if (Ident == "float" || Ident == "int") {
    ElemBytes = 4;
    return true;
  }
  return false;
}

// -- Affine expressions ---------------------------------------------------

std::optional<AffineExpr> Parser::parseAffine() {
  return parseAffineAdditive();
}

std::optional<AffineExpr> Parser::parseAffineAdditive() {
  std::optional<AffineExpr> L = parseAffineTerm();
  if (!L)
    return std::nullopt;
  while (Tok.is(Token::Kind::Plus) || Tok.is(Token::Kind::Minus)) {
    bool Neg = Tok.is(Token::Kind::Minus);
    bump();
    std::optional<AffineExpr> R = parseAffineTerm();
    if (!R)
      return std::nullopt;
    *L = Neg ? (*L - *R) : (*L + *R);
  }
  return L;
}

std::optional<AffineExpr> Parser::parseAffineTerm() {
  std::optional<AffineExpr> L = parseAffinePrimary();
  if (!L)
    return std::nullopt;
  for (;;) {
    if (Tok.is(Token::Kind::Star)) {
      SrcLoc Loc = Tok.Loc;
      bump();
      std::optional<AffineExpr> R = parseAffinePrimary();
      if (!R)
        return std::nullopt;
      if (L->isConstant())
        *L = *R * L->constantTerm();
      else if (R->isConstant())
        *L = *L * R->constantTerm();
      else {
        fail(Loc, "non-affine product of two iterator expressions");
        return std::nullopt;
      }
      continue;
    }
    if (Tok.is(Token::Kind::Slash) || Tok.is(Token::Kind::Percent)) {
      bool IsMod = Tok.is(Token::Kind::Percent);
      SrcLoc Loc = Tok.Loc;
      bump();
      std::optional<AffineExpr> R = parseAffinePrimary();
      if (!R)
        return std::nullopt;
      if (!L->isConstant() || !R->isConstant() || R->constantTerm() == 0) {
        fail(Loc, IsMod ? "'%' in an affine expression requires constant "
                          "operands"
                        : "'/' in an affine expression requires constant "
                          "operands");
        return std::nullopt;
      }
      int64_t V = IsMod ? L->constantTerm() % R->constantTerm()
                        : L->constantTerm() / R->constantTerm();
      *L = AffineExpr::constant(Builder.depth(), V);
      continue;
    }
    return L;
  }
}

std::optional<AffineExpr> Parser::parseAffinePrimary() {
  NestingScope Scope(*this);
  if (!Scope.ok())
    return std::nullopt;
  if (Tok.is(Token::Kind::Error)) {
    fail(Tok.Loc, Tok.Text);
    return std::nullopt;
  }
  if (Tok.is(Token::Kind::IntLit)) {
    AffineExpr E = AffineExpr::constant(Builder.depth(), Tok.IntValue);
    bump();
    return E;
  }
  if (Tok.is(Token::Kind::Minus)) {
    bump();
    std::optional<AffineExpr> E = parseAffinePrimary();
    if (!E)
      return std::nullopt;
    return -*E;
  }
  if (Tok.is(Token::Kind::LParen)) {
    bump();
    std::optional<AffineExpr> E = parseAffine();
    if (!E)
      return std::nullopt;
    if (!expect(Token::Kind::RParen, "to close a parenthesized expression"))
      return std::nullopt;
    return E;
  }
  if (Tok.is(Token::Kind::Ident)) {
    const Symbol *S = lookup(Tok.Text);
    if (!S) {
      fail(Tok.Loc, "undeclared identifier '" + Tok.Text +
                        "' in an affine expression");
      return std::nullopt;
    }
    SrcLoc Loc = Tok.Loc;
    std::string Name = Tok.Text;
    bump();
    switch (S->K) {
    case Symbol::Kind::Param:
      return AffineExpr::constant(Builder.depth(), S->ParamValue);
    case Symbol::Kind::Iterator:
      return S->IterExpr.extendedTo(Builder.depth());
    case Symbol::Kind::Array:
    case Symbol::Kind::Scalar:
      fail(Loc, "variable '" + Name +
                    "' is not affine (only iterators, parameters and "
                    "constants may appear in bounds and subscripts)");
      return std::nullopt;
    }
  }
  fail(Tok.Loc, std::string("expected an affine expression, found ") +
                    tokenKindName(Tok.K));
  return std::nullopt;
}

std::optional<int64_t> Parser::parseConstant(const char *Context) {
  SrcLoc Loc = Tok.Loc;
  std::optional<AffineExpr> E = parseAffine();
  if (!E)
    return std::nullopt;
  if (!E->isConstant()) {
    fail(Loc, std::string("expected a constant expression ") + Context);
    return std::nullopt;
  }
  return E->constantTerm();
}

// -- Conditions ------------------------------------------------------------

bool Parser::parseCondition(std::vector<Constraint> &Out) {
  if (!parseComparison(Out))
    return false;
  while (Tok.is(Token::Kind::AndAnd)) {
    bump();
    if (!parseComparison(Out))
      return false;
  }
  if (Tok.is(Token::Kind::OrOr))
    return fail(Tok.Loc, "disjunctive guards ('||') are not supported; "
                         "split the statement into separate guarded "
                         "statements");
  return true;
}

bool Parser::parseComparison(std::vector<Constraint> &Out) {
  std::optional<AffineExpr> L = parseAffine();
  if (!L)
    return false;
  Token::Kind Op = Tok.K;
  SrcLoc Loc = Tok.Loc;
  switch (Op) {
  case Token::Kind::Lt:
  case Token::Kind::Le:
  case Token::Kind::Gt:
  case Token::Kind::Ge:
  case Token::Kind::EqEq:
    break;
  case Token::Kind::NotEq:
    return fail(Loc, "'!=' guards are not supported (they produce "
                     "disjunctive domains); rewrite with '<' / '>'");
  default:
    return fail(Loc, std::string("expected a comparison operator, found ") +
                         tokenKindName(Op));
  }
  bump();
  std::optional<AffineExpr> R = parseAffine();
  if (!R)
    return false;
  switch (Op) {
  case Token::Kind::Lt: // L < R  <=>  R - L - 1 >= 0
    Out.push_back(Constraint::ge(*R - *L + AffineExpr::constant(
                                               Builder.depth(), -1)));
    break;
  case Token::Kind::Le:
    Out.push_back(Constraint::ge(*R - *L));
    break;
  case Token::Kind::Gt:
    Out.push_back(Constraint::ge(*L - *R + AffineExpr::constant(
                                               Builder.depth(), -1)));
    break;
  case Token::Kind::Ge:
    Out.push_back(Constraint::ge(*L - *R));
    break;
  case Token::Kind::EqEq:
    Out.push_back(Constraint::eq(*L - *R));
    break;
  default:
    break;
  }
  return true;
}

// -- Value expressions -----------------------------------------------------

bool Parser::parseValueExpr() { return parseValueAdditive(); }

bool Parser::parseValueAdditive() {
  if (!parseValueTerm())
    return false;
  while (Tok.is(Token::Kind::Plus) || Tok.is(Token::Kind::Minus)) {
    bump();
    if (!parseValueTerm())
      return false;
  }
  return true;
}

bool Parser::parseValueTerm() {
  if (!parseValueUnary())
    return false;
  while (Tok.is(Token::Kind::Star) || Tok.is(Token::Kind::Slash) ||
         Tok.is(Token::Kind::Percent)) {
    bump();
    if (!parseValueUnary())
      return false;
  }
  return true;
}

bool Parser::parseValueUnary() {
  while (Tok.is(Token::Kind::Minus) || Tok.is(Token::Kind::Plus))
    bump();
  return parseValuePrimary();
}

bool Parser::parseValuePrimary() {
  NestingScope Scope(*this);
  if (!Scope.ok())
    return false;
  if (Tok.is(Token::Kind::Error))
    return fail(Tok.Loc, Tok.Text);
  if (Tok.is(Token::Kind::IntLit) || Tok.is(Token::Kind::FloatLit)) {
    bump();
    return true;
  }
  if (Tok.is(Token::Kind::LParen)) {
    bump();
    if (!parseValueExpr())
      return false;
    return expect(Token::Kind::RParen, "to close a parenthesized expression");
  }
  if (!Tok.is(Token::Kind::Ident))
    return fail(Tok.Loc, std::string("expected an expression, found ") +
                             tokenKindName(Tok.K));

  std::string Name = Tok.Text;
  SrcLoc Loc = Tok.Loc;
  bump();

  // Call: any identifier followed by '(' (sqrt, min, max, pow, ...).
  // Arguments are value expressions; their reads are emitted in order.
  if (Tok.is(Token::Kind::LParen)) {
    bump();
    if (!Tok.is(Token::Kind::RParen)) {
      if (!parseValueExpr())
        return false;
      while (Tok.is(Token::Kind::Comma)) {
        bump();
        if (!parseValueExpr())
          return false;
      }
    }
    return expect(Token::Kind::RParen, "to close the call argument list");
  }

  const Symbol *S = lookup(Name);
  if (!S)
    return fail(Loc, "undeclared identifier '" + Name + "'");

  // Array reference: emit a read access.
  if (Tok.is(Token::Kind::LBracket)) {
    if (S->K != Symbol::Kind::Array)
      return fail(Loc, "'" + Name + "' is not an array");
    std::vector<AffineExpr> Subs;
    while (Tok.is(Token::Kind::LBracket)) {
      bump();
      std::optional<AffineExpr> Sub = parseAffine();
      if (!Sub)
        return false;
      Subs.push_back(std::move(*Sub));
      if (!expect(Token::Kind::RBracket, "to close the subscript"))
        return false;
    }
    if (Subs.size() != S->NumDims)
      return fail(Loc, "array '" + Name + "' expects " +
                           std::to_string(S->NumDims) + " subscripts, got " +
                           std::to_string(Subs.size()));
    Builder.read(S->ArrayId, std::move(Subs));
    AccessLocs.push_back(Loc);
    return true;
  }

  switch (S->K) {
  case Symbol::Kind::Scalar:
    Builder.readScalar(S->ArrayId);
    AccessLocs.push_back(Loc);
    return true;
  case Symbol::Kind::Param:
  case Symbol::Kind::Iterator:
    return true; // No memory access.
  case Symbol::Kind::Array:
    return fail(Loc, "array '" + Name + "' used without subscripts");
  }
  return true;
}

// -- L-values ---------------------------------------------------------------

bool Parser::parseLValue(Symbol &SymOut, std::vector<AffineExpr> &SubsOut,
                         SrcLoc &LocOut) {
  std::string Name;
  LocOut = Tok.Loc;
  if (!expectIdent(Name, "as assignment target"))
    return false;
  const Symbol *S = lookup(Name);
  if (!S)
    return fail(LocOut, "undeclared identifier '" + Name + "'");
  if (S->K == Symbol::Kind::Param || S->K == Symbol::Kind::Iterator)
    return fail(LocOut, "cannot assign to '" + Name +
                            "' (parameters and iterators are read-only)");
  SubsOut.clear();
  while (Tok.is(Token::Kind::LBracket)) {
    bump();
    std::optional<AffineExpr> Sub = parseAffine();
    if (!Sub)
      return false;
    SubsOut.push_back(std::move(*Sub));
    if (!expect(Token::Kind::RBracket, "to close the subscript"))
      return false;
  }
  if (S->K == Symbol::Kind::Array && SubsOut.size() != S->NumDims)
    return fail(LocOut, "array '" + Name + "' expects " +
                            std::to_string(S->NumDims) + " subscripts, got " +
                            std::to_string(SubsOut.size()));
  if (S->K == Symbol::Kind::Scalar && !SubsOut.empty())
    return fail(LocOut, "scalar '" + Name + "' cannot be subscripted");
  SymOut = *S;
  return true;
}
