//===- frontend/Lowering.cpp - Declarations and statements ----------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
// Declaration and statement parsing, lowered on the fly into the
// ScopBuilder: loops become loop nodes (with descending and strided
// source loops normalized to stride +1 via an affine change of
// iterators), guards become domain constraints, and assignments become
// the ordered read/write access nodes they perform.
//
//===----------------------------------------------------------------------===//

#include "wcs/frontend/Parser.h"

#include "wcs/support/IterVec.h"
#include "wcs/support/MathUtil.h"

#include <cassert>
#include <string>

using namespace wcs;

bool Parser::parseTopLevel() {
  while (!Tok.is(Token::Kind::End)) {
    if (Tok.is(Token::Kind::Error))
      return fail(Tok.Loc, Tok.Text);
    if (Tok.is(Token::Kind::Ident)) {
      unsigned ElemBytes = 0;
      if (Tok.Text == "param") {
        bump();
        if (!parseParamDecl())
          return false;
        continue;
      }
      if (isTypeKeyword(Tok.Text, ElemBytes)) {
        bump();
        if (!parseVarDecl(ElemBytes))
          return false;
        continue;
      }
    }
    SeenStmt = true;
    if (!parseStmt())
      return false;
  }
  return true;
}

bool Parser::parseParamDecl() {
  std::string Name;
  SrcLoc Loc = Tok.Loc;
  if (!expectIdent(Name, "after 'param'"))
    return false;
  if (lookup(Name))
    return fail(Loc, "redeclaration of '" + Name + "'");
  std::optional<int64_t> Default;
  if (Tok.is(Token::Kind::Assign)) {
    bump();
    Default = parseConstant("as the parameter default");
    if (!Default)
      return false;
  }
  if (!expect(Token::Kind::Semi, "after the parameter declaration"))
    return false;
  Symbol S;
  S.K = Symbol::Kind::Param;
  auto It = Params.find(Name);
  if (It != Params.end())
    S.ParamValue = It->second;
  else if (Default)
    S.ParamValue = *Default;
  else
    return fail(Loc, "parameter '" + Name +
                         "' has no binding and no default value");
  Syms[Name] = S;
  return true;
}

bool Parser::parseVarDecl(unsigned ElemBytes) {
  for (;;) {
    std::string Name;
    SrcLoc Loc = Tok.Loc;
    if (!expectIdent(Name, "in a declaration"))
      return false;
    if (lookup(Name))
      return fail(Loc, "redeclaration of '" + Name + "'");
    std::vector<int64_t> Dims;
    while (Tok.is(Token::Kind::LBracket)) {
      bump();
      std::optional<int64_t> D = parseConstant("as an array extent");
      if (!D)
        return false;
      if (*D <= 0)
        return fail(Loc, "array '" + Name + "' has non-positive extent");
      Dims.push_back(*D);
      if (!expect(Token::Kind::RBracket, "to close the array extent"))
        return false;
    }
    Symbol S;
    if (Dims.empty()) {
      S.K = Symbol::Kind::Scalar;
      S.ArrayId = Builder.addScalar(Name, ElemBytes);
    } else {
      S.K = Symbol::Kind::Array;
      S.NumDims = static_cast<unsigned>(Dims.size());
      S.ArrayId = Builder.addArray(Name, ElemBytes, std::move(Dims));
    }
    ArrayLocs.push_back(Loc);
    Syms[Name] = S;
    if (Tok.is(Token::Kind::Comma)) {
      bump();
      continue;
    }
    return expect(Token::Kind::Semi, "after the declaration");
  }
}

bool Parser::parseStmt() {
  NestingScope Scope(*this);
  if (!Scope.ok())
    return false;
  if (Tok.is(Token::Kind::Error))
    return fail(Tok.Loc, Tok.Text);
  if (Tok.is(Token::Kind::LBrace))
    return parseBlock();
  if (Tok.is(Token::Kind::Ident)) {
    if (Tok.Text == "for")
      return parseFor();
    if (Tok.Text == "if")
      return parseIf();
    if (Tok.Text == "else")
      return fail(Tok.Loc, "'else' is not supported; use a second 'if' "
                           "with the negated condition");
    return parseAssign();
  }
  return fail(Tok.Loc, std::string("expected a statement, found ") +
                           tokenKindName(Tok.K));
}

bool Parser::parseBlock() {
  if (!expect(Token::Kind::LBrace, "to open a block"))
    return false;
  while (!Tok.is(Token::Kind::RBrace)) {
    if (Tok.is(Token::Kind::End))
      return fail(Tok.Loc, "unexpected end of input inside a block");
    if (!parseStmt())
      return false;
  }
  bump(); // consume '}'
  return true;
}

bool Parser::parseFor() {
  SrcLoc ForLoc = Tok.Loc;
  // Refused as the loop opens: lowering cost grows with depth, so a
  // deep nest must not be built first and rejected at finish().
  if (Builder.depth() >= MaxLoopDepth)
    return fail(ForLoc, "loop nest deeper than MaxLoopDepth (" +
                            std::to_string(MaxLoopDepth) + ")");
  bump(); // 'for'
  if (!expect(Token::Kind::LParen, "after 'for'"))
    return false;

  // Optional induction-variable type.
  if (Tok.is(Token::Kind::Ident)) {
    unsigned Ignored;
    if (isTypeKeyword(Tok.Text, Ignored))
      bump();
  }
  std::string IterName;
  if (!expectIdent(IterName, "as the loop iterator"))
    return false;
  const Symbol *Existing = lookup(IterName);
  if (Existing && (Existing->K == Symbol::Kind::Array ||
                   Existing->K == Symbol::Kind::Scalar ||
                   Existing->K == Symbol::Kind::Param))
    return fail(ForLoc, "loop iterator '" + IterName +
                            "' collides with a declared variable");
  if (!expect(Token::Kind::Assign, "in the loop initialization"))
    return false;
  std::optional<AffineExpr> Init = parseAffine();
  if (!Init)
    return false;
  if (!expect(Token::Kind::Semi, "after the loop initialization"))
    return false;

  std::string CondName;
  if (!expectIdent(CondName, "in the loop condition"))
    return false;
  if (CondName != IterName)
    return fail(ForLoc, "loop condition must test the iterator '" +
                            IterName + "'");
  Token::Kind Rel = Tok.K;
  if (Rel != Token::Kind::Lt && Rel != Token::Kind::Le &&
      Rel != Token::Kind::Gt && Rel != Token::Kind::Ge)
    return fail(Tok.Loc, "loop condition must be one of < <= > >=");
  bump();
  std::optional<AffineExpr> Bound = parseAffine();
  if (!Bound)
    return false;
  if (!expect(Token::Kind::Semi, "after the loop condition"))
    return false;

  // Increment: i++ / ++i / i-- / --i / i += c / i -= c.
  int64_t Step = 0;
  if (Tok.is(Token::Kind::PlusPlus) || Tok.is(Token::Kind::MinusMinus)) {
    Step = Tok.is(Token::Kind::PlusPlus) ? 1 : -1;
    bump();
    std::string Name;
    if (!expectIdent(Name, "after the prefix increment"))
      return false;
    if (Name != IterName)
      return fail(ForLoc, "loop increment must update the iterator");
  } else {
    std::string Name;
    if (!expectIdent(Name, "in the loop increment"))
      return false;
    if (Name != IterName)
      return fail(ForLoc, "loop increment must update the iterator");
    if (Tok.is(Token::Kind::PlusPlus)) {
      Step = 1;
      bump();
    } else if (Tok.is(Token::Kind::MinusMinus)) {
      Step = -1;
      bump();
    } else if (Tok.is(Token::Kind::PlusAssign) ||
               Tok.is(Token::Kind::MinusAssign)) {
      bool Neg = Tok.is(Token::Kind::MinusAssign);
      bump();
      std::optional<int64_t> C = parseConstant("as the loop step");
      if (!C)
        return false;
      if (*C <= 0)
        return fail(ForLoc, "loop step must be positive");
      Step = Neg ? -*C : *C;
    } else {
      return fail(Tok.Loc, "expected ++, --, += or -= in the loop "
                           "increment");
    }
  }
  if (!expect(Token::Kind::RParen, "to close the loop header"))
    return false;

  // Canonicalize to a stride +1 loop over [Lo, Hi] with the source
  // iterator expressed as an affine function of the canonical one.
  unsigned D = Builder.depth();
  AffineExpr Lo(D), Hi(D);
  AffineExpr IterExpr(D + 1); // Source iterator over D+1 dims.
  AffineExpr Canon = AffineExpr::dim(D + 1, D);
  if (Step == 1) {
    if (Rel != Token::Kind::Lt && Rel != Token::Kind::Le)
      return fail(ForLoc, "ascending loop requires '<' or '<='");
    Lo = *Init;
    Hi = Rel == Token::Kind::Lt ? *Bound + AffineExpr::constant(D, -1)
                                : *Bound;
    IterExpr = Canon;
  } else if (Step == -1) {
    if (Rel != Token::Kind::Gt && Rel != Token::Kind::Ge)
      return fail(ForLoc, "descending loop requires '>' or '>='");
    // i runs Init, Init-1, ..., LoI; canonical t = Init - i in [0, Init-LoI].
    AffineExpr LoI = Rel == Token::Kind::Gt
                         ? *Bound + AffineExpr::constant(D, 1)
                         : *Bound;
    Lo = AffineExpr::constant(D, 0);
    Hi = *Init - LoI;
    IterExpr = Init->extendedTo(D + 1) - Canon;
  } else {
    // |Step| > 1: require constant bounds so the trip count is affine.
    if (!Init->isConstant() || !Bound->isConstant())
      return fail(ForLoc, "loops with step other than +-1 require "
                          "constant bounds");
    int64_t I0 = Init->constantTerm(), B0 = Bound->constantTerm();
    int64_t Trip; // Number of iterations - 1 (inclusive Hi).
    if (Step > 0) {
      if (Rel != Token::Kind::Lt && Rel != Token::Kind::Le)
        return fail(ForLoc, "ascending loop requires '<' or '<='");
      int64_t HiI = Rel == Token::Kind::Lt ? B0 - 1 : B0;
      Trip = HiI < I0 ? -1 : floorDiv(HiI - I0, Step);
    } else {
      if (Rel != Token::Kind::Gt && Rel != Token::Kind::Ge)
        return fail(ForLoc, "descending loop requires '>' or '>='");
      int64_t LoI = Rel == Token::Kind::Gt ? B0 + 1 : B0;
      Trip = I0 < LoI ? -1 : floorDiv(I0 - LoI, -Step);
    }
    Lo = AffineExpr::constant(D, 0);
    Hi = AffineExpr::constant(D, Trip);
    IterExpr = Canon * Step + AffineExpr::constant(D + 1, I0);
  }

  Builder.beginLoop(IterName, std::move(Lo), std::move(Hi));
  LoopLocs.push_back(ForLoc);

  // Bind (possibly shadowing) the iterator symbol.
  std::optional<Symbol> Shadowed;
  if (const Symbol *Old = lookup(IterName))
    Shadowed = *Old;
  Symbol IterSym;
  IterSym.K = Symbol::Kind::Iterator;
  IterSym.IterExpr = IterExpr;
  Syms[IterName] = IterSym;

  bool BodyOk = parseStmt();

  if (Shadowed)
    Syms[IterName] = *Shadowed;
  else
    Syms.erase(IterName);
  Builder.endLoop();
  return BodyOk;
}

bool Parser::parseIf() {
  bump(); // 'if'
  if (!expect(Token::Kind::LParen, "after 'if'"))
    return false;
  std::vector<Constraint> Guards;
  if (!parseCondition(Guards))
    return false;
  if (!expect(Token::Kind::RParen, "to close the condition"))
    return false;
  for (const Constraint &C : Guards)
    Builder.beginGuard(C);
  bool BodyOk = parseStmt();
  for (size_t I = 0; I < Guards.size(); ++I)
    Builder.endGuard();
  if (BodyOk && Tok.is(Token::Kind::Ident) && Tok.Text == "else")
    return fail(Tok.Loc, "'else' is not supported; use a second 'if' with "
                         "the negated condition");
  return BodyOk;
}

bool Parser::parseAssign() {
  Symbol LHS;
  std::vector<AffineExpr> Subs;
  SrcLoc Loc;
  if (!parseLValue(LHS, Subs, Loc))
    return false;

  bool Compound;
  switch (Tok.K) {
  case Token::Kind::Assign:
    Compound = false;
    break;
  case Token::Kind::PlusAssign:
  case Token::Kind::MinusAssign:
  case Token::Kind::StarAssign:
  case Token::Kind::SlashAssign:
    Compound = true;
    break;
  default:
    return fail(Tok.Loc,
                std::string("expected an assignment operator, found ") +
                    tokenKindName(Tok.K));
  }
  bump();

  // `x op= e` reads x first, then the right-hand side, then writes x
  // (matching the access order pet derives for the desugared form).
  if (Compound) {
    Builder.access(LHS.ArrayId, AccessKind::Read, Subs);
    AccessLocs.push_back(Loc);
  }
  if (!parseValueExpr())
    return false;
  if (!expect(Token::Kind::Semi, "after the assignment"))
    return false;
  Builder.access(LHS.ArrayId, AccessKind::Write, std::move(Subs));
  AccessLocs.push_back(Loc);
  return true;
}
