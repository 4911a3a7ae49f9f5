//===- scop/Program.cpp ---------------------------------------------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "wcs/scop/Program.h"

#include "wcs/support/MathUtil.h"

#include <algorithm>
#include <cassert>
#include <sstream>

using namespace wcs;

namespace {

/// Where iterators and addresses must stay: [-2^62, 2^62). An iterator
/// there leaves room for the walks to step one past a loop's end, and
/// an address there has a block of 2 bytes or more that fits a
/// BatchedAccess word.
constexpr int64_t Reach = int64_t(1) << 62;

bool fits(__int128 V) { return V >= INT64_MIN && V <= INT64_MAX; }

/// Bounds of \p E over the box \p Box (a range per dimension), summed
/// in AffineExpr::eval's order over its first \p Dims dimensions, so
/// every partial sum of an evaluation inside the box lies within the
/// partial bounds; std::nullopt when a product or a partial sum can
/// overflow int64.
std::optional<VarBounds> boundOver(const AffineExpr &E,
                                   const std::vector<VarBounds> &Box,
                                   unsigned Dims) {
  __int128 Lo = E.constantTerm(), Hi = Lo;
  for (unsigned I = 0; I < Dims && I < E.numDims(); ++I) {
    __int128 A = static_cast<__int128>(E.coeff(I)) * Box[I].Lo;
    __int128 B = static_cast<__int128>(E.coeff(I)) * Box[I].Hi;
    Lo += std::min(A, B);
    Hi += std::max(A, B);
    if (!fits(A) || !fits(B) || !fits(Lo) || !fits(Hi))
      return std::nullopt;
  }
  return VarBounds{static_cast<int64_t>(Lo), static_cast<int64_t>(Hi)};
}

/// \p Acc += \p E * \p S; false when a coefficient leaves int64.
bool addScaled(AffineExpr &Acc, const AffineExpr &E, int64_t S) {
  __int128 C =
      Acc.constantTerm() + static_cast<__int128>(E.constantTerm()) * S;
  bool Ok = fits(C);
  Acc.setConstantTerm(static_cast<int64_t>(C));
  for (unsigned I = 0; I < E.numDims(); ++I) {
    __int128 V = Acc.coeff(I) + static_cast<__int128>(E.coeff(I)) * S;
    Ok = Ok && fits(V);
    Acc.setCoeff(I, static_cast<int64_t>(V));
  }
  return Ok;
}

/// DFS finalization state.
struct Finalizer {
  ScopProgram &P;
  std::vector<AccessNode *> Accesses;
  std::vector<LoopNode *> Loops;
  unsigned MaxDepth = 0;
  std::string Error;
  ScopEntity Refused; ///< What Error names.
  /// Box-hull ranges of the enclosing iterators, outermost first. The
  /// empty range {1, 0} of a loop that never runs bounds its body like
  /// [0, 1]: a stand-in for code that never runs.
  std::vector<VarBounds> Box;

  explicit Finalizer(ScopProgram &P) : P(P) {}

  /// The box-hull range of \p L's iterator over Box: per constraint,
  /// its loosest bound over the box. Refuses, with Error naming the
  /// loop, a range that is unbounded or leaves [-Reach, Reach), and
  /// bounds whose arithmetic in ConvexSet::lastDimBounds can overflow.
  bool loopRange(const LoopNode &L, VarBounds &Out) {
    auto Floor = [](__int128 N, __int128 D) {
      return N / D - (N % D != 0 && (N < 0) != (D < 0));
    };
    // Unbounded, and so out of reach, until constraints bound it.
    __int128 Hi = __int128(1) << 100, Lo = -Hi;
    for (const Constraint &C : L.Domain.constraints()) {
      std::optional<VarBounds> R = boundOver(C.Expr, Box, L.Depth);
      int64_t A = C.Expr.numDims() > L.Depth ? C.Expr.coeff(L.Depth) : 0;
      if (!R || R->Lo == INT64_MIN || A == INT64_MIN) {
        refuse(L, "loop '" + L.IterName + "' has bounds that overflow int64");
        return false;
      }
      // S*(A*x + R) >= 0 for some R in the range: S = 1, and for an
      // equality also S = -1.
      for (__int128 S : {1, -1}) {
        if (S < 0 && C.K != Constraint::Kind::EQ)
          break;
        __int128 SA = S * A, RMax = S > 0 ? R->Hi : -__int128(R->Lo);
        if (SA > 0)
          Lo = std::max(Lo, -Floor(RMax, SA));
        if (SA < 0)
          Hi = std::min(Hi, Floor(RMax, -SA));
      }
    }
    if (Lo <= Hi && (Lo < -Reach || Hi >= Reach)) {
      refuse(L, "loop '" + L.IterName + "' iterates outside [-2^62, 2^62)");
      return false;
    }
    Out = Lo <= Hi ? VarBounds{static_cast<int64_t>(Lo),
                               static_cast<int64_t>(Hi)}
                   : VarBounds{1, 0};
    return true;
  }

  void refuse(const LoopNode &L, std::string Msg) {
    Error = std::move(Msg);
    Refused = ScopEntity{ScopEntity::Kind::Loop, L.Id};
  }
  void refuse(const AccessNode &A, std::string Msg) {
    Error = std::move(Msg);
    Refused = ScopEntity{ScopEntity::Kind::Access, A.Id};
  }

  void visit(Node *N, unsigned Depth) {
    if (!Error.empty())
      return;
    if (LoopNode *L = asLoop(N)) {
      L->Id = static_cast<int>(Loops.size());
      Loops.push_back(L);
      L->Depth = Depth;
      if (Depth + 1 > MaxLoopDepth) {
        refuse(*L, "loop nest deeper than MaxLoopDepth");
        return;
      }
      if (L->Domain.numDims() != Depth + 1) {
        refuse(*L, "loop '" + L->IterName + "' domain has wrong arity");
        return;
      }
      VarBounds Range;
      if (!loopRange(*L, Range))
        return;
      Box.push_back(Range);
      MaxDepth = std::max(MaxDepth, Depth + 1);
      L->FirstAccess = static_cast<int>(Accesses.size());
      for (const std::unique_ptr<Node> &C : L->Children)
        visit(C.get(), Depth + 1);
      L->EndAccess = static_cast<int>(Accesses.size());
      Box.pop_back();
      return;
    }
    AccessNode *A = asAccess(N);
    assert(A && "unknown node kind");
    A->Id = static_cast<int>(Accesses.size());
    Accesses.push_back(A);
    A->Depth = Depth;
    if (A->Domain.numDims() != Depth) {
      refuse(*A, "access to array #" + std::to_string(A->ArrayId) +
                     " has a domain of wrong arity");
      return;
    }
    const ArrayInfo &Arr = P.array(A->ArrayId);
    if (A->Subscripts.size() != Arr.DimSizes.size()) {
      refuse(*A, "access to '" + Arr.Name + "' has wrong subscript count");
      return;
    }
    if (Arr.BaseAddr < 0) {
      refuse(*A,
             "array '" + Arr.Name + "' has no layout; call assignLayout()");
      return;
    }
    // Linearize: Address = Base + ElemBytes * sum_k Sub[k] * stride_k.
    // The layout checked the array's size, which bounds every stride.
    const std::string Where = "access to '" + Arr.Name + "'";
    AffineExpr Addr = AffineExpr::constant(Depth, Arr.BaseAddr);
    for (unsigned K = 0; K < A->Subscripts.size(); ++K)
      if (!addScaled(Addr, A->Subscripts[K].extendedTo(Depth),
                     Arr.elemStride(K) * Arr.ElemBytes)) {
        refuse(*A, Where + " overflows int64 address arithmetic");
        return;
      }
    A->Address = Addr;
    // Every address, and every step a lane takes, within [-Reach,
    // Reach); every domain constraint evaluable.
    std::optional<VarBounds> R = boundOver(Addr, Box, Depth);
    bool InReach = R && R->Lo >= -Reach && R->Hi < Reach;
    for (unsigned I = 0; I < Depth; ++I)
      InReach &= Addr.coeff(I) >= -Reach && Addr.coeff(I) <= Reach;
    if (!InReach) {
      refuse(*A, Where + " leaves the address range [-2^62, 2^62)");
      return;
    }
    for (const Constraint &C : A->Domain.constraints())
      if (!boundOver(C.Expr, Box, Depth)) {
        refuse(*A, Where + " has a guard that overflows int64");
        return;
      }
    // Note: A->Guarded is set by the builder / frontend, which knows
    // whether an if-guard applies at construction time.
  }
};

void printNode(std::ostringstream &OS, const ScopProgram &P, const Node *N,
               unsigned Indent, std::vector<std::string> &DimNames) {
  std::string Pad(Indent * 2, ' ');
  if (const LoopNode *L = asLoop(N)) {
    DimNames.push_back(L->IterName);
    OS << Pad << "for " << L->IterName << " in " << L->Domain.str(DimNames)
       << "\n";
    for (const std::unique_ptr<Node> &C : L->Children)
      printNode(OS, P, C.get(), Indent + 1, DimNames);
    DimNames.pop_back();
    return;
  }
  const AccessNode *A = asAccess(N);
  const ArrayInfo &Arr = P.array(A->ArrayId);
  OS << Pad << (A->isWrite() ? "write " : "read  ") << Arr.Name;
  for (const AffineExpr &S : A->Subscripts)
    OS << "[" << S.str(DimNames) << "]";
  if (A->Guarded)
    OS << " if " << A->Domain.str(DimNames);
  OS << "\n";
}

} // namespace

std::string ScopProgram::finalize(ScopEntity *Refused) {
  Finalizer F(*this);
  for (const std::unique_ptr<Node> &R : Roots)
    F.visit(R.get(), 0);
  if (!F.Error.empty()) {
    if (Refused)
      *Refused = F.Refused;
    return F.Error;
  }
  AllAccesses = std::move(F.Accesses);
  AllLoops = std::move(F.Loops);
  MaxDepth = F.MaxDepth;
  return "";
}

std::string ScopProgram::str() const {
  std::ostringstream OS;
  OS << "scop " << Name << "\n";
  for (const ArrayInfo &A : Arrays) {
    OS << "  array " << A.Name;
    for (int64_t D : A.DimSizes)
      OS << "[" << D << "]";
    OS << " elem=" << A.ElemBytes << "B base=" << A.BaseAddr << "\n";
  }
  std::vector<std::string> DimNames;
  for (const std::unique_ptr<Node> &R : Roots)
    printNode(OS, *this, R.get(), 1, DimNames);
  return OS.str();
}
