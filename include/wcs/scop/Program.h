//===- wcs/scop/Program.h - SCoP tree representation ------------*- C++ -*-===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tree-structured SCoP representation of paper Sec. 3.2: loop nodes
/// with iteration domains and ordered children, and access nodes carrying
/// an iteration domain and an affine access function. A ScopProgram is a
/// sequence of such trees (PolyBench kernels consist of several loop
/// nests) plus the arrays they reference and a concrete memory layout.
///
/// Loops are canonicalized to stride +1; descending or strided source
/// loops are normalized by an affine change of iterators in the frontend.
/// Parameters (problem sizes) are bound to constants before construction.
///
//===----------------------------------------------------------------------===//

#ifndef WCS_SCOP_PROGRAM_H
#define WCS_SCOP_PROGRAM_H

#include "wcs/poly/ConvexSet.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace wcs {

/// An array (or scalar, modeled as a zero-dimensional array, paper
/// footnote 1) referenced by the program.
struct ArrayInfo {
  std::string Name;
  unsigned ElemBytes = 8;
  std::vector<int64_t> DimSizes; ///< Empty for scalars.
  int64_t BaseAddr = -1;         ///< Assigned by Layout.

  bool isScalar() const { return DimSizes.empty(); }

  /// Total extent in bytes, or std::nullopt when it overflows int64.
  std::optional<int64_t> byteSize() const;

  /// Row-major element stride (in elements) of dimension \p Dim; needs
  /// a byteSize() that fits.
  int64_t elemStride(unsigned Dim) const;
};

enum class AccessKind { Read, Write };

class LoopNode;
class AccessNode;

/// Base of the two SCoP tree node kinds (closed hierarchy, tag dispatch).
class Node {
public:
  enum class Kind { Loop, Access };

  Kind kind() const { return K; }
  virtual ~Node() = default;

protected:
  explicit Node(Kind K) : K(K) {}

private:
  Kind K;
};

/// A leaf access: one array reference instance per point of its domain.
class AccessNode : public Node {
public:
  AccessNode() : Node(Kind::Access) {}

  int Id = -1;          ///< DFS index, assigned by ScopProgram::finalize.
  unsigned ArrayId = 0; ///< Index into ScopProgram::arrays().
  AccessKind AKind = AccessKind::Read;
  unsigned Depth = 0; ///< Number of enclosing loop dimensions.
  std::vector<AffineExpr> Subscripts; ///< One per array dimension.
  ConvexSet Domain;                   ///< Over Depth dimensions.

  /// Linearized byte-address function over Depth dimensions; computed by
  /// ScopProgram::finalize once the layout is fixed.
  AffineExpr Address;

  /// True if an if-guard restricts Domain below the enclosing loops'
  /// domain; set by the builder, which knows the open guards.
  bool Guarded = false;

  bool isWrite() const { return AKind == AccessKind::Write; }
};

/// A loop with an iteration domain and ordered children.
class LoopNode : public Node {
public:
  LoopNode() : Node(Kind::Loop) {}

  int Id = -1;
  std::string IterName = "i";
  unsigned Depth = 0; ///< Nesting depth; the loop's own iterator is
                      ///< dimension Depth (domains have Depth+1 dims).
  ConvexSet Domain;   ///< Over Depth+1 dimensions.
  std::vector<std::unique_ptr<Node>> Children;

  /// DFS access-id range [FirstAccess, EndAccess) of this subtree;
  /// assigned by finalize. Used by the warping checks to enumerate the
  /// access nodes a warp must validate.
  int FirstAccess = 0;
  int EndAccess = 0;
};

inline LoopNode *asLoop(Node *N) {
  return N && N->kind() == Node::Kind::Loop ? static_cast<LoopNode *>(N)
                                            : nullptr;
}
inline const LoopNode *asLoop(const Node *N) {
  return asLoop(const_cast<Node *>(N));
}
inline AccessNode *asAccess(Node *N) {
  return N && N->kind() == Node::Kind::Access ? static_cast<AccessNode *>(N)
                                              : nullptr;
}
inline const AccessNode *asAccess(const Node *N) {
  return asAccess(const_cast<Node *>(N));
}

/// A full static control part: arrays plus a sequence of trees.
class ScopProgram {
public:
  ScopProgram() = default;
  ScopProgram(ScopProgram &&) = default;
  ScopProgram &operator=(ScopProgram &&) = default;

  const std::vector<ArrayInfo> &arrays() const { return Arrays; }
  ArrayInfo &array(unsigned Id) { return Arrays[Id]; }
  const ArrayInfo &array(unsigned Id) const { return Arrays[Id]; }

  const std::vector<std::unique_ptr<Node>> &roots() const { return Roots; }

  /// All access nodes in execution (DFS) order, indexed by AccessNode::Id.
  const std::vector<AccessNode *> &accesses() const { return AllAccesses; }
  /// All loop nodes in DFS order, indexed by LoopNode::Id.
  const std::vector<LoopNode *> &loops() const { return AllLoops; }

  unsigned maxLoopDepth() const { return MaxDepth; }

  /// Name of this program (e.g. the kernel name); informational.
  std::string Name;

  /// Assigns node ids, computes linearized address functions and
  /// validates the tree. Must be called after construction and after
  /// the layout assigned array base addresses. Refuses a program whose
  /// iterator or address arithmetic can overflow: over the box hull of
  /// the loop bounds, every iterator must stay in [-2^62, 2^62), every
  /// address and address stride within the same range, and no bound,
  /// guard or address evaluation may overflow int64. Returns an error
  /// message naming the loop or the array, or "" on success.
  std::string finalize();

  /// Pretty-prints the tree (for debugging and examples).
  std::string str() const;

  // Mutable construction interface (used by ScopBuilder / the frontend).
  std::vector<ArrayInfo> &mutableArrays() { return Arrays; }
  std::vector<std::unique_ptr<Node>> &mutableRoots() { return Roots; }

private:
  std::vector<ArrayInfo> Arrays;
  std::vector<std::unique_ptr<Node>> Roots;
  std::vector<AccessNode *> AllAccesses;
  std::vector<LoopNode *> AllLoops;
  unsigned MaxDepth = 0;
};

/// Assigns base addresses to all arrays: each array is aligned to
/// \p AlignBytes (default: page size, matching how allocators place large
/// arrays); scalars are packed contiguously in a separate region. Returns
/// an error naming the array whose size or placement overflows int64,
/// or "" on success.
std::string assignLayout(ScopProgram &P, int64_t AlignBytes = 4096);

} // namespace wcs

#endif // WCS_SCOP_PROGRAM_H
