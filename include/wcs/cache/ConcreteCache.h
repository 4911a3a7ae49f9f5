//===- wcs/cache/ConcreteCache.h - Concrete caches & hierarchy --*- C++ -*-===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Concrete (non-symbolic) caches and hierarchies: a line is its block
/// alone (NoTag), and the hierarchy is CacheHierarchy over it (see
/// CacheHierarchy.h for the Eq. (24) semantics and the inclusion
/// policies).
///
//===----------------------------------------------------------------------===//

#ifndef WCS_CACHE_CONCRETECACHE_H
#define WCS_CACHE_CONCRETECACHE_H

#include "wcs/cache/CacheHierarchy.h"

namespace wcs {

using ConcreteCache = SetAssocCache<NoTag>;

/// A one- or two-level concrete cache hierarchy supporting all three
/// inclusion policies.
using ConcreteHierarchy = CacheHierarchy<NoTag>;

extern template class CacheHierarchy<NoTag>;

} // namespace wcs

#endif // WCS_CACHE_CONCRETECACHE_H
