//===- cache/ConcreteCache.cpp --------------------------------------------===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "wcs/cache/ConcreteCache.h"

template class wcs::CacheHierarchy<wcs::NoTag>;
