//===- wcs/support/AlignedAlloc.h - Aligned std::vector storage -*- C++ -*-===//
//
// Part of the wcs project, a reproduction of "Warping Cache Simulation of
// Polyhedral Programs" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal over-aligning allocator so the hot struct-of-arrays cache
/// state (its block ids) starts on a cache-line boundary:
/// per-set windows then span the fewest possible lines and never share a
/// line with unrelated vector bookkeeping.
///
//===----------------------------------------------------------------------===//

#ifndef WCS_SUPPORT_ALIGNEDALLOC_H
#define WCS_SUPPORT_ALIGNEDALLOC_H

#include <cstddef>
#include <new>

namespace wcs {

template <typename T, std::size_t Align>
struct AlignedAllocator {
  static_assert(Align >= alignof(T) && (Align & (Align - 1)) == 0,
                "alignment must be a power of two covering alignof(T)");
  using value_type = T;

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Align> &) noexcept {}

  T *allocate(std::size_t N) {
    return static_cast<T *>(
        ::operator new(N * sizeof(T), std::align_val_t(Align)));
  }
  void deallocate(T *P, std::size_t) noexcept {
    ::operator delete(P, std::align_val_t(Align));
  }

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };

  friend bool operator==(const AlignedAllocator &, const AlignedAllocator &) {
    return true;
  }
  friend bool operator!=(const AlignedAllocator &, const AlignedAllocator &) {
    return false;
  }
};

} // namespace wcs

#endif // WCS_SUPPORT_ALIGNEDALLOC_H
