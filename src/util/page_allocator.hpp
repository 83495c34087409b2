// Allocator that maps storage straight from the OS (anonymous mmap) and
// unmaps it on release.
//
// For large buffers that live for one computation and are then freed —
// the GSE grid and per-atom stencil of one k-space evaluation.  Through
// malloc such a buffer ends up in the heap's free cache after the first
// release (glibc raises its mmap threshold to the freed size), where
// fragmentation from other allocations keeps growing the process's
// resident set; mapped storage is returned to the OS when freed.  Pages
// arrive zero-filled and are faulted in on first touch.
#pragma once

#include <sys/mman.h>

#include <cstddef>
#include <new>

namespace antmd::util {

template <typename T>
struct PageAllocator {
  using value_type = T;

  PageAllocator() = default;
  template <typename U>
  PageAllocator(const PageAllocator<U>& /*other*/) noexcept {}

  T* allocate(size_t n) {
    void* p = mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return static_cast<T*>(p);
  }
  void deallocate(T* p, size_t n) noexcept { munmap(p, n * sizeof(T)); }

  template <typename U>
  bool operator==(const PageAllocator<U>& /*other*/) const noexcept {
    return true;
  }
};

}  // namespace antmd::util
