// Counting replacement of the global allocation functions. Counters are
// per thread, so counting needs no atomic read-modify-write on the hot
// path; the simulator runs entirely on the thread that reads them. The
// nothrow forms fall back to these through the standard library's
// defaults.
#include "alloc_hook.h"

#include <cstdlib>
#include <new>

namespace {

thread_local perfbench::AllocCounts t_counts;

void* CountedAlloc(std::size_t size) {
  ++t_counts.allocs;
  t_counts.bytes += size;
  return std::malloc(size == 0 ? 1 : size);
}

void* CountedAlignedAlloc(std::size_t size, std::size_t align) {
  ++t_counts.allocs;
  t_counts.bytes += size;
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = (size + align - 1) / align * align;
  return std::aligned_alloc(align, rounded == 0 ? align : rounded);
}

}  // namespace

namespace perfbench {

AllocCounts AllocSnapshot() { return t_counts; }

}  // namespace perfbench

void* operator new(std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = CountedAlignedAlloc(size, static_cast<std::size_t>(align))) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
