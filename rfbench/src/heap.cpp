// Global operator new/delete replacements that count every heap
// allocation of the process (simulator and benchmark alike). The
// simulator is single-threaded, so plain counters suffice.
#include <cstdlib>
#include <new>

#include "common.hpp"

namespace {

rfb::HeapCounters g_heap;

void* counted_alloc(std::size_t size) {
  ++g_heap.allocs;
  g_heap.bytes += size;
  return std::malloc(size != 0 ? size : 1);
}

void* counted_alloc_aligned(std::size_t size, std::align_val_t align) {
  ++g_heap.allocs;
  g_heap.bytes += size;
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  return std::aligned_alloc(a, rounded != 0 ? rounded : a);
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  ++g_heap.frees;
  std::free(p);
}

void* or_throw(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

rfb::HeapCounters rfb::heap_counters() { return g_heap; }

void* operator new(std::size_t n) { return or_throw(counted_alloc(n)); }
void* operator new[](std::size_t n) { return or_throw(counted_alloc(n)); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return or_throw(counted_alloc_aligned(n, a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return or_throw(counted_alloc_aligned(n, a));
}
void* operator new(std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return counted_alloc_aligned(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return counted_alloc_aligned(n, a);
}

void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { counted_free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  counted_free(p);
}
