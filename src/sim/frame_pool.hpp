// Size-class pool for coroutine frames.
//
// Every sim::Task frame is allocated here (see PromiseBase in task.hpp),
// so the short-lived frames of the data path (a send, a completion wait,
// an attempt) recycle a block instead of reaching the heap. Requests are
// rounded up to a 16-byte class; classes reach 4 KiB, and larger requests
// go straight to the heap. The rules:
//
// - Blocks come only from global ::operator new, one at a time and only
//   when a class list is empty. Nothing is reserved up front, so a global
//   allocation hook (an allocation counter, a leak checker) still sees
//   every real heap acquisition.
// - Each class list keeps at most kCap blocks. A block freed into a full
//   list goes back to ::operator delete, so a burst of live frames is not
//   hoarded once it ends.
// - One pool per thread. The engine is single-threaded, so the lists need
//   no locks; a block freed on another thread joins that thread's lists.
//   A thread's lists are returned to the heap when the thread exits.
// - Under AddressSanitizer a block is poisoned while it sits in a free
//   list, so resuming or reading a destroyed frame is still reported.
#pragma once

#include <cstddef>
#include <new>

namespace rfs::sim::frame_pool {

inline constexpr std::size_t kGranule = 16;
inline constexpr std::size_t kMaxBlock = 4096;
inline constexpr std::size_t kClasses = kMaxBlock / kGranule;
/// Blocks each class list keeps; frees past it return to the heap.
inline constexpr std::size_t kCap = 256;

/// `n` bytes aligned to __STDCPP_DEFAULT_NEW_ALIGNMENT__.
void* allocate(std::size_t n);
/// Releases a block from allocate(); `n` must be the size asked for.
void deallocate(void* p, std::size_t n) noexcept;

/// Blocks the calling thread's pool holds for requests of `n` bytes (0
/// for oversize requests). For tests and diagnostics.
std::size_t cached(std::size_t n);

/// Standard allocator over the pool, for objects whose lifetime is as
/// short as a frame's (e.g. the shared state of one invocation, through
/// std::allocate_shared).
template <typename T>
struct Allocator {
  using value_type = T;
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

  Allocator() = default;
  template <typename U>
  Allocator(const Allocator<U>&) noexcept {}

  T* allocate(std::size_t k) { return static_cast<T*>(frame_pool::allocate(k * sizeof(T))); }
  void deallocate(T* p, std::size_t k) noexcept { frame_pool::deallocate(p, k * sizeof(T)); }

  template <typename U>
  bool operator==(const Allocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace rfs::sim::frame_pool
