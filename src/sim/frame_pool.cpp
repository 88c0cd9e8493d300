#include "sim/frame_pool.hpp"

#include <cstdint>

#if defined(__SANITIZE_ADDRESS__)
#define RFS_FRAME_POOL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define RFS_FRAME_POOL_ASAN 1
#endif
#endif

#ifdef RFS_FRAME_POOL_ASAN
#include <sanitizer/asan_interface.h>
#define RFS_POISON(p, n) ASAN_POISON_MEMORY_REGION(p, n)
#define RFS_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION(p, n)
#else
#define RFS_POISON(p, n) ((void)(p), (void)(n))
#define RFS_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace rfs::sim::frame_pool {
namespace {

struct FreeBlock {
  FreeBlock* next;
};

struct ClassList {
  FreeBlock* head = nullptr;
  std::uint32_t count = 0;
};

// Trivially destructible, so the lists stay usable while other
// thread-local and static destructors run after the reaper below.
struct Pool {
  ClassList lists[kClasses];
  bool reaper_armed = false;
  bool retired = false;  // the thread is exiting: frees go to the heap
};

constinit thread_local Pool t_pool{};

constexpr std::size_t class_of(std::size_t n) { return n == 0 ? 0 : (n - 1) / kGranule; }
constexpr std::size_t class_bytes(std::size_t c) { return (c + 1) * kGranule; }

// Returns every cached block to the heap when its thread exits.
struct Reaper {
  Reaper() = default;
  Reaper(const Reaper&) = delete;
  Reaper& operator=(const Reaper&) = delete;
  ~Reaper() {
    for (std::size_t c = 0; c < kClasses; ++c) {
      ClassList& list = t_pool.lists[c];
      while (list.head != nullptr) {
        FreeBlock* b = list.head;
        RFS_UNPOISON(b, class_bytes(c));
        list.head = b->next;
        ::operator delete(b, class_bytes(c));
      }
      list.count = 0;
    }
    t_pool.retired = true;
  }
};

void arm_reaper() {
  thread_local Reaper reaper;  // constructed on first use, destroyed at thread exit
  t_pool.reaper_armed = true;
}

}  // namespace

void* allocate(std::size_t n) {
  if (n > kMaxBlock) return ::operator new(n);
  const std::size_t c = class_of(n);
  ClassList& list = t_pool.lists[c];
  FreeBlock* b = list.head;
  if (b == nullptr) return ::operator new(class_bytes(c));
  RFS_UNPOISON(b, class_bytes(c));
  list.head = b->next;
  --list.count;
  return b;
}

void deallocate(void* p, std::size_t n) noexcept {
  if (n > kMaxBlock) {
    ::operator delete(p, n);
    return;
  }
  const std::size_t c = class_of(n);
  ClassList& list = t_pool.lists[c];
  if (list.count >= kCap || t_pool.retired) {
    ::operator delete(p, class_bytes(c));
    return;
  }
  if (!t_pool.reaper_armed) arm_reaper();
  auto* b = static_cast<FreeBlock*>(p);
  b->next = list.head;
  list.head = b;
  ++list.count;
  RFS_POISON(b, class_bytes(c));
}

std::size_t cached(std::size_t n) {
  return n > kMaxBlock ? 0 : t_pool.lists[class_of(n)].count;
}

}  // namespace rfs::sim::frame_pool
