// Unit tests for the discrete-event simulation kernel: event ordering,
// delays, synchronization primitives, futures, and the host/core model.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "sim/frame_pool.hpp"
#include "sim/host.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define RFS_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define RFS_TEST_ASAN 1
#endif
#endif
#ifdef RFS_TEST_ASAN
#include <sanitizer/asan_interface.h>
#endif

// Allocation counting (each tests/*.cpp builds into its own binary, so
// replacing global new/delete here is hermetic). The frame-pool and
// detached-registry tests pin how often frames reach the heap.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_frees{0};

void counted_free(void* p) noexcept {
  if (p != nullptr) g_frees.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }

namespace rfs::sim {
namespace {

TEST(Engine, StartsAtZeroAndAdvances) {
  Engine eng;
  EXPECT_EQ(eng.now(), 0u);
  Time end = 0;
  auto body = [&]() -> Task<void> {
    co_await delay(250);
    end = Engine::current()->now();
  };
  spawn(eng, body());
  eng.run();
  EXPECT_EQ(end, 250u);
  EXPECT_EQ(eng.now(), 250u);
}

TEST(Engine, FifoTieBreakAtSameTime) {
  Engine eng;
  std::vector<int> order;
  auto mk = [&](int id) -> Task<void> {
    co_await delay(10);
    order.push_back(id);
  };
  spawn(eng, mk(1));
  spawn(eng, mk(2));
  spawn(eng, mk(3));
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, EventsExecuteInTimeOrder) {
  Engine eng;
  std::vector<int> order;
  auto mk = [&](int id, Duration d) -> Task<void> {
    co_await delay(d);
    order.push_back(id);
  };
  spawn(eng, mk(3, 30));
  spawn(eng, mk(1, 10));
  spawn(eng, mk(2, 20));
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, RunUntilStopsAtDeadline) {
  Engine eng;
  int fired = 0;
  auto mk = [&](Duration d) -> Task<void> {
    co_await delay(d);
    ++fired;
  };
  spawn(eng, mk(100));
  spawn(eng, mk(200));
  eng.run_until(150);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(eng.now(), 150u);
  eng.run();
  EXPECT_EQ(fired, 2);
}

TEST(Engine, DelayUntilPastIsImmediate) {
  Engine eng;
  Time observed = 123;
  auto body = [&]() -> Task<void> {
    co_await delay(50);
    co_await delay_until(10);  // already past
    observed = Engine::current()->now();
  };
  spawn(eng, body());
  eng.run();
  EXPECT_EQ(observed, 50u);
}

TEST(Task, NestedAwaitPropagatesValue) {
  Engine eng;
  int result = 0;
  auto inner = []() -> Task<int> {
    co_await delay(5);
    co_return 21;
  };
  auto outer = [&]() -> Task<void> {
    int a = co_await inner();
    int b = co_await inner();
    result = a + b;
  };
  spawn(eng, outer());
  eng.run();
  EXPECT_EQ(result, 42);
  EXPECT_EQ(eng.now(), 10u);
}

TEST(Task, ExceptionPropagatesToAwaiter) {
  Engine eng;
  bool caught = false;
  auto thrower = []() -> Task<void> {
    co_await delay(1);
    throw std::runtime_error("boom");
  };
  auto body = [&]() -> Task<void> {
    try {
      co_await thrower();
    } catch (const std::runtime_error&) {
      caught = true;
    }
  };
  spawn(eng, body());
  eng.run();
  EXPECT_TRUE(caught);
}

TEST(Event, BroadcastWakesAllWaiters) {
  Engine eng;
  Event ev;
  int woken = 0;
  auto waiter = [&]() -> Task<void> {
    co_await ev.wait();
    ++woken;
  };
  auto setter = [&]() -> Task<void> {
    co_await delay(100);
    ev.set();
  };
  spawn(eng, waiter());
  spawn(eng, waiter());
  spawn(eng, setter());
  eng.run();
  EXPECT_EQ(woken, 2);
  EXPECT_EQ(eng.now(), 100u);
}

TEST(Event, SetBeforeWaitDoesNotBlock) {
  Engine eng;
  Event ev;
  ev.set();
  Time when = 1;
  auto waiter = [&]() -> Task<void> {
    co_await ev.wait();
    when = Engine::current()->now();
  };
  spawn(eng, waiter());
  eng.run();
  EXPECT_EQ(when, 0u);
}

TEST(Event, WaitersWakeInTheOrderTheyStartedWaiting) {
  Engine eng;
  Event ev;
  std::vector<int> order;
  // Spawned 0..4, but each starts waiting later than the next one.
  auto waiter = [&](int id) -> Task<void> {
    co_await delay(static_cast<Duration>(10 - 2 * id));
    co_await ev.wait();
    order.push_back(id);
  };
  for (int id = 0; id < 5; ++id) spawn(eng, waiter(id));
  eng.run();
  EXPECT_EQ(ev.waiter_count(), 5u);
  ev.pulse();
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{4, 3, 2, 1, 0}));
  EXPECT_EQ(ev.waiter_count(), 0u);
}

TEST(Event, FrameDestroyedWhileWaitingUnlinksItself) {
  Engine eng;
  eng.make_current();
  Event ev;
  std::vector<int> order;
  auto waiter = [&](int id) -> Task<void> {
    co_await ev.wait();
    order.push_back(id);
  };
  spawn(eng, waiter(1));
  eng.run();
  // Started by hand, not spawned: it parks on the event and its frame is
  // then destroyed with the Waiter still linked in the middle of the list.
  auto middle = waiter(2).release();
  middle.resume();
  spawn(eng, waiter(3));
  eng.run();
  ASSERT_EQ(ev.waiter_count(), 3u);

  middle.destroy();
  EXPECT_EQ(ev.waiter_count(), 2u);
  ev.pulse();
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_EQ(ev.waiter_count(), 0u);
  ev.pulse();  // nothing stale left to resume
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(Event, EventDestroyedFirstDetachesItsWaiters) {
  Engine eng;
  auto ev = std::make_unique<Event>();
  bool resumed = false;
  auto waiter = [&](Event* e) -> Task<void> {
    co_await e->wait();
    resumed = true;
  };
  spawn(eng, waiter(ev.get()));
  spawn(eng, waiter(ev.get()));
  eng.run();
  ev.reset();  // the actors' Waiters now point at a dead event...
  eng.drain_detached();  // ...and their destructors must not touch it
  EXPECT_FALSE(resumed);
  EXPECT_EQ(eng.detached_count(), 0u);
}

TEST(Channel, FifoDelivery) {
  Engine eng;
  Channel<int> ch;
  std::vector<int> got;
  auto consumer = [&]() -> Task<void> {
    for (int i = 0; i < 3; ++i) {
      auto v = co_await ch.recv();
      EXPECT_TRUE(v.has_value());
      got.push_back(*v);
    }
  };
  auto producer = [&]() -> Task<void> {
    ch.send(1);
    co_await delay(10);
    ch.send(2);
    ch.send(3);
  };
  spawn(eng, consumer());
  spawn(eng, producer());
  eng.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
}

TEST(Channel, CloseWakesReceiverWithNullopt) {
  Engine eng;
  Channel<int> ch;
  bool saw_end = false;
  auto consumer = [&]() -> Task<void> {
    auto v = co_await ch.recv();
    saw_end = !v.has_value();
  };
  auto closer = [&]() -> Task<void> {
    co_await delay(5);
    ch.close();
  };
  spawn(eng, consumer());
  spawn(eng, closer());
  eng.run();
  EXPECT_TRUE(saw_end);
}

TEST(Channel, DrainsQueuedItemsAfterClose) {
  Engine eng;
  Channel<int> ch;
  ch.send(7);
  ch.close();
  std::vector<int> got;
  bool end = false;
  auto consumer = [&]() -> Task<void> {
    while (true) {
      auto v = co_await ch.recv();
      if (!v) {
        end = true;
        break;
      }
      got.push_back(*v);
    }
  };
  spawn(eng, consumer());
  eng.run();
  EXPECT_EQ(got, (std::vector<int>{7}));
  EXPECT_TRUE(end);
}

TEST(Semaphore, LimitsConcurrency) {
  Engine eng;
  Semaphore sem(2);
  int active = 0;
  int peak = 0;
  auto worker = [&]() -> Task<void> {
    co_await sem.acquire();
    ++active;
    peak = std::max(peak, active);
    co_await delay(100);
    --active;
    sem.release();
  };
  for (int i = 0; i < 5; ++i) spawn(eng, worker());
  eng.run();
  EXPECT_EQ(peak, 2);
  // 5 workers, 2 at a time, 100 ns each -> ceil(5/2)*100 = 300.
  EXPECT_EQ(eng.now(), 300u);
}

TEST(Semaphore, TryAcquire) {
  Engine eng;
  eng.make_current();
  Semaphore sem(1);
  EXPECT_TRUE(sem.try_acquire());
  EXPECT_FALSE(sem.try_acquire());
  sem.release();
  EXPECT_TRUE(sem.try_acquire());
}

TEST(Mutex, MutualExclusion) {
  Engine eng;
  Mutex mu;
  bool inside = false;
  bool violated = false;
  auto worker = [&]() -> Task<void> {
    co_await mu.lock();
    if (inside) violated = true;
    inside = true;
    co_await delay(50);
    inside = false;
    mu.unlock();
  };
  for (int i = 0; i < 4; ++i) spawn(eng, worker());
  eng.run();
  EXPECT_FALSE(violated);
  EXPECT_EQ(eng.now(), 200u);
}

TEST(Future, AwaitCompletesOnSet) {
  Engine eng;
  Promise<int> p;
  Future<int> f = p.get_future();
  int got = 0;
  auto consumer = [&]() -> Task<void> { got = co_await f.get(); };
  auto producer = [&]() -> Task<void> {
    co_await delay(30);
    p.set_value(99);
  };
  spawn(eng, consumer());
  spawn(eng, producer());
  eng.run();
  EXPECT_EQ(got, 99);
  EXPECT_TRUE(f.ready());
  EXPECT_EQ(f.peek(), 99);
}

TEST(Future, ReadyBeforeAwait) {
  Engine eng;
  Promise<int> p;
  p.set_value(5);
  auto f = p.get_future();
  int got = 0;
  auto consumer = [&]() -> Task<void> { got = co_await f.get(); };
  spawn(eng, consumer());
  eng.run();
  EXPECT_EQ(got, 5);
}

TEST(WaitGroup, WaitsForAll) {
  Engine eng;
  WaitGroup wg(3);
  Time done_at = 0;
  auto worker = [&](Duration d) -> Task<void> {
    co_await delay(d);
    wg.done();
  };
  auto waiter = [&]() -> Task<void> {
    co_await wg.wait();
    done_at = Engine::current()->now();
  };
  spawn(eng, waiter());
  spawn(eng, worker(10));
  spawn(eng, worker(50));
  spawn(eng, worker(30));
  eng.run();
  EXPECT_EQ(done_at, 50u);
}

TEST(Host, ComputeOccupiesCore) {
  Engine eng;
  Host host("n0", 2, 1024);
  auto worker = [&]() -> Task<void> { co_await host.compute(100); };
  for (int i = 0; i < 4; ++i) spawn(eng, worker());
  eng.run();
  // 4 kernels, 2 cores: finishes at 200.
  EXPECT_EQ(eng.now(), 200u);
  EXPECT_EQ(host.busy_ns(), 400u);
}

TEST(Host, TryAcquireReflectsBusyCores) {
  Engine eng;
  eng.make_current();
  Host host("n0", 1, 1024);
  EXPECT_TRUE(host.try_acquire_core());
  EXPECT_FALSE(host.try_acquire_core());
  EXPECT_EQ(host.free_cores(), 0u);
  host.release_core();
  EXPECT_EQ(host.free_cores(), 1u);
}

TEST(Host, MemoryAccounting) {
  Engine eng;
  Host host("n0", 1, 1000);
  EXPECT_TRUE(host.reserve_memory(600).ok());
  EXPECT_FALSE(host.reserve_memory(600).ok());
  EXPECT_EQ(host.free_memory(), 400u);
  host.release_memory(600);
  EXPECT_EQ(host.free_memory(), 1000u);
}

TEST(Determinism, TwoRunsIdenticalSchedule) {
  auto run_once = [] {
    Engine eng;
    std::vector<std::pair<int, Time>> log;
    Semaphore sem(1);
    auto worker = [&](int id, Duration d) -> Task<void> {
      co_await sem.acquire();
      co_await delay(d);
      log.emplace_back(id, Engine::current()->now());
      sem.release();
    };
    for (int i = 0; i < 10; ++i) spawn(eng, worker(i, 7 * (i % 3) + 1));
    eng.run();
    return log;
  };
  EXPECT_EQ(run_once(), run_once());
}

/// Counts its own destruction in a per-actor slot, so a test can tell
/// which actors' frames were destroyed, and how many times.
struct DestructionProbe {
  std::vector<int>* destroyed;
  int id;
  ~DestructionProbe() { ++(*destroyed)[id]; }
};

TEST(DetachedRegistry, DrainDestroysExactlyTheParkedActorsOnce) {
  constexpr int kActors = 12;
  std::vector<int> destroyed(kActors, 0);
  Event never;  // parked actors wait on this forever
  Engine eng;   // declared last: its destructor's drain runs first
  auto actor = [](std::vector<int>* destroyed, int id, Event* park) -> Task<void> {
    DestructionProbe probe{destroyed, id};
    co_await delay(static_cast<Duration>(id));
    if (park != nullptr) co_await park->wait();
  };
  auto parks = [](int id) { return id % 3 == 0; };
  for (int id = 0; id < kActors; ++id) {
    spawn(eng, actor(&destroyed, id, parks(id) ? &never : nullptr));
  }
  eng.run();

  // Completed actors destroyed themselves; parked ones are still registered.
  EXPECT_EQ(eng.detached_count(), 4u);
  for (int id = 0; id < kActors; ++id) EXPECT_EQ(destroyed[id], parks(id) ? 0 : 1) << id;

  eng.drain_detached();
  EXPECT_EQ(eng.detached_count(), 0u);
  for (int id = 0; id < kActors; ++id) EXPECT_EQ(destroyed[id], 1) << id;

  // A second drain (as ~Engine runs) finds nothing left to destroy.
  eng.drain_detached();
  for (int id = 0; id < kActors; ++id) EXPECT_EQ(destroyed[id], 1) << id;
}

TEST(DetachedRegistry, SpawnAndCompleteCyclesLeaveNothingRegistered) {
  Engine eng;
  std::uint64_t completed = 0;
  auto actor = [](std::uint64_t* done) -> Task<void> {
    co_await delay(1);
    ++*done;
  };
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 1000; ++i) spawn(eng, actor(&completed));
    eng.run();
    ASSERT_EQ(eng.detached_count(), 0u) << round;
  }
  EXPECT_EQ(completed, 100000u);
  EXPECT_EQ(eng.pending(), 0u);
}

// A warmed spawn/complete cycle whose live frames fit under the pool cap
// reuses pooled frames and allocates nothing; a burst past the cap
// allocates exactly the frames beyond it (the pool kept only kCap).
TEST(DetachedRegistry, WarmSpawnAllocatesOnlyPastThePoolCap) {
  Engine eng;
  auto actor = []() -> Task<void> { co_await delay(1); };
  auto cycle_allocations = [&](std::size_t actors) {
    const std::uint64_t before = g_allocations.load();
    for (std::size_t i = 0; i < actors; ++i) spawn(eng, actor());
    eng.run();
    return g_allocations.load() - before;
  };
  constexpr std::size_t kBurst = 1000;
  static_assert(kBurst > frame_pool::kCap);
  // Warm-up: grows the event queue to the burst's capacity and fills the
  // frame class to its cap.
  (void)cycle_allocations(kBurst);

  EXPECT_EQ(cycle_allocations(frame_pool::kCap), 0u);
  EXPECT_EQ(cycle_allocations(kBurst), kBurst - frame_pool::kCap);
  EXPECT_EQ(cycle_allocations(frame_pool::kCap), 0u);
}

TEST(FramePool, ReusesBlocksWithinASizeClass) {
  // 97 and 112 bytes share the 112-byte class; 200 bytes does not.
  void* a = frame_pool::allocate(100);
  frame_pool::deallocate(a, 100);
  const std::uint64_t before = g_allocations.load();
  void* b = frame_pool::allocate(97);
  EXPECT_EQ(b, a);  // LIFO: the block just freed comes back first
  frame_pool::deallocate(b, 97);
  void* c = frame_pool::allocate(112);
  EXPECT_EQ(c, a);
  void* d = frame_pool::allocate(200);
  EXPECT_NE(d, a);
  frame_pool::deallocate(d, 200);
  frame_pool::deallocate(c, 112);
  // Only the 200-byte class could have needed the heap, once at most.
  EXPECT_LE(g_allocations.load() - before, 1u);
  EXPECT_EQ(frame_pool::cached(97), frame_pool::cached(112));
}

TEST(FramePool, OversizeRequestsBypassThePool) {
  constexpr std::size_t kBig = frame_pool::kMaxBlock + 1;
  const std::uint64_t allocs = g_allocations.load();
  const std::uint64_t frees = g_frees.load();
  for (int i = 0; i < 3; ++i) {
    void* p = frame_pool::allocate(kBig);
    frame_pool::deallocate(p, kBig);
  }
  EXPECT_EQ(g_allocations.load() - allocs, 3u);
  EXPECT_EQ(g_frees.load() - frees, 3u);
  EXPECT_EQ(frame_pool::cached(kBig), 0u);
}

TEST(FramePool, FreesPastTheCapReturnToTheHeap) {
  constexpr std::size_t kSize = 48;
  constexpr std::size_t kExtra = 10;
  std::vector<void*> blocks(frame_pool::kCap + kExtra);  // allocated before counting
  const std::uint64_t frees = g_frees.load();
  for (auto& b : blocks) b = frame_pool::allocate(kSize);
  EXPECT_EQ(frame_pool::cached(kSize), 0u);
  for (void* b : blocks) frame_pool::deallocate(b, kSize);
  EXPECT_EQ(frame_pool::cached(kSize), frame_pool::kCap);
  EXPECT_EQ(g_frees.load() - frees, kExtra);
}

TEST(FramePool, DestroyedFrameIsPoisonedUnderAsan) {
#ifdef RFS_TEST_ASAN
  auto h = []() -> Task<void> { co_return; }().release();
  void* frame = h.address();
  EXPECT_EQ(__asan_address_is_poisoned(frame), 0);
  h.destroy();
  // Resuming it now would be an ASan report, as with a heap-freed frame.
  EXPECT_NE(__asan_address_is_poisoned(frame), 0);
#else
  GTEST_SKIP() << "built without AddressSanitizer";
#endif
}

}  // namespace
}  // namespace rfs::sim
