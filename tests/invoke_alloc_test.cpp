// Heap allocations per invocation on the real data path: Harness +
// Invoker::invoke_pooled against HotAlways echo workers, a closed loop of
// four callers with payloads from 64 B to 4 KiB, counted after a warm-up
// (pooled slots, frame pool, worker buffers, dedup ring, engine queue).
//   - fault tolerance off: at most 0.5 allocations per call;
//   - fault tolerance on (deadlines, retries, checksums, hedging, one gray
//     executor so hedges launch): at most 2 per call.
// Also: the double-execution registry allocates nothing per call.
// Every simulated component is counted: the client, the fabric, the
// executors and the background actors that run while the loop does.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "cluster/harness.hpp"
#include "common/rng.hpp"
#include "net/faulty.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
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

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace rfs::rfaas {
namespace {

constexpr unsigned kExecutors = 4;
constexpr unsigned kCoresPerExecutor = 2;
constexpr std::uint32_t kWorkers = kExecutors * kCoresPerExecutor;
constexpr unsigned kInFlight = 4;
constexpr std::size_t kMaxPayload = 4096;
constexpr std::uint64_t kWarmupCalls = 4000;
constexpr std::uint64_t kMeasuredCalls = 16000;

struct Loop {
  Invoker* invoker = nullptr;
  std::span<const std::uint8_t> payload;
  std::span<const std::uint16_t> sizes;
  std::uint64_t next = 0;
  std::uint64_t finished = 0;
  std::uint64_t failed = 0;
};

sim::Task<void> caller(Loop& loop) {
  while (loop.next < loop.sizes.size()) {
    const std::size_t size = loop.sizes[loop.next++];
    const InvocationResult r = co_await loop.invoker->invoke_pooled(0, loop.payload.first(size));
    if (!r.ok || r.output_bytes != size) ++loop.failed;
    ++loop.finished;
  }
}

/// Runs `sizes.size()` calls through kInFlight closed-loop callers.
void run_calls(cluster::Harness& h, Loop& loop) {
  for (unsigned c = 0; c < kInFlight; ++c) h.spawn(caller(loop));
  while (loop.finished < loop.sizes.size() && h.engine().step()) {
  }
}

struct Measured {
  double allocs_per_call = 0;
  std::uint64_t failed = 0;
  std::uint64_t hedges = 0;
};

Measured measure(bool fault_tolerant) {
  auto spec = cluster::ScenarioSpec::uniform(kExecutors, kCoresPerExecutor,
                                             /*memory_bytes=*/16ull << 30, /*clients=*/1);
  spec.assert_drained = false;
  if (fault_tolerant) {
    auto& ft = spec.config.fault_tolerance;
    ft.invocation_deadline = 1_ms;
    ft.retry_budget = 3;
    ft.checksum = true;
    ft.hedging = true;
    spec.inject_worker_faults = true;
    spec.fault_seed = 11;
  }
  cluster::Harness h(spec);
  h.registry().add_echo();
  h.start();
  if (fault_tolerant) {
    // Pauses well under the deadline: hedges launch, nothing times out.
    net::WorkerFaultSpec gray;
    gray.gray_p = 0.02;
    gray.gray_pause_min = 50_us;
    gray.gray_pause_max = 200_us;
    h.worker_fault_injector()->set_executor(h.executor(0).device().id(), gray);
  }

  auto invoker = h.make_invoker(0, /*client_id=*/1);
  bool allocated = false;
  h.spawn([](Invoker& inv, bool& ok) -> sim::Task<void> {
    AllocationSpec a;
    a.function_name = "echo";
    a.workers = kWorkers;
    a.policy = InvocationPolicy::HotAlways;
    ok = (co_await inv.allocate(a)).ok();
  }(*invoker, allocated));
  h.run_for(1_s);
  EXPECT_TRUE(allocated);
  EXPECT_EQ(invoker->connected_workers(), kWorkers);
  invoker->reserve_slots(kWorkers, kMaxPayload, kMaxPayload);

  // Log-uniform payload sizes from 64 B to 4 KiB, fixed by the seed.
  Rng rng(5);
  std::vector<std::uint8_t> payload(kMaxPayload);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next());
  std::vector<std::uint16_t> sizes(kWarmupCalls + kMeasuredCalls);
  for (auto& s : sizes) {
    s = static_cast<std::uint16_t>(std::lround(64.0 * std::exp2(6.0 * rng.uniform())));
  }
  const std::span<const std::uint16_t> all(sizes);

  Loop warm{invoker.get(), payload, all.first(kWarmupCalls)};
  run_calls(h, warm);
  EXPECT_EQ(warm.finished, kWarmupCalls);

  Loop loop{invoker.get(), payload, all.subspan(kWarmupCalls)};
  const std::uint64_t hedges_before = invoker->hedges_launched();
  const std::uint64_t before = g_allocations.load();
  run_calls(h, loop);
  const std::uint64_t allocations = g_allocations.load() - before;
  EXPECT_EQ(loop.finished, kMeasuredCalls);

  Measured m;
  m.allocs_per_call = static_cast<double>(allocations) / static_cast<double>(kMeasuredCalls);
  m.failed = warm.failed + loop.failed;
  m.hedges = invoker->hedges_launched() - hedges_before;
  return m;
}

TEST(InvokeAllocations, HotPathAllocatesAtMostOnceInTwoCalls) {
  const Measured m = measure(/*fault_tolerant=*/false);
  EXPECT_EQ(m.failed, 0u);
  EXPECT_LE(m.allocs_per_call, 0.5);
  RecordProperty("allocs_per_call", std::to_string(m.allocs_per_call));
}

TEST(InvokeAllocations, FaultTolerantPathAllocatesAtMostTwicePerCall) {
  const Measured m = measure(/*fault_tolerant=*/true);
  EXPECT_EQ(m.failed, 0u);
  EXPECT_GT(m.hedges, 0u) << "the gray executor should have triggered hedges";
  EXPECT_LE(m.allocs_per_call, 2.0);
  RecordProperty("allocs_per_call", std::to_string(m.allocs_per_call));
}

TEST(InvokeAllocations, ExecutionRegistryAllocatesNothingAfterWarmup) {
  // Every fault-tolerant execution is noted in the chaos ledger; it must
  // stay bounded however long a run goes.
  net::WorkerFaultInjector inj(1);
  for (std::uint64_t seq = 1; seq <= 1000; ++seq) ASSERT_TRUE(inj.note_execution(seq));
  const std::uint64_t before = g_allocations.load();
  for (std::uint64_t seq = 1001; seq <= 101000; ++seq) ASSERT_TRUE(inj.note_execution(seq));
  EXPECT_EQ(g_allocations.load() - before, 0u);
  EXPECT_EQ(inj.counters().double_executions, 0u);
}

}  // namespace
}  // namespace rfs::rfaas
