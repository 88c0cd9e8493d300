// invoke_hot / invoke_ft: one client drives a closed loop of pooled
// invocations against HotAlways echo workers spread over a few
// executors. invoke_hot leaves fault tolerance off, so the data-plane fast
// path (sim engine, fabric QP/CQ, rdmalib, executor worker,
// Invoker::invoke_pooled) does almost all the work. invoke_ft turns on
// deadlines, retries, checksums and hedging and makes one executor gray
// (short pauses, well under the deadline), so the same invoker layer runs
// its timer, tag, checksum, hedge-and-cancel and health paths.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <memory>
#include <span>
#include <vector>

#include "cluster/harness.hpp"
#include "common/rng.hpp"
#include "fabric/cq.hpp"
#include "fabric/fabric.hpp"
#include "fabric/qp.hpp"
#include "workloads.hpp"

namespace rfb {
namespace {

using namespace rfs;

// Payload sizes are log-uniform from 64 B to 4 KiB. Each latency quantile
// then sits on a continuous stretch of sizes and moves with the seed only
// as much as the sample does; a mix of a few fixed sizes pins p50 and p99
// to one size each, where every seed reads the same virtual time.
constexpr double kMinPayload = 64;
constexpr std::size_t kMaxPayload = 4096;
/// Payload sizes of the fabric and invoke ladders, log-spaced over the mix.
constexpr std::array<std::size_t, 4> kLadderSizes{64, 256, 1024, 4096};

constexpr unsigned kExecutors = 4;
constexpr unsigned kCoresPerExecutor = 2;
constexpr std::uint32_t kWorkers = kExecutors * kCoresPerExecutor;
/// Invocations in flight (closed loop): half the workers, so a hedge
/// always finds a second worker.
constexpr unsigned kInFlight = 4;
constexpr std::size_t kSlots = kWorkers;

/// Measured invocations per requested second of run time (about one CPU
/// second of work per requested second on a 4-vCPU KVM guest).
constexpr double kOpsPerSecondHot = 200'000;
constexpr double kOpsPerSecondFt = 80'000;
constexpr double kWarmupShare = 0.05;
/// The measured phase is timed in this many equal chunks of invocations.
constexpr std::uint64_t kChunks = 200;
/// Raw ping-pongs per timed chunk of the fabric ladder.
constexpr unsigned kPingPongChunk = 500;
/// Reference-kernel runs that set the speed scale of setup_s.
constexpr unsigned kSetupKernelRuns = 40;

/// Latency recorded for a failed invocation: it misses every limit.
constexpr double kMissNs = 1e12;

/// Paper value (Sec. V-A, Fig. 8): hot invocation overhead over raw RDMA.
constexpr double kPaperHotOverheadNs = 326;
/// Paper value (Fig. 9): bare-metal sandbox + worker spawn.
constexpr double kPaperSpawnUs = 25'000;

std::uint16_t draw_size(Rng& rng) {
  const double log2_span = std::log2(static_cast<double>(kMaxPayload) / kMinPayload);
  return static_cast<std::uint16_t>(std::lround(kMinPayload * std::exp2(log2_span * rng.uniform())));
}

cluster::ScenarioSpec invoke_spec(bool fault_tolerant, std::uint64_t seed) {
  auto spec = cluster::ScenarioSpec::uniform(kExecutors, kCoresPerExecutor,
                                             /*memory_bytes=*/16ull << 30, /*clients=*/1);
  spec.assert_drained = false;
  if (fault_tolerant) {
    auto& ft = spec.config.fault_tolerance;
    ft.invocation_deadline = 1_ms;
    ft.retry_budget = 3;
    ft.checksum = true;
    ft.hedging = true;
    ft.hedge_delay = 0;  // auto: a multiple of the observed latency EWMA
    spec.inject_worker_faults = true;
    spec.fault_seed = seed;
  }
  return spec;
}

/// The gray executor of invoke_ft: occasional pauses well under the 1 ms
/// deadline, never a crash, a wedge or a corruption, so nothing times out
/// and nothing is quarantined mid-run.
net::WorkerFaultSpec gray_spec() {
  net::WorkerFaultSpec gray;
  gray.gray_p = 0.02;
  gray.gray_pause_min = 50_us;
  gray.gray_pause_max = 200_us;
  return gray;
}

/// Shared state of one closed-loop batch of invocations.
struct Loop {
  rfaas::Invoker* invoker = nullptr;
  sim::Engine* engine = nullptr;
  Spans* spans = nullptr;
  std::uint32_t parent = 0;
  std::span<const std::uint8_t> payload;
  std::span<const std::uint16_t> sizes;      ///< one payload size per invocation
  std::vector<double>* latency = nullptr;    ///< per invocation, ns (null = warm-up)
  std::uint64_t total = 0;
  std::uint64_t next = 0;
  std::uint64_t finished = 0;
  std::uint64_t failed = 0;
  std::uint64_t size_mismatch = 0;
  /// Closes a timed chunk every `chunk` finished invocations (measured
  /// phase only).
  std::uint64_t chunk = 0;
  ChunkTimer* timer = nullptr;
};

sim::Task<void> closed_loop_client(Loop& loop, std::uint32_t lane) {
  while (loop.next < loop.total) {
    const std::uint64_t i = loop.next++;
    const std::size_t size = loop.sizes[i];
    const Time t0 = loop.engine->now();
    auto r = co_await loop.invoker->invoke_pooled(0, loop.payload.first(size));
    const Time t1 = loop.engine->now();
    bool ok = r.ok;
    if (ok && r.output_bytes != size) {
      ++loop.size_mismatch;
      ok = false;
    }
    if (!ok) ++loop.failed;
    if (loop.latency != nullptr) {
      (*loop.latency)[i] = ok ? static_cast<double>(t1 - t0) : kMissNs;
    }
    loop.spans->add_virtual("invoke_pooled", loop.parent, static_cast<std::int64_t>(t0),
                            static_cast<std::int64_t>(t1), lane);
    ++loop.finished;
    if (loop.timer != nullptr && loop.finished % loop.chunk == 0) loop.timer->boundary();
  }
}

void run_closed_loop(cluster::Harness& h, Loop& loop, StepStats& stats) {
  for (unsigned c = 0; c < kInFlight; ++c) h.spawn(closed_loop_client(loop, c + 1));
  drive(h.engine(), [&] { return loop.finished == loop.total; }, stats);
}

/// Client- and executor-side fault-tolerance counters.
struct FtCounters {
  std::uint64_t retries = 0, timeouts = 0, corruptions = 0, hedges = 0, hedge_wins = 0,
                breaker_trips = 0, rejections = 0, dedup_replays = 0, cancelled_drops = 0,
                deadline_drops = 0, busy_ns = 0;

  static FtCounters read(cluster::Harness& h, const rfaas::Invoker& inv) {
    FtCounters c;
    c.retries = inv.ft_retries();
    c.timeouts = inv.ft_timeouts();
    c.corruptions = inv.ft_corruptions();
    c.hedges = inv.hedges_launched();
    c.hedge_wins = inv.hedge_wins();
    c.breaker_trips = inv.breaker_trips();
    c.rejections = inv.total_rejections();
    for (std::size_t i = 0; i < h.executor_count(); ++i) {
      c.dedup_replays += h.executor(i).dedup_replays();
      c.cancelled_drops += h.executor(i).cancelled_drops();
      c.deadline_drops += h.executor(i).deadline_drops();
      c.busy_ns += h.executor_host(i).busy_ns();
    }
    return c;
  }
};

struct RawRtt {
  double rtt_ns = 0;  ///< virtual round trip
  double cpu_ns = 0;  ///< process CPU per round trip
};

/// Raw QueuePair/CompletionQueue ping-pong at `bytes` (Fig. 8's RDMA
/// baseline): WriteImm both ways, inlined when the payload fits.
RawRtt raw_pingpong(std::size_t bytes, unsigned reps, Spans& spans, std::uint32_t parent) {
  Scoped span(spans, "fabric.pingpong", parent);
  sim::Engine eng;
  eng.make_current();
  const rfaas::Config config;
  fabric::Fabric fab(eng, config.network);
  auto& a = fab.create_device("ping");
  auto& b = fab.create_device("pong");
  auto* pda = a.alloc_pd();
  auto* pdb = b.alloc_pd();
  fabric::CompletionQueue sa(fab.model()), ra(fab.model()), sb(fab.model()), rb(fab.model());
  auto* qa = a.create_qp(pda, &sa, &ra);
  auto* qb = b.create_qp(pdb, &sb, &rb);
  fabric::QueuePair::connect_pair(*qa, *qb);
  Bytes ba(bytes), bb(bytes);
  auto* mra = pda->register_memory(ba.data(), ba.size(), fabric::LocalWrite | fabric::RemoteWrite);
  auto* mrb = pdb->register_memory(bb.data(), bb.size(), fabric::LocalWrite | fabric::RemoteWrite);
  const bool inl = bytes <= fab.model().max_inline;
  auto post = [&](fabric::QueuePair* qp, Bytes& src, std::uint32_t lkey, Bytes& dst,
                  std::uint32_t rkey) {
    fabric::SendWr wr;
    wr.opcode = fabric::Opcode::WriteImm;
    wr.sge = {{reinterpret_cast<std::uint64_t>(src.data()), static_cast<std::uint32_t>(bytes),
               lkey}};
    wr.remote_addr = reinterpret_cast<std::uint64_t>(dst.data());
    wr.rkey = rkey;
    wr.inline_data = inl;
    wr.signaled = false;
    return qp->post_send(wr).ok();
  };
  bool ok = true;
  std::vector<double> rtts;
  rtts.reserve(reps);
  ChunkTimer timer(reps / kPingPongChunk);
  auto body = [&]() -> sim::Task<void> {
    for (unsigned i = 0; i < reps; ++i) {
      if (i != 0 && i % kPingPongChunk == 0) timer.boundary();
      const Time start = eng.now();
      ok &= qb->post_recv({1, {}}).ok();
      ok &= qa->post_recv({2, {}}).ok();
      ok &= post(qa, ba, mra->lkey(), bb, mrb->rkey());
      const auto pong = co_await rb.wait_polling();
      ok &= pong.status == fabric::WcStatus::Success;
      ok &= post(qb, bb, mrb->lkey(), ba, mra->rkey());
      const auto ping = co_await ra.wait_polling();
      ok &= ping.status == fabric::WcStatus::Success;
      rtts.push_back(static_cast<double>(eng.now() - start));
    }
    timer.boundary();
  };
  timer.start();
  sim::spawn(eng, body());
  eng.run();
  RawRtt out;
  if (!ok || rtts.size() != reps) return out;
  std::sort(rtts.begin(), rtts.end());
  out.rtt_ns = percentile_sorted(rtts, 50);
  out.cpu_ns = median_of(timer.chunk_seconds()) * 1e9 / kPingPongChunk;
  return out;
}

/// Serial invoke_pooled at one payload size on the benchmark's own
/// deployment: the hot-invocation RTT Fig. 8 compares with raw RDMA.
double invoke_ladder_p50(cluster::Harness& h, rfaas::Invoker& inv,
                         std::span<const std::uint8_t> payload, std::size_t size, unsigned reps,
                         Spans& spans, std::uint32_t parent, bool& ok) {
  Scoped span(spans, "ladder.invoke_pooled", parent);
  std::vector<double> lat;
  lat.reserve(reps);
  bool done = false;
  auto body = [&]() -> sim::Task<void> {
    for (unsigned i = 0; i < reps; ++i) {
      const Time t0 = h.engine().now();
      auto r = co_await inv.invoke_pooled(0, payload.first(size));
      const Time t1 = h.engine().now();
      ok &= r.ok && r.output_bytes == size;
      lat.push_back(static_cast<double>(t1 - t0));
      spans.add_virtual("invoke_pooled", span.id(), static_cast<std::int64_t>(t0),
                        static_cast<std::int64_t>(t1), 0);
    }
    done = true;
  };
  StepStats ignored;
  h.spawn(body());
  drive(h.engine(), [&] { return done; }, ignored);
  std::sort(lat.begin(), lat.end());
  return percentile_sorted(lat, 50);
}

std::string size_tag(std::size_t bytes) { return ".b" + std::to_string(bytes); }

}  // namespace

Report run_invoke(const Options& opt, bool fault_tolerant, Spans& spans) {
  Report rep;
  ChunkTimer setup_timer(1, kSetupKernelRuns);
  setup_timer.start();
  const double rate = fault_tolerant ? kOpsPerSecondFt : kOpsPerSecondHot;
  const auto total = static_cast<std::uint64_t>(
      std::max(2000.0, std::round(opt.seconds * rate)));
  const auto warmup = static_cast<std::uint64_t>(
      std::max(1000.0, std::round(static_cast<double>(total) * kWarmupShare)));

  Scoped root(spans, fault_tolerant ? "invoke_ft" : "invoke_hot");

  // Inputs, all from the seed: payload bytes and one size per invocation.
  Rng rng(opt.seed);
  std::vector<std::uint8_t> payload(kMaxPayload);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next());
  std::vector<std::uint16_t> sizes(warmup + total);
  for (auto& s : sizes) s = draw_size(rng);

  double t = cpu_seconds();
  std::unique_ptr<cluster::Harness> h;
  {
    Scoped s(spans, "Harness::Harness", root.id());
    h = std::make_unique<cluster::Harness>(invoke_spec(fault_tolerant, opt.seed));
  }
  const double build_s = cpu_seconds() - t;
  t = cpu_seconds();
  {
    Scoped s(spans, "Harness::start", root.id());
    h->registry().add_echo();
    h->start();
  }
  const double start_s = cpu_seconds() - t;
  const fabric::DeviceId gray_device = h->executor(0).device().id();
  if (fault_tolerant) h->worker_fault_injector()->set_executor(gray_device, gray_spec());

  auto invoker = h->make_invoker(0, /*client_id=*/1);
  bool alloc_ok = false;
  const double alloc_rss0 = current_rss_mb();
  const double alloc_wall0 = wall_seconds();
  {
    Scoped s(spans, "Invoker::allocate", root.id());
    bool done = false;
    auto body = [&]() -> sim::Task<void> {
      rfaas::AllocationSpec a;
      a.function_name = "echo";
      a.workers = kWorkers;
      a.policy = rfaas::InvocationPolicy::HotAlways;
      alloc_ok = (co_await invoker->allocate(a)).ok();
      done = true;
    };
    StepStats ignored;
    h->spawn(body());
    drive(h->engine(), [&] { return done; }, ignored);
  }
  const double alloc_wall = wall_seconds() - alloc_wall0;
  const double alloc_rss = current_rss_mb() - alloc_rss0;
  rep.gate(alloc_ok && invoker->connected_workers() == kWorkers,
           "allocate connected every requested worker");
  if (!rep.correct) return rep;
  {
    Scoped s(spans, "Invoker::reserve_slots", root.id());
    invoker->reserve_slots(kSlots, kMaxPayload, kMaxPayload);
  }

  // Warm-up: pooled slots, worker buffers and the engine queue reach
  // their steady state before anything is measured.
  Loop warm;
  warm.invoker = invoker.get();
  warm.engine = &h->engine();
  warm.spans = &spans;
  warm.payload = payload;
  warm.sizes = std::span<const std::uint16_t>(sizes).first(warmup);
  warm.total = warmup;
  {
    Scoped s(spans, "warmup", root.id());
    warm.parent = s.id();
    StepStats ignored;
    run_closed_loop(*h, warm, ignored);
  }
  setup_timer.boundary();
  rep.setup_s = setup_timer.chunk_seconds().front();
  rep.gate(warm.failed == 0 && warm.size_mismatch == 0, "warm-up invocations succeed");

  // Measured phase: a fixed number of invocations.
  std::vector<double> latency(total);
  Loop m;
  m.invoker = invoker.get();
  m.engine = &h->engine();
  m.spans = &spans;
  m.payload = payload;
  m.sizes = std::span<const std::uint16_t>(sizes).subspan(warmup);
  m.latency = &latency;
  m.total = total;
  if (spans.enabled()) spans.reserve(total + 16);
  m.chunk = std::max<std::uint64_t>(1, total / kChunks);
  ChunkTimer timer(total / m.chunk);
  m.timer = &timer;
  const FtCounters ft0 = FtCounters::read(*h, *invoker);
  const Time v0 = h->engine().now();
  StepStats steps;
  HeapCounters heap0, heap1;
  {
    Scoped s(spans, "measure", root.id());
    m.parent = s.id();
    timer.start();
    heap0 = heap_counters();
    run_closed_loop(*h, m, steps);
    heap1 = heap_counters();
  }
  const Time v1 = h->engine().now();
  const FtCounters ft1 = FtCounters::read(*h, *invoker);

  rep.gate(m.finished == total, "every measured invocation completed");
  rep.gate(m.size_mismatch == 0, "every response is the size of its echoed payload");
  if (fault_tolerant) {
    const auto& injected = h->worker_fault_injector()->counters();
    rep.gate(injected.double_executions == 0, "zero double executions");
    rep.gate(ft1.corruptions == injected.corruptions, "detected == injected corruptions");
    rep.gate(injected.grays > 0, "the gray executor paused at least once");
  }
  rep.attempted = total;
  rep.failed = m.failed;

  const auto n = static_cast<double>(total);
  std::vector<double> sorted = latency;
  std::sort(sorted.begin(), sorted.end());
  const double cpu_per_op = median_of(timer.chunk_seconds()) / static_cast<double>(m.chunk);
  rep.add("ops_per_cpu_s", 1.0 / cpu_per_op, "1/s");
  rep.add("allocs_per_op", static_cast<double>(heap1.allocs - heap0.allocs) / n, "count");
  rep.add("vlat_p50_us", percentile_sorted(sorted, 50) / 1e3, "us");
  rep.add("vlat_p99_us", percentile_sorted(sorted, 99) / 1e3, "us");
  rep.add("vlat_p999_us", percentile_sorted(sorted, 99.9) / 1e3, "us");
  rep.add("ok_pct", 100.0 * (n - static_cast<double>(m.failed)) / n, "%");

  rep.add("vlat.samples", n, "count");
  rep.add("sim.events_per_op", static_cast<double>(steps.steps) / n, "count");
  rep.add("sim.cpu_ns_per_event", cpu_per_op * 1e9 * n / static_cast<double>(steps.steps), "ns");
  rep.add("sim.queue_peak", static_cast<double>(steps.queue_peak), "count");
  rep.add("heap.bytes_per_op", static_cast<double>(heap1.bytes - heap0.bytes) / n, "B");
  rep.add("heap.live_per_op",
          (static_cast<double>(heap1.allocs - heap0.allocs) -
           static_cast<double>(heap1.frees - heap0.frees)) / n,
          "count");
  const double kop = n / 1000.0;
  rep.add("invoker.retries_per_kop", static_cast<double>(ft1.retries - ft0.retries) / kop,
          "count");
  rep.add("invoker.timeouts", static_cast<double>(ft1.timeouts - ft0.timeouts), "count");
  rep.add("invoker.corruptions", static_cast<double>(ft1.corruptions - ft0.corruptions),
          "count");
  const auto hedges = ft1.hedges - ft0.hedges;
  rep.add("invoker.hedges_per_kop", static_cast<double>(hedges) / kop, "count");
  rep.add("invoker.hedge_win_pct",
          hedges == 0 ? 0.0
                      : 100.0 * static_cast<double>(ft1.hedge_wins - ft0.hedge_wins) /
                            static_cast<double>(hedges),
          "%");
  rep.add("invoker.breaker_trips", static_cast<double>(ft1.breaker_trips - ft0.breaker_trips),
          "count");
  rep.add("invoker.rejections", static_cast<double>(ft1.rejections - ft0.rejections), "count");
  rep.add("executor.dedup_replays", static_cast<double>(ft1.dedup_replays - ft0.dedup_replays),
          "count");
  rep.add("executor.cancelled_drops",
          static_cast<double>(ft1.cancelled_drops - ft0.cancelled_drops), "count");
  rep.add("executor.deadline_drops",
          static_cast<double>(ft1.deadline_drops - ft0.deadline_drops), "count");
  const double core_ns =
      static_cast<double>(kExecutors * kCoresPerExecutor) * static_cast<double>(v1 - v0);
  rep.add("executor.busy_pct",
          core_ns > 0 ? 100.0 * static_cast<double>(ft1.busy_ns - ft0.busy_ns) / core_ns : 0.0,
          "%");

  const rfaas::ColdStartBreakdown cold = invoker->cold_start();
  const double leases = static_cast<double>(std::max<std::size_t>(1, invoker->lease_count()));
  rep.add("alloc.cold_us", static_cast<double>(cold.total()) / 1e3, "us");
  rep.add("alloc.lease_us", static_cast<double>(cold.lease) / 1e3, "us");
  rep.add("alloc.spawn_us", static_cast<double>(cold.spawn_workers) / 1e3, "us");
  rep.add("alloc.connect_us", static_cast<double>(cold.connect_workers) / 1e3, "us");
  rep.add("alloc.code_us", static_cast<double>(cold.submit_code) / 1e3, "us");
  rep.add("alloc.wall_s", alloc_wall, "s");
  rep.add("alloc.rss_mb", alloc_rss, "MB");
  rep.add("harness.build_s", build_s, "s");
  rep.add("harness.start_s", start_s, "s");

  std::printf("%s: %llu invocations, %u in flight, %u workers on %u executors, "
              "%llu events; vlat p50/p99/p99.9 over %llu samples\n",
              fault_tolerant ? "invoke_ft" : "invoke_hot",
              static_cast<unsigned long long>(total), kInFlight, kWorkers, kExecutors,
              static_cast<unsigned long long>(steps.steps),
              static_cast<unsigned long long>(total));

  if (!opt.trace) return rep;

  // ---- Traced run only: fabric ladder, invoke ladder, overheads. ----
  constexpr unsigned kLadderInvocations = 2000;
  constexpr unsigned kLadderPingPongs = 20000;
  std::array<double, kLadderSizes.size()> invoke_p50{};
  bool ladder_ok = true;
  {
    Scoped s(spans, "ladder.invoke", root.id());
    for (std::size_t i = 0; i < kLadderSizes.size(); ++i) {
      invoke_p50[i] = invoke_ladder_p50(*h, *invoker, payload, kLadderSizes[i], kLadderInvocations,
                                        spans, s.id(), ladder_ok);
    }
  }
  rep.gate(ladder_ok, "ladder invocations succeed with full-size responses");
  invoker.reset();
  h.reset();

  std::array<RawRtt, kLadderSizes.size()> raw{};
  {
    Scoped s(spans, "ladder.fabric", root.id());
    for (std::size_t i = 0; i < kLadderSizes.size(); ++i) {
      raw[i] = raw_pingpong(kLadderSizes[i], kLadderPingPongs, spans, s.id());
    }
  }
  double raw_rtt_mix = 0, raw_cpu_mix = 0, overhead_mean = 0;
  std::printf("%-8s %12s %14s %12s %12s %10s\n", "size", "raw-rtt-us", "invoke-p50-us",
              "overhead-ns", "paper-ns", "error-%");
  // Equal weights: the ladder sizes are log-spaced over a log-uniform mix.
  const double w = 1.0 / static_cast<double>(kLadderSizes.size());
  for (std::size_t i = 0; i < kLadderSizes.size(); ++i) {
    rep.gate(raw[i].rtt_ns > 0, "raw ping-pong completes");
    const double overhead = invoke_p50[i] - raw[i].rtt_ns;
    raw_rtt_mix += w * raw[i].rtt_ns;
    raw_cpu_mix += w * raw[i].cpu_ns;
    overhead_mean += w * overhead;
    rep.add("fabric.raw_rtt_us" + size_tag(kLadderSizes[i]), raw[i].rtt_ns / 1e3, "us");
    rep.add("invoker.overhead_ns" + size_tag(kLadderSizes[i]), overhead, "ns");
    std::printf("%-8zu %12.3f %14.3f %12.0f %12.0f %10.1f\n", kLadderSizes[i],
                raw[i].rtt_ns / 1e3, invoke_p50[i] / 1e3, overhead, kPaperHotOverheadNs,
                100.0 * (overhead - kPaperHotOverheadNs) / kPaperHotOverheadNs);
  }
  rep.add("fabric.raw_rtt_us", raw_rtt_mix / 1e3, "us");
  rep.add("fabric.raw_cpu_ns_per_rtt", raw_cpu_mix, "ns");
  rep.add("invoker.overhead_ns", overhead_mean, "ns");
  rep.add("invoker.stack_cpu_ns_per_op", cpu_per_op * 1e9 - raw_cpu_mix, "ns");
  std::printf("mean hot overhead over raw RDMA: %.0f ns (paper %.0f ns, error %.1f%%)\n",
              overhead_mean, kPaperHotOverheadNs,
              100.0 * (overhead_mean - kPaperHotOverheadNs) / kPaperHotOverheadNs);
  // ColdStartBreakdown sums the stages over the allocation's leases; the
  // paper's spawn figure is per sandbox (one per lease).
  const double spawn_per_lease_us = static_cast<double>(cold.spawn_workers) / 1e3 / leases;
  std::printf("cold start (virtual, %.0f leases): lease %.1f us, spawn %.1f us per lease (paper "
              "~%.0f us, error %.1f%%), connect %.1f us, code %.1f us, total %.1f us\n",
              leases, static_cast<double>(cold.lease) / 1e3, spawn_per_lease_us, kPaperSpawnUs,
              100.0 * (spawn_per_lease_us - kPaperSpawnUs) / kPaperSpawnUs,
              static_cast<double>(cold.connect_workers) / 1e3,
              static_cast<double>(cold.submit_code) / 1e3,
              static_cast<double>(cold.total()) / 1e3);
  return rep;
}

}  // namespace rfb
