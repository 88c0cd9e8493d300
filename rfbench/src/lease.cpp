// lease_churn: the control plane under steady lease traffic, with the
// data plane idle. Two tenants share a ~2k-executor skewed spot fleet
// behind a sharded manager with admission control (set above the offered
// load) and a journal streaming to one warm standby:
//   - an open-loop Poisson tenant: many simulated clients multiplexed on a
//     few sessions, short holds;
//   - a closed-loop churn tenant (LeaseWorkload::churn): holds outlive the
//     lease timeout, so auto-renewal sends ExtendLease beside the grants
//     and releases.
// The traced run adds a replay of the same operation mix against a
// standalone ShardedResourceManager to time each manager-core call.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <queue>
#include <vector>

#include "cluster/harness.hpp"
#include "common/rng.hpp"
#include "rfaas/replica.hpp"
#include "rfaas/sharded_manager.hpp"
#include "workloads.hpp"

namespace rfb {
namespace {

using namespace rfs;

constexpr unsigned kExecutors = 2048;
constexpr unsigned kRacks = 8;
constexpr unsigned kShards = 8;
constexpr unsigned kOpenHosts = 4;
constexpr std::uint64_t kOpenMultiplex = 256;  // simulated clients per open-loop host
constexpr unsigned kChurnHosts = 8;
constexpr double kOpenHz = 10000;         // aggregate open-loop arrivals per virtual second
constexpr double kChurnHzPerHost = 50;    // closed-loop request rate of each churn host
constexpr Duration kChurnTimeout = 250_ms;  // churn holds are 3-6x this, kept by renewal
/// Virtual seconds of measured traffic per requested second of run time
/// (about one CPU second of work per requested second on a 4-vCPU KVM guest).
constexpr double kVirtualPerSecond = 5.6;
constexpr Duration kWarmup = 3_s;
/// Heartbeat-period chunks left out of the CPU estimate: the churn
/// tenant's ramp (longest hold: 6x its timeout).
constexpr std::size_t kRampChunks = 2;
/// Reference-kernel runs per chunk boundary (see ChunkTimer): chunks are
/// long, so each boundary samples the host speed several times.
constexpr unsigned kChunkKernelRuns = 20;
/// Reference-kernel runs that set the speed scale of setup_s.
constexpr unsigned kSetupKernelRuns = 40;

cluster::ScenarioSpec churn_spec() {
  auto spec = cluster::ScenarioSpec::large_fleet(kExecutors, kOpenHosts + kChurnHosts, kRacks,
                                                 /*seed=*/2023);
  spec.config.manager_shards = kShards;
  spec.config.scheduling = rfaas::SchedulingPolicy::PowerOfTwoChoices;
  spec.config.journal_enabled = true;
  // Admission on, with capacity far above the offered load: every request
  // passes the admission check and none is shed.
  spec.config.admission.capacity_hz = 4 * (kOpenHz + kChurnHosts * kChurnHzPerHost);
  spec.assert_drained = false;
  return spec;
}

std::vector<cluster::TenantWorkload> tenants(std::uint64_t seed) {
  cluster::TenantWorkload open;
  open.name = "open-poisson";
  open.clients = kOpenHosts;
  open.tenant_id = 101;
  // Under WFQ each churn client is a tenant of its own; this weight gives
  // the open tenant half of the admission capacity, over twice its load.
  open.weight = kChurnHosts;
  open.arrivals = cluster::ArrivalProcess::Poisson;
  open.multiplex = kOpenMultiplex;
  open.arrival_hz = kOpenHz / static_cast<double>(kOpenHosts * kOpenMultiplex);
  open.lease.workers_min = 1;
  open.lease.workers_max = 2;
  open.lease.memory_per_worker = 256ull << 20;
  open.lease.hold_min = 20_ms;
  open.lease.hold_max = 80_ms;
  open.lease.lease_timeout = 30_s;
  open.lease.seed = seed * 2 + 1;

  cluster::TenantWorkload churn;
  churn.name = "closed-churn";
  churn.clients = kChurnHosts;
  churn.arrivals = cluster::ArrivalProcess::Closed;
  churn.arrival_hz = kChurnHzPerHost;
  churn.lease = cluster::LeaseWorkload::churn(kChurnTimeout, seed * 2 + 2);
  churn.lease.workers_min = 1;
  churn.lease.workers_max = 2;
  churn.lease.memory_per_worker = 256ull << 20;
  return {open, churn};
}

/// Closes a timed chunk once per heartbeat period of virtual time (each
/// chunk holds one heartbeat round) and samples the lease requests the
/// manager has received (admitted plus shed) and Engine::pending():
/// run_multi_tenant_workload drives the engine itself, so a probe on the
/// engine is the only way to look inside the measured phase.
struct Probe {
  explicit Probe(std::size_t chunks) : timer(chunks, kChunkKernelRuns) {
    requests.reserve(chunks + 1);
  }
  ChunkTimer timer;
  std::vector<std::uint64_t> requests;
  std::size_t queue_peak = 0;
};

std::uint64_t requests_received(cluster::Harness& h) {
  return h.rm().admission().admitted() + h.rm().admission_sheds();
}

sim::Task<void> probe_loop(cluster::Harness& h, Time until, Duration every, Probe& probe) {
  while (h.engine().now() + every <= until) {
    co_await sim::delay(every);
    probe.timer.boundary();
    probe.requests.push_back(requests_received(h));
    probe.queue_peak = std::max(probe.queue_peak, h.engine().pending());
  }
}

/// Per-call timing of one manager-core operation.
struct CallTimer {
  double ns = 0;
  std::uint64_t calls = 0;
  template <typename Fn>
  auto time(Fn&& fn) {
    const auto t0 = std::chrono::steady_clock::now();
    auto r = fn();
    ns += std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - t0).count();
    ++calls;
    return r;
  }
  [[nodiscard]] double mean() const { return calls == 0 ? 0 : ns / static_cast<double>(calls); }
};

/// Replays the lease_churn operation mix against a standalone
/// ShardedResourceManager built like the harness's (same fleet shape,
/// shards, policy and journaling): `grants` grants at the measured
/// arrival rate, an open-loop share with short holds and a churn share
/// renewed every (timeout - margin) until its 3-6x-timeout hold ends,
/// and an expiry sweep per heartbeat period.
void replay_manager_core(const cluster::ScenarioSpec& spec, std::uint64_t seed,
                         std::uint64_t grants, double churn_share, double grants_per_s,
                         Report& rep, Spans& spans, std::uint32_t parent) {
  Scoped span(spans, "replay.manager_core", parent);
  rfaas::ShardedResourceManager m(spec.config);
  std::uint32_t device = 1;
  for (const auto& g : spec.executors) {
    for (unsigned c = 0; c < g.count; ++c, ++device) {
      rfaas::ExecutorEntry e;
      e.info.device = device;
      e.info.cores = g.cores;
      e.info.memory_bytes = g.memory_bytes;
      e.total_workers = static_cast<std::uint32_t>(g.cores * spec.config.lease_oversubscription);
      e.free_workers = e.total_workers;
      e.free_memory = g.memory_bytes;
      e.locality = device % spec.racks;
      m.add_executor(e);
    }
  }

  struct Due {
    Time at;
    std::uint64_t lease;
    Time hold_end;  ///< 0 = release at `at`; else renew until hold_end
    bool operator>(const Due& o) const { return at > o.at; }
  };
  std::priority_queue<Due, std::vector<Due>, std::greater<>> due;
  Rng rng(seed ^ 0x6d616e61676572ull);
  const Duration gap = static_cast<Duration>(1e9 / grants_per_s);
  const Duration renew_every = kChurnTimeout - kChurnTimeout / 4;
  const Duration heartbeat = spec.config.heartbeat_period;
  CallTimer grant_t, renew_t, release_t, sweep_t;
  std::uint64_t denied = 0, lost = 0;
  Time now = 0;
  Time next_sweep = heartbeat;

  // Applies every release, renewal and expiry sweep due by `until`, in
  // virtual-time order.
  auto settle = [&](Time until) {
    for (;;) {
      const Time next_due = due.empty() ? until + 1 : due.top().at;
      if (next_sweep <= until && next_sweep <= next_due) {
        sweep_t.time([&] { return m.sweep_expired(next_sweep); });
        next_sweep += heartbeat;
        continue;
      }
      if (next_due > until) return;
      const Due d = due.top();
      due.pop();
      if (d.hold_end == 0) {
        lost += release_t.time([&] { return m.release(d.lease); }) ? 0 : 1;
        continue;
      }
      const Time expires = d.at + kChurnTimeout;
      lost += renew_t.time([&] { return m.renew(d.lease, expires); }).has_value() ? 0 : 1;
      const Time next = d.at + renew_every;
      due.push(next < d.hold_end ? Due{next, d.lease, d.hold_end} : Due{d.hold_end, d.lease, 0});
    }
  };

  for (std::uint64_t i = 0; i < grants; ++i) {
    now += gap;
    settle(now);
    const bool churn = rng.uniform() < churn_share;
    rfaas::ScheduleRequest req;
    req.workers = static_cast<std::uint32_t>(rng.uniform_int(1, 2));
    req.memory_per_worker = 256ull << 20;
    req.client_locality = static_cast<std::uint32_t>(i % spec.racks);
    const Duration timeout = churn ? kChurnTimeout : 30_s;
    auto g = grant_t.time([&] { return m.grant(req, churn ? 2 : 1, timeout, now); });
    if (!g) {
      ++denied;
      continue;
    }
    if (churn) {
      const Time hold_end = now + static_cast<Duration>(rng.uniform_int(3, 6)) * kChurnTimeout;
      due.push({now + renew_every, g->lease_id, hold_end});
    } else {
      due.push({now + static_cast<Duration>(rng.uniform_int(20, 80)) * 1_ms, g->lease_id, 0});
    }
  }
  settle(now + 10 * kChurnTimeout);
  rep.gate(denied == 0 && lost == 0, "manager-core replay: no denial, no lost lease");
  rep.add("manager.grant_cpu_ns", grant_t.mean(), "ns");
  rep.add("manager.renew_cpu_ns", renew_t.mean(), "ns");
  rep.add("manager.release_cpu_ns", release_t.mean(), "ns");
  rep.add("manager.sweep_cpu_ns", sweep_t.mean(), "ns");
  std::printf("manager-core replay: %llu grants, %llu renewals, %llu releases, %llu sweeps; "
              "mean ns grant %.0f renew %.0f release %.0f sweep %.0f\n",
              static_cast<unsigned long long>(grant_t.calls),
              static_cast<unsigned long long>(renew_t.calls),
              static_cast<unsigned long long>(release_t.calls),
              static_cast<unsigned long long>(sweep_t.calls), grant_t.mean(), renew_t.mean(),
              release_t.mean(), sweep_t.mean());
}

}  // namespace

Report run_lease_churn(const Options& opt, Spans& spans) {
  Report rep;
  ChunkTimer setup_timer(1, kSetupKernelRuns);
  setup_timer.start();
  const auto horizon = static_cast<Duration>(
      std::max(3.0, opt.seconds * kVirtualPerSecond) * 1e9);
  const auto mix = tenants(opt.seed);
  Scoped root(spans, "lease_churn");

  double t = cpu_seconds();
  std::unique_ptr<cluster::Harness> h;
  {
    Scoped s(spans, "Harness::Harness", root.id());
    h = std::make_unique<cluster::Harness>(churn_spec());
  }
  const double build_s = cpu_seconds() - t;
  t = cpu_seconds();
  {
    Scoped s(spans, "Harness::start", root.id());
    h->start();
  }
  const double start_s = cpu_seconds() - t;
  t = cpu_seconds();
  std::shared_ptr<rfaas::StandbyReplica> standby;
  {
    Scoped s(spans, "Harness::attach_standby", root.id());
    standby = h->attach_standby();
  }
  const double standby_s = cpu_seconds() - t;
  rep.gate(standby != nullptr, "warm standby attached");
  rep.gate(h->rm().registered_executors() == kExecutors, "every executor registered");
  if (!rep.correct) return rep;
  {
    // Warm-up with the open-loop tenant only: its sessions stay open past
    // the horizon, while a closed-loop tenant closes its sessions at the
    // horizon and would drop the renewals of every held lease in the
    // middle of the measured phase.
    Scoped s(spans, "warmup.run_multi_tenant_workload", root.id());
    (void)h->run_multi_tenant_workload({mix[0]}, kWarmup);
  }
  setup_timer.boundary();
  rep.setup_s = setup_timer.chunk_seconds().front();

  const auto& core = h->rm().core();
  const rfaas::Journal* journal = core.journal();
  const std::uint64_t grants0 = core.grants(), denials0 = core.denials(),
                      steals0 = core.steals(), local0 = core.local_grants();
  const std::uint64_t admitted0 = h->rm().admission().admitted();
  const std::uint64_t sheds0 = h->rm().admission_sheds();
  const std::uint64_t records0 = journal != nullptr ? journal->last_seq() : 0;
  const Duration chunk = h->config().heartbeat_period;
  Probe probe(horizon / chunk);
  probe.requests.push_back(requests_received(*h));
  h->spawn(probe_loop(*h, h->engine().now() + horizon, chunk, probe));

  cluster::MultiTenantTrace trace;
  HeapCounters heap0, heap1;
  {
    Scoped s(spans, "Harness::run_multi_tenant_workload", root.id());
    probe.timer.start();
    heap0 = heap_counters();
    trace = h->run_multi_tenant_workload(mix, horizon);
    heap1 = heap_counters();
  }
  const std::uint64_t records1 = journal != nullptr ? journal->last_seq() : 0;
  const std::uint64_t lag = records1 - std::min(records1, standby->applied_seq());
  const std::uint64_t grants = core.grants() - grants0;

  auto& agg = trace.aggregate;
  std::size_t leaked = 0;
  {
    Scoped s(spans, "Harness::leaked_leases_after", root.id());
    // Longest churn hold plus three lease timeouts: every hold ends and
    // every abandoned lease passes an expiry sweep.
    leaked = h->leaked_leases_after(6 * kChurnTimeout + 3 * kChurnTimeout);
  }
  h->refresh_chaos_counters(agg);
  rep.gate(leaked == 0, "zero leaked leases after drain");
  rep.gate(agg.double_grants == 0, "zero double grants");
  rep.gate(agg.offered > 0 && agg.granted > 0, "the workload offered and was granted leases");
  rep.gate(agg.renewals > 0, "auto-renewal sent ExtendLease");

  const auto offered = static_cast<double>(agg.offered);
  rep.attempted = agg.offered;
  rep.failed = agg.denied;
  std::vector<double> lat = agg.grant_latency;
  std::sort(lat.begin(), lat.end());
  // CPU cost: the median per-chunk CPU per request (see ChunkTimer), over
  // the chunks after the churn tenant's ramp: its first holds end, and its
  // renewals reach their steady rate, only after the longest hold.
  const auto chunk_s = probe.timer.chunk_seconds();
  std::vector<double> cpu_per_request;
  for (std::size_t i = kRampChunks; i < chunk_s.size(); ++i) {
    const auto n = static_cast<double>(probe.requests[i + 1] - probe.requests[i]);
    if (n > 0) cpu_per_request.push_back(chunk_s[i] / n);
  }
  rep.gate(!cpu_per_request.empty(), "the measured phase spans a whole heartbeat period");
  if (!rep.correct) return rep;
  rep.add("ops_per_cpu_s", 1.0 / median_of(cpu_per_request), "1/s");
  rep.add("allocs_per_op", static_cast<double>(heap1.allocs - heap0.allocs) / offered, "count");
  rep.add("vlat_p50_us", percentile_sorted(lat, 50) / 1e3, "us");
  rep.add("vlat_p99_us", percentile_sorted(lat, 99) / 1e3, "us");
  rep.add("vlat_p999_us", percentile_sorted(lat, 99.9) / 1e3, "us");
  rep.add("ok_pct", 100.0 * static_cast<double>(agg.granted) / offered, "%");

  rep.add("vlat.samples", static_cast<double>(lat.size()), "count");
  rep.add("heap.bytes_per_op", static_cast<double>(heap1.bytes - heap0.bytes) / offered, "B");
  rep.add("heap.live_per_op",
          (static_cast<double>(heap1.allocs - heap0.allocs) -
           static_cast<double>(heap1.frees - heap0.frees)) / offered,
          "count");
  rep.add("sim.queue_peak", static_cast<double>(probe.queue_peak), "count");
  rep.add("session.retransmits", static_cast<double>(agg.retransmits), "count");
  rep.add("session.duplicate_replies", static_cast<double>(agg.duplicate_replies), "count");
  rep.add("admission.admitted", static_cast<double>(h->rm().admission().admitted() - admitted0),
          "count");
  rep.add("admission.sheds", static_cast<double>(h->rm().admission_sheds() - sheds0), "count");
  rep.add("manager.grants", static_cast<double>(grants), "count");
  rep.add("manager.denials", static_cast<double>(core.denials() - denials0), "count");
  rep.add("manager.local_grant_pct",
          grants == 0 ? 0.0
                      : 100.0 * static_cast<double>(core.local_grants() - local0) /
                            static_cast<double>(grants),
          "%");
  rep.add("manager.steals", static_cast<double>(core.steals() - steals0), "count");
  rep.add("manager.renewals", static_cast<double>(agg.renewals), "count");
  rep.add("journal.records_per_grant",
          grants == 0 ? 0.0 : static_cast<double>(records1 - records0) / static_cast<double>(grants),
          "count");
  rep.add("replica.lag_records", static_cast<double>(lag), "count");
  rep.add("harness.build_s", build_s, "s");
  rep.add("harness.start_s", start_s, "s");
  rep.add("harness.standby_s", standby_s, "s");

  std::printf("lease_churn: %u executors, %.0f virtual s; offered %llu (open %llu, churn %llu), "
              "granted %llu, denied %llu, renewals %llu, grant latency over %zu samples\n",
              kExecutors, static_cast<double>(horizon) / 1e9,
              static_cast<unsigned long long>(agg.offered),
              static_cast<unsigned long long>(trace.tenants[0].offered),
              static_cast<unsigned long long>(trace.tenants[1].offered),
              static_cast<unsigned long long>(agg.granted),
              static_cast<unsigned long long>(agg.denied),
              static_cast<unsigned long long>(agg.renewals), lat.size());

  if (!opt.trace) return rep;
  const double churn_share =
      static_cast<double>(trace.tenants[1].granted) / std::max(1.0, static_cast<double>(agg.granted));
  const double grants_per_s = static_cast<double>(agg.granted) / (static_cast<double>(horizon) / 1e9);
  const auto spec = churn_spec();
  h.reset();
  replay_manager_core(spec, opt.seed, std::min<std::uint64_t>(agg.granted, 200'000), churn_share,
                      grants_per_s, rep, spans, root.id());
  return rep;
}

}  // namespace rfb
