// Wire protocol of rFaaS.
//
// Control plane (TCP): executor registration, lease requests/grants,
// allocation requests, code submission. Data plane (RDMA): the invocation
// format of Sec. IV-A — a 32-byte header carrying the client's
// result-buffer address and rkey plus the fault-tolerance fields
// (idempotent invocation tag, absolute deadline, payload checksum),
// followed by the payload, written via RDMA WRITE_WITH_IMM whose
// immediate value packs the function index and the invocation identifier.
#pragma once

#include <bit>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "common/units.hpp"
#include "fabric/verbs.hpp"
#include "rfaas/config.hpp"

namespace rfs::rfaas {

/// The 32-byte invocation header preceding every input payload: the
/// executor writes the output directly into this client buffer. The
/// trailing fault-tolerance fields are all-zero when FT is disabled:
/// `invocation_tag` ((client epoch << 32) | sequence, 0 = no dedup) lets
/// the executor recognise a retried or hedged invocation and replay the
/// stored result instead of executing twice; `deadline` (absolute time,
/// 0 = none) lets it drop an invocation that has already timed out on
/// the client — a late duplicate is never executed; `checksum` (0 = not
/// checked) is the client's checksum over the input payload, verified
/// executor-side so a corrupted submit frame is rejected, not executed.
struct InvocationHeader {
  std::uint64_t result_addr = 0;
  std::uint32_t result_rkey = 0;
  std::uint64_t invocation_tag = 0;
  Time deadline = 0;
  std::uint32_t checksum = 0;

  static constexpr std::size_t kSize = 32;

  void pack(std::uint8_t* out) const;
  static InvocationHeader unpack(const std::uint8_t* in);
};

/// Immediate-value encoding: high 12 bits function index, low 20 bits
/// invocation id. Result immediates set the reject bit on rejection and
/// carry a 12-bit output checksum in the otherwise-unused high bits, so
/// a corrupted response is detected from the completion alone.
struct Imm {
  static constexpr std::uint32_t kRejectBit = 1u << 19;

  static std::uint32_t invocation(std::uint16_t fn_index, std::uint32_t invocation_id) {
    return (static_cast<std::uint32_t>(fn_index) << 20) | (invocation_id & 0xFFFFFu);
  }
  static std::uint32_t result(std::uint32_t invocation_id, bool rejected,
                              std::uint32_t checksum12 = 0) {
    return (invocation_id & 0x7FFFFu) | (rejected ? kRejectBit : 0u) |
           ((checksum12 & 0xFFFu) << 20);
  }
  static std::uint16_t fn_index(std::uint32_t imm) { return static_cast<std::uint16_t>(imm >> 20); }
  static std::uint32_t invocation_id(std::uint32_t imm) { return imm & 0xFFFFFu; }
  static std::uint32_t result_id(std::uint32_t imm) { return imm & 0x7FFFFu; }
  static bool rejected(std::uint32_t imm) { return (imm & kRejectBit) != 0; }
  static std::uint32_t result_checksum(std::uint32_t imm) { return imm >> 20; }
};

/// Folds a 64-bit digest into the 32 bits an InvocationHeader carries.
/// 0 means "not checked" on the wire, so a genuinely zero fold maps to a
/// fixed nonzero sentinel: a payload can never switch its own check off.
inline std::uint32_t fold32(std::uint64_t digest) {
  const auto folded = static_cast<std::uint32_t>(digest ^ (digest >> 32));
  return folded != 0 ? folded : 0xFFFFFFFFu;
}

/// The data-plane integrity check: a 32-bit digest of a payload, never 0.
/// The payload is read eight bytes at a time into four independent
/// multiply-rotate lanes, so the loop is four short multiply chains that
/// overlap rather than one serial chain per byte. Each lane step is a
/// bijection of the lane for a fixed word (and of the word for a fixed
/// lane), so a change confined to one word always changes the lane. The
/// lanes are combined with the length (an appended zero byte changes the
/// digest) and finished by murmur3's fmix64 avalanche before fold32().
/// fold12() compresses it further into the 12 imm bits available for the
/// response direction.
inline std::uint32_t payload_checksum(const std::uint8_t* data, std::size_t len) {
  constexpr std::uint64_t kMulA = 0x9E3779B185EBCA87ull;
  constexpr std::uint64_t kMulB = 0xC2B2AE3D27D4EB4Full;
  const auto mix = [](std::uint64_t lane, std::uint64_t word) {
    return std::rotl(lane + word * kMulB, 31) * kMulA;
  };
  const auto word_at = [data](std::size_t at) {
    std::uint64_t w;
    std::memcpy(&w, data + at, sizeof w);
    return w;
  };

  std::uint64_t lane[4] = {kMulA + kMulB, kMulB, 0, 0 - kMulA};
  std::size_t at = 0;
  for (; at + 32 <= len; at += 32) {
    lane[0] = mix(lane[0], word_at(at));
    lane[1] = mix(lane[1], word_at(at + 8));
    lane[2] = mix(lane[2], word_at(at + 16));
    lane[3] = mix(lane[3], word_at(at + 24));
  }
  // At most three whole words remain, then fewer than eight bytes.
  for (std::size_t k = 0; at + 8 <= len; at += 8, ++k) lane[k] = mix(lane[k], word_at(at));
  if (at < len) {
    std::uint64_t tail = 0;
    std::memcpy(&tail, data + at, len - at);
    lane[3] = mix(lane[3], tail);
  }

  std::uint64_t h = std::rotl(lane[0], 1) + std::rotl(lane[1], 7) + std::rotl(lane[2], 12) +
                    std::rotl(lane[3], 18);
  h ^= static_cast<std::uint64_t>(len);
  h ^= h >> 33;  // fmix64
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ull;
  h ^= h >> 33;
  return fold32(h);
}

inline std::uint32_t fold12(std::uint32_t checksum) {
  const std::uint32_t folded = (checksum ^ (checksum >> 12) ^ (checksum >> 24)) & 0xFFFu;
  // 0 means "not checked" on the wire, so a genuinely zero fold maps to
  // a fixed nonzero sentinel — verification stays deterministic.
  return folded != 0 ? folded : 0xFFFu;
}

/// Message kinds on the TCP control plane.
enum class MsgType : std::uint8_t {
  RegisterExecutor,     // executor manager -> resource manager
  RegisterOk,
  LeaseRequest,         // client -> resource manager
  LeaseGrant,
  LeaseError,
  AllocationRequest,    // client -> executor manager
  AllocationReply,
  SubmitCode,           // client -> executor manager
  SubmitCodeOk,
  Deallocate,           // client -> executor manager
  DeallocateOk,
  Heartbeat,            // resource manager -> executor manager
  HeartbeatAck,
  LeaseTerminated,      // resource manager -> client (fast reclamation)
  ReleaseResources,     // executor manager -> resource manager (early return)
  ExtendLease,          // client -> resource manager (renew before expiry)
  ExtendOk,
  BatchAllocate,        // client -> resource manager (multi-lease, one trip)
  BatchGranted,
  LeaseRenewed,         // resource manager -> executor manager (push)
  SubscribeEvents,      // client -> resource manager (open a notification stream)
  LeasesTerminated,     // resource manager -> client/executor (coalesced sweep)
  ReleaseOk,            // resource manager -> releaser (ack, retransmit stop)
  LeaseDenied,          // resource manager -> client (admission shed, retry hint)
  JournalRecord,        // primary manager -> standby replica (state stream)
  SnapshotOffer,        // primary manager -> standby replica (snapshot header)
  FailoverAnnounce,     // promoted manager -> subscriber (push, new epoch)
  LeaseRevalidate,      // client -> promoted manager (held-lease audit)
  InvocationCancel,     // client -> executor manager (hedge loser suppression)
  HealthReport,         // client -> resource manager (executor health observations)
  HealthReportOk,       // resource manager -> client (ack, retransmit stop)
  Count,                // sentinel, keep last
};

// ---------------------------------------------------------------------------
// Lossy-network hardening. Lease-critical messages carry a trailing
// monotonically increasing request id ((epoch << 32) | sequence, see
// rfaas/session.hpp); replies echo it so a retransmitting sender can
// match a reply to the attempt it answers, and the manager's bounded
// per-stream dedup table can replay the cached reply for a retransmitted
// request instead of executing it twice (no double-grants). id 0 means
// "legacy sender": never deduplicated, never retransmitted — the field
// is always on the wire, only its value is optional. Push notifications
// (LeaseTerminated/LeasesTerminated) carry a per-stream sequence number
// instead, so duplicated deliveries are counted and ignored client-side.
// ---------------------------------------------------------------------------

/// Worker polling policy of an allocation.
enum class InvocationPolicy : std::uint8_t {
  WarmAlways,  // workers always block on the completion channel
  HotAlways,   // workers busy-poll for the lease lifetime
  Adaptive,    // hot after each execution, roll back to warm on timeout
};

/// Spot-executor registration with the resource manager (Sec. III-A).
struct RegisterExecutorMsg {
  static constexpr MsgType kType = MsgType::RegisterExecutor;
  std::uint32_t device = 0;       ///< fabric device id of the spot host
  std::uint16_t alloc_port = 0;   ///< TCP port of the lightweight allocator
  std::uint16_t rdma_port = 0;    ///< fabric CM port for worker connections
  std::uint32_t cores = 0;        ///< schedulable cores of the host
  std::uint64_t memory_bytes = 0; ///< offerable memory of the host
  std::uint64_t epoch = 0;        ///< registration session epoch (fences stale sessions)
  std::uint64_t request_id = 0;   ///< retransmission dedup id (0 = legacy)
  static constexpr auto fields() {
    using M = RegisterExecutorMsg;
    return std::tuple{&M::device, &M::alloc_port, &M::rdma_port, &M::cores, &M::memory_bytes,
                      &M::epoch, &M::request_id};
  }
};

/// Registration reply: where the executor's billing atomics land.
struct RegisterOkMsg {
  static constexpr MsgType kType = MsgType::RegisterOk;
  std::uint16_t rm_rdma_port = 0;     ///< where executors connect for billing atomics
  std::uint64_t billing_addr = 0;     ///< base of the billing counter array
  std::uint32_t billing_rkey = 0;     ///< rkey of the billing counter array
  std::uint64_t request_id = 0;       ///< echoes RegisterExecutorMsg::request_id
  static constexpr auto fields() {
    using M = RegisterOkMsg;
    return std::tuple{&M::rm_rdma_port, &M::billing_addr, &M::billing_rkey, &M::request_id};
  }
};

/// One lease acquisition (Sec. III-C): "clients acquire leases by
/// requesting the desired core count, memory, and timeout". Grants may be
/// partial; clients aggregate (or use BatchAllocateMsg).
struct LeaseRequestMsg {
  static constexpr MsgType kType = MsgType::LeaseRequest;
  std::uint32_t client_id = 0;     ///< billing tenant of the requester
  std::uint32_t workers = 0;       ///< requested function instances
  std::uint64_t memory_bytes = 0;  ///< per-worker memory
  Duration timeout = 0;            ///< lease validity
  std::uint64_t request_id = 0;    ///< retransmission dedup id (0 = legacy)
  static constexpr auto fields() {
    using M = LeaseRequestMsg;
    return std::tuple{&M::client_id, &M::workers, &M::memory_bytes, &M::timeout, &M::request_id};
  }
};

/// A granted lease: where to allocate the sandbox and until when the
/// capacity is held. Lease ids are shard-tagged (high 16 bits) under a
/// sharded manager.
struct LeaseGrantMsg {
  static constexpr MsgType kType = MsgType::LeaseGrant;
  std::uint64_t lease_id = 0;   ///< shard-tagged lease identifier
  std::uint32_t device = 0;     ///< fabric device of the granted executor
  std::uint16_t alloc_port = 0; ///< its lightweight allocator's TCP port
  std::uint16_t rdma_port = 0;  ///< its fabric CM port for worker connections
  std::uint32_t workers = 0;    ///< workers granted on this executor
  Time expires_at = 0;          ///< lease deadline (renewable via ExtendLease)
  std::uint64_t request_id = 0; ///< echoes LeaseRequestMsg::request_id
  /// The grant without its request id: the element layout of
  /// BatchGrantedMsg::grants.
  static constexpr auto body() {
    using M = LeaseGrantMsg;
    return std::tuple{&M::lease_id, &M::device,  &M::alloc_port,
                      &M::rdma_port, &M::workers, &M::expires_at};
  }
  static constexpr auto fields() {
    return std::tuple_cat(body(), std::tuple{&LeaseGrantMsg::request_id});
  }
};

/// Refusal of a lease-plane request (or of a malformed executor-manager
/// request), with a human-readable reason.
struct LeaseErrorMsg {
  static constexpr MsgType kType = MsgType::LeaseError;
  std::string reason;
  std::uint64_t request_id = 0;  ///< echoes the refused request's id (0 = legacy)
  static constexpr auto fields() {
    return std::tuple{&LeaseErrorMsg::reason, &LeaseErrorMsg::request_id};
  }
};

/// Sandbox allocation on the leased executor (A2 in the cold-start path).
struct AllocationRequestMsg {
  static constexpr MsgType kType = MsgType::AllocationRequest;
  std::uint64_t lease_id = 0;    ///< the backing lease
  std::uint32_t client_id = 0;   ///< billing tenant
  std::uint32_t workers = 0;     ///< worker threads to spawn
  std::uint64_t memory_bytes = 0;///< per-worker memory reservation
  std::uint8_t sandbox = 0;      ///< SandboxType
  std::uint8_t policy = 0;       ///< InvocationPolicy
  Duration hot_timeout = 0;      ///< Adaptive rollback timeout (0 = default)
  Time expires_at = 0;           ///< lease expiry (sandbox self-destructs)
  static constexpr auto fields() {
    using M = AllocationRequestMsg;
    return std::tuple{&M::lease_id, &M::client_id, &M::workers, &M::memory_bytes, &M::sandbox,
                      &M::policy, &M::hot_timeout, &M::expires_at};
  }
};

/// Early return of leased capacity to the resource manager.
struct ReleaseResourcesMsg {
  static constexpr MsgType kType = MsgType::ReleaseResources;
  std::uint64_t lease_id = 0;     ///< lease being released
  std::uint32_t workers = 0;      ///< workers coming back
  std::uint64_t memory_bytes = 0; ///< memory coming back
  std::uint64_t request_id = 0;   ///< retransmission dedup id (0 = legacy)
  static constexpr auto fields() {
    using M = ReleaseResourcesMsg;
    return std::tuple{&M::lease_id, &M::workers, &M::memory_bytes, &M::request_id};
  }
};

/// Acknowledges a ReleaseResourcesMsg carrying a nonzero request id, so
/// the releaser can stop retransmitting. Legacy releases (id 0) stay
/// fire-and-forget and receive no ack; a release lost on the wire is
/// then reclaimed by the manager's lease-expiry sweep instead.
struct ReleaseOkMsg {
  static constexpr MsgType kType = MsgType::ReleaseOk;
  std::uint64_t lease_id = 0;
  std::uint64_t request_id = 0;  ///< echoes ReleaseResourcesMsg::request_id
  static constexpr auto fields() {
    using M = ReleaseOkMsg;
    return std::tuple{&M::lease_id, &M::request_id};
  }
};

/// Lease renewal: extends a live lease by `extension` from now. Granted
/// leases are time-limited; long-running clients renew instead of paying
/// a fresh placement.
struct ExtendLeaseMsg {
  static constexpr MsgType kType = MsgType::ExtendLease;
  std::uint64_t lease_id = 0;
  Duration extension = 0;
  std::uint64_t request_id = 0;  ///< retransmission dedup id (0 = legacy)
  static constexpr auto fields() {
    using M = ExtendLeaseMsg;
    return std::tuple{&M::lease_id, &M::extension, &M::request_id};
  }
};

struct ExtendOkMsg {
  static constexpr MsgType kType = MsgType::ExtendOk;
  std::uint64_t lease_id = 0;
  Time expires_at = 0;           ///< the new deadline
  std::uint64_t request_id = 0;  ///< echoes ExtendLeaseMsg::request_id
  static constexpr auto fields() {
    using M = ExtendOkMsg;
    return std::tuple{&M::lease_id, &M::expires_at, &M::request_id};
  }
};

/// Fulfillment contract of a batched allocation (BatchAllocateMsg::mode).
enum class BatchMode : std::uint8_t {
  BestEffort,   ///< return whatever subset of the request fits
  AllOrNothing, ///< grant everything or nothing (partials are rolled back)
};

/// Batched lease acquisition: one round trip acquires leases totalling
/// `workers` function instances, aggregated across executors — and, on a
/// sharded manager, across shards. Replaces the serial client loop of
/// one LeaseRequest per partial grant (Sec. III-D) for wide allocations.
struct BatchAllocateMsg {
  static constexpr MsgType kType = MsgType::BatchAllocate;
  std::uint32_t client_id = 0;
  std::uint32_t workers = 0;       ///< total function instances wanted
  std::uint64_t memory_bytes = 0;  ///< per-worker memory
  Duration timeout = 0;            ///< validity of every granted lease
  std::uint8_t mode = 0;           ///< BatchMode
  std::uint64_t request_id = 0;    ///< retransmission dedup id (0 = legacy)
  static constexpr auto fields() {
    using M = BatchAllocateMsg;
    return std::tuple{&M::client_id, &M::workers, &M::memory_bytes, &M::timeout, &M::mode,
                      &M::request_id};
  }
};

/// Reply to BatchAllocateMsg: the granted leases (possibly spanning
/// several executors and shards). `complete` is false when the request
/// was only partially satisfiable — under AllOrNothing the grant list is
/// then empty and every provisional lease has been released.
struct BatchGrantedMsg {
  static constexpr MsgType kType = MsgType::BatchGranted;
  bool complete = false;
  std::vector<LeaseGrantMsg> grants;
  std::string error;             ///< set when `grants` is empty
  std::uint64_t request_id = 0;  ///< echoes BatchAllocateMsg::request_id
  static constexpr auto fields() {
    using M = BatchGrantedMsg;
    return std::tuple{&M::complete, &M::grants, &M::error, &M::request_id};
  }
};

/// Push notification from the resource manager to the executor manager
/// that hosts a renewed lease: the sandbox deadline moves to the new
/// expiry, so renewal stays a single client<->manager round trip.
struct LeaseRenewedMsg {
  static constexpr MsgType kType = MsgType::LeaseRenewed;
  std::uint64_t lease_id = 0;
  Time expires_at = 0;  ///< the renewed deadline
  static constexpr auto fields() {
    using M = LeaseRenewedMsg;
    return std::tuple{&M::lease_id, &M::expires_at};
  }
};

/// Why the resource manager refused to even process a request.
enum class DenialReason : std::uint8_t {
  Overload,      ///< ingress admission shed the request (token bucket / WFQ)
  QuotaExceeded, ///< reserved: per-tenant policy refusal at admission time
};

const char* to_string(DenialReason r);

/// Admission-control shed (ingress protection): the manager refused the
/// request *before* any shard lock, placement scan, or quota-eviction
/// work — the whole point is that saying no is nearly free under
/// overload. `retry_after` is the manager's backoff hint (how long until
/// the tenant's token bucket refills enough to admit one request);
/// well-behaved clients wait at least that long before retrying, and
/// LeaseSet heal loops treat it as a floor under their jittered
/// exponential backoff. Fixed layout, hot under overload by definition —
/// rides the zero-allocation fast path like LeaseGrant.
struct LeaseDeniedMsg {
  static constexpr MsgType kType = MsgType::LeaseDenied;
  std::uint8_t reason = 0;       ///< DenialReason
  Duration retry_after = 0;      ///< backoff hint (0 = none)
  std::uint64_t request_id = 0;  ///< echoes the denied request's id
  static constexpr auto fields() {
    using M = LeaseDeniedMsg;
    return std::tuple{&M::reason, &M::retry_after, &M::request_id};
  }
};

/// Why the resource manager reclaimed a lease ahead of its deadline.
enum class TerminationReason : std::uint8_t {
  QuotaPressure,  ///< evicted to make room under a tenant worker quota
  Drain,          ///< hosting executor is being drained
  Rebalance,      ///< hosting executor migrated to another shard
};

const char* to_string(TerminationReason r);

/// Fast reclamation (Sec. III-B): the manager terminates a live lease and
/// pushes this to both sides — the hosting executor tears the sandbox
/// down, the owning client (on its notification stream, see
/// SubscribeEventsMsg) untracks the lease and, with self-healing enabled,
/// transparently re-allocates. `evicted_at` is the manager's decision
/// timestamp, so receivers can report end-to-end reclamation latency.
struct LeaseTerminatedMsg {
  static constexpr MsgType kType = MsgType::LeaseTerminated;
  std::uint64_t lease_id = 0;
  std::uint8_t reason = 0;  ///< TerminationReason
  Time evicted_at = 0;      ///< when the manager made the eviction decision
  std::uint64_t seq = 0;    ///< per-stream push sequence (0 = legacy)
  static constexpr auto fields() {
    using M = LeaseTerminatedMsg;
    return std::tuple{&M::lease_id, &M::reason, &M::evicted_at, &M::seq};
  }
};

/// Coalesced fast reclamation: one eviction sweep may terminate many
/// leases owned by the same client (or hosted on the same executor).
/// Pushing them in a single message keeps reclamation storms at one
/// notification per stream per sweep instead of one per lease. Reason
/// and decision timestamp are shared — a sweep has one cause and one
/// decision point.
struct LeasesTerminatedMsg {
  static constexpr MsgType kType = MsgType::LeasesTerminated;
  std::uint8_t reason = 0;  ///< TerminationReason
  Time evicted_at = 0;      ///< when the manager made the eviction decision
  std::vector<std::uint64_t> lease_ids;
  std::uint64_t seq = 0;    ///< per-stream push sequence (0 = legacy)
  static constexpr auto fields() {
    using M = LeasesTerminatedMsg;
    return std::tuple{&M::reason, &M::evicted_at, &M::lease_ids, &M::seq};
  }
};

/// Opens a notification stream: the client sends this once on a dedicated
/// connection and then only receives pushes (LeaseTerminated) for leases
/// owned by `client_id`. Keeping pushes off the request stream preserves
/// its strict request-response discipline.
struct SubscribeEventsMsg {
  static constexpr MsgType kType = MsgType::SubscribeEvents;
  std::uint32_t client_id = 0;
  static constexpr auto fields() { return std::tuple{&SubscribeEventsMsg::client_id}; }
};

/// One entry of the manager's replicated lease-state log (rfaas/journal.hpp):
/// every lease state transition the primary applies is appended as one of
/// these fixed-layout records and streamed to warm standby replicas, which
/// replay them into an identical in-memory state. Field meaning depends on
/// the op (journal::op semantics); `checksum` chains over every field plus
/// the previous record's checksum, so a corrupted or reordered stream is
/// detected at the first bad record. Hot on every grant — rides the
/// zero-allocation fast path.
struct JournalRecordMsg {
  static constexpr MsgType kType = MsgType::JournalRecord;
  std::uint64_t seq = 0;       ///< monotonically increasing log position (1-based)
  std::uint8_t op = 0;         ///< journal::Op discriminator
  std::uint64_t lease_id = 0;  ///< shard-tagged lease id (lease ops)
  std::uint32_t client_id = 0; ///< owning tenant (Grant) / locality (AddExecutor)
  std::uint64_t executor = 0;  ///< shard-tagged global executor id
  std::uint32_t workers = 0;   ///< workers of the lease / executor capacity
  std::uint64_t memory = 0;    ///< lease memory / executor free memory
  Time time = 0;               ///< expires_at (lease ops) or last_ack (executor ops)
  std::uint64_t aux = 0;       ///< op-specific (flags, packed endpoint, peer id)
  std::uint64_t aux2 = 0;      ///< op-specific (packed epoch|cores)
  std::uint64_t checksum = 0;  ///< chained integrity checksum
  static constexpr auto fields() {
    using M = JournalRecordMsg;
    return std::tuple{&M::seq, &M::op, &M::lease_id, &M::client_id, &M::executor, &M::workers,
                      &M::memory, &M::time, &M::aux, &M::aux2, &M::checksum};
  }
};

/// Header of a snapshot transfer to a (re)attaching standby: the state it
/// is about to install covers the journal up to `upto_seq`, and `digest`
/// must match the installed state's digest — a torn or stale snapshot is
/// rejected before any record is replayed on top of it.
struct SnapshotOfferMsg {
  static constexpr MsgType kType = MsgType::SnapshotOffer;
  std::uint32_t manager_epoch = 0; ///< epoch of the snapshotting primary
  std::uint64_t upto_seq = 0;      ///< journal position the snapshot covers
  std::uint64_t digest = 0;        ///< ManagerState::digest() of the snapshot
  std::uint64_t lease_count = 0;   ///< live leases in the snapshot (sanity)
  static constexpr auto fields() {
    using M = SnapshotOfferMsg;
    return std::tuple{&M::manager_epoch, &M::upto_seq, &M::digest, &M::lease_count};
  }
};

/// Pushed by a freshly promoted manager on every (re)subscribed
/// notification stream: the manager epoch moved, so clients must
/// re-validate every lease they hold (LeaseRevalidate) — grants issued by
/// the dead primary after its last journaled record, or by a fenced
/// zombie, fail re-validation and flow into the self-healing path.
struct FailoverAnnounceMsg {
  static constexpr MsgType kType = MsgType::FailoverAnnounce;
  std::uint32_t manager_epoch = 0; ///< epoch of the announcing manager
  std::uint64_t applied_seq = 0;   ///< last journal record the standby replayed
  Time promoted_at = 0;            ///< when the standby took over
  static constexpr auto fields() {
    using M = FailoverAnnounceMsg;
    return std::tuple{&M::manager_epoch, &M::applied_seq, &M::promoted_at};
  }
};

/// Client-side lease audit after a failover: "do you still honour this
/// lease?" The manager answers ExtendOk with the lease's current deadline
/// when it survived replay, or LeaseError when it is unknown — the client
/// then treats it as lost and heals. Hot during reconnect storms — rides
/// the zero-allocation fast path.
struct LeaseRevalidateMsg {
  static constexpr MsgType kType = MsgType::LeaseRevalidate;
  std::uint32_t client_id = 0;   ///< owning tenant presented for the audit
  std::uint64_t lease_id = 0;    ///< lease being re-validated
  std::uint64_t request_id = 0;  ///< retransmission dedup id (0 = legacy)
  static constexpr auto fields() {
    using M = LeaseRevalidateMsg;
    return std::tuple{&M::client_id, &M::lease_id, &M::request_id};
  }
};

/// Best-effort cancellation of an in-flight invocation, sent on the
/// executor manager's control stream when a hedged duplicate lost the
/// race. Fire-and-forget: the manager parks the tag in a bounded set and
/// workers drop a matching invocation before dispatch — a cancel that
/// arrives too late costs one wasted execution, never a wrong result
/// (the client already consumed the winner; the executor dedup table
/// absorbs the loser's reply). Fixed layout — rides the zero-allocation
/// fast path since it fires on the invocation hot path.
struct InvocationCancelMsg {
  static constexpr MsgType kType = MsgType::InvocationCancel;
  std::uint32_t client_id = 0;       ///< cancelling tenant
  std::uint64_t invocation_tag = 0;  ///< (epoch << 32) | seq of the doomed invocation
  std::uint64_t request_id = 0;      ///< unused for matching (fire-and-forget); 0 ok
  static constexpr auto fields() {
    using M = InvocationCancelMsg;
    return std::tuple{&M::client_id, &M::invocation_tag, &M::request_id};
  }
};

/// Client-observed executor health, pushed to the resource manager when a
/// client's per-worker circuit breaker trips (and periodically while
/// degraded). The manager folds the observation into the executor's
/// registry entry so every scheduler policy deprioritizes the gray host,
/// and drains it outright after `quarantine_trips` distinct trips.
/// Fixed layout — health reports spike exactly when the fleet is sick.
struct HealthReportMsg {
  static constexpr MsgType kType = MsgType::HealthReport;
  std::uint32_t client_id = 0;    ///< reporting tenant
  std::uint32_t device = 0;       ///< fabric device of the suspect executor
  std::uint32_t latency_us = 0;   ///< EWMA invocation latency observed (µs)
  std::uint32_t ok_count = 0;     ///< successful invocations in this window
  std::uint32_t fail_count = 0;   ///< timeouts/corruptions in this window
  std::uint64_t request_id = 0;   ///< retransmission dedup id (0 = legacy)
  static constexpr auto fields() {
    using M = HealthReportMsg;
    return std::tuple{&M::client_id, &M::device, &M::latency_us, &M::ok_count, &M::fail_count,
                      &M::request_id};
  }
};

/// Acknowledges a HealthReportMsg so the reporter can stop retransmitting.
struct HealthReportOkMsg {
  static constexpr MsgType kType = MsgType::HealthReportOk;
  std::uint64_t request_id = 0;  ///< echoes HealthReportMsg::request_id
  static constexpr auto fields() { return std::tuple{&HealthReportOkMsg::request_id}; }
};

/// Allocation outcome from the lightweight allocator.
struct AllocationReplyMsg {
  static constexpr MsgType kType = MsgType::AllocationReply;
  bool ok = false;               ///< sandbox up and workers spawned
  std::uint64_t sandbox_id = 0;  ///< handle for code submission/deallocation
  std::uint16_t rdma_port = 0;   ///< port workers accept on
  std::uint64_t spawn_ns = 0;    ///< measured sandbox+worker spawn time
  std::string error;             ///< failure reason when !ok
  static constexpr auto fields() {
    using M = AllocationReplyMsg;
    return std::tuple{&M::ok, &M::sandbox_id, &M::rdma_port, &M::spawn_ns, &M::error};
  }
};

/// Code-submission acknowledgement.
struct SubmitCodeOkMsg {
  static constexpr MsgType kType = MsgType::SubmitCodeOk;
  std::uint16_t fn_index = 0;  ///< index in the sandbox's function table
  static constexpr auto fields() { return std::tuple{&SubmitCodeOkMsg::fn_index}; }
};

/// Function-code shipping into a live sandbox (padded to the library
/// size on the wire, so the transfer cost is real).
struct SubmitCodeMsg {
  static constexpr MsgType kType = MsgType::SubmitCode;
  std::uint64_t sandbox_id = 0; ///< target sandbox
  std::string function_name;    ///< registry name of the function package
  std::uint64_t code_size = 0;  ///< shipped library size (bytes on the wire)
  static constexpr auto fields() {
    using M = SubmitCodeMsg;
    return std::tuple{&M::sandbox_id, &M::function_name, &M::code_size};
  }
};

/// Sandbox teardown; the executor returns the lease to the manager.
struct DeallocateMsg {
  static constexpr MsgType kType = MsgType::Deallocate;
  std::uint64_t sandbox_id = 0; ///< sandbox to tear down
  std::uint64_t lease_id = 0;   ///< its backing lease
  static constexpr auto fields() {
    using M = DeallocateMsg;
    return std::tuple{&M::sandbox_id, &M::lease_id};
  }
};

// ---------------------------------------------------------------------------
// Invocation data-plane frames (fig18). The submit frame is the 32-byte
// InvocationHeader followed by the input payload, written directly into
// the worker's registered buffer; the response carries no body at all —
// the executor writes the output into the client's result buffer and the
// completion's immediate value plus byte count are the entire response.
// Both directions encode into registered memory and decode from spans:
// zero heap traffic, zero intermediate copies.
// ---------------------------------------------------------------------------

/// Decoded view of a received submit frame. `payload` aliases the
/// registered receive buffer — nothing is copied or allocated.
struct InvocationFrame {
  InvocationHeader header;
  std::span<const std::uint8_t> payload;
};

/// Decoded result completion: the responder's entire reply is the packed
/// immediate of the result WRITE_WITH_IMM plus the completion byte count.
/// `checksum12` is the 12-bit folded output checksum carried in the high
/// imm bits (0 = responder did not checksum).
struct InvocationResponse {
  std::uint32_t invocation_id = 0;
  bool rejected = false;
  std::uint32_t output_bytes = 0;
  std::uint32_t checksum12 = 0;
};

/// Writes the submit-frame header into a registered buffer. Returns
/// InvocationHeader::kSize, or 0 when `capacity` is too small (the
/// unchecked InvocationHeader::pack stays available for fixed buffers).
std::size_t encode_into(const InvocationHeader& h, std::uint8_t* out, std::size_t capacity);

/// Bounds-checked decode of a received submit frame; `byte_len` is the
/// byte count of the WRITE_WITH_IMM completion. Fails when the write is
/// shorter than the header or overruns the buffer.
Result<InvocationFrame> decode_invocation_frame(std::span<const std::uint8_t> buf,
                                                std::uint32_t byte_len);

/// Decodes a result completion (immediate + byte count).
InvocationResponse decode_invocation_response(const fabric::Wc& wc);

/// Envelope of a bodyless message: the type byte alone.
Bytes encode(MsgType type);

/// The message kind of a received frame (its first byte).
Result<MsgType> peek_type(const Bytes& raw);

// ---------------------------------------------------------------------------
// One codec for every control message. Each message struct states its wire
// layout once, next to its members: `kType` (the envelope's type byte) and
// `fields()`, the members in wire order. encode, encode_into and decode
// below are generic over that list; no message has codec code of its own.
//
// Frame: [u8 type][fields...], little-endian. Integers take their own
// width, bool one byte, std::string a u32 length plus the bytes,
// std::vector a u32 count plus the elements, and a struct element its
// `body()` fields. Decoding bounds-checks every read, tolerates trailing
// bytes (SubmitCode is padded to the library size) and never reserves
// from a count read off the wire, so a corrupted count fails on the reads
// instead of allocating. A message of integers only has a constant
// `wire_size` and encodes into a caller buffer with no heap traffic.
//
// How to add a message:
//   1. add its kind to MsgType, before Count;
//   2. declare its struct with `kType` and `fields()` above;
//   3. add the struct to the type list of tests/protocol_fuzz_test.cpp.
// ---------------------------------------------------------------------------

/// A control message: a struct naming its MsgType and its wire fields.
template <class M>
concept WireMessage = requires {
  { M::kType } -> std::convertible_to<MsgType>;
  M::fields();
};

namespace codec {

template <class T>
inline constexpr bool kIsVector = false;
template <class E>
inline constexpr bool kIsVector<std::vector<E>> = true;

template <class P>
struct MemberType;
template <class C, class T>
struct MemberType<T C::*> {
  using type = T;
};

template <class P>
using Member = typename MemberType<P>::type;

/// True when every field of M is an integer (or bool): the size is constant.
template <class M>
inline constexpr bool kFixed = std::apply(
    [](auto... f) { return (std::is_arithmetic_v<Member<decltype(f)>> && ...); }, M::fields());

/// Wire size, type byte included, of an integers-only message M.
template <class M>
constexpr std::size_t fixed_size() {
  static_assert(kFixed<M>, "only a message of integers has a constant wire size");
  return std::apply([](auto... f) { return (std::size_t{1} + ... + sizeof(Member<decltype(f)>)); },
                    M::fields());
}

/// Bytes `v` takes on the wire.
template <class T>
std::size_t field_size(const T& v) {
  if constexpr (std::is_arithmetic_v<T>) {
    return sizeof(T);
  } else if constexpr (std::is_same_v<T, std::string>) {
    return 4 + v.size();
  } else if constexpr (kIsVector<T>) {
    std::size_t n = 4;
    for (const auto& e : v) n += field_size(e);
    return n;
  } else {
    return std::apply([&](auto... f) { return (std::size_t{0} + ... + field_size(v.*f)); },
                      T::body());
  }
}

/// Writes `v` at `p` (the caller sized the buffer); returns the end.
template <class T>
std::uint8_t* put(std::uint8_t* p, const T& v) {
  if constexpr (std::is_arithmetic_v<T>) {
    std::memcpy(p, &v, sizeof(T));
    return p + sizeof(T);
  } else if constexpr (std::is_same_v<T, std::string>) {
    p = put(p, static_cast<std::uint32_t>(v.size()));
    std::memcpy(p, v.data(), v.size());
    return p + v.size();
  } else if constexpr (kIsVector<T>) {
    p = put(p, static_cast<std::uint32_t>(v.size()));
    for (const auto& e : v) p = put(p, e);
    return p;
  } else {
    std::apply([&](auto... f) { ((p = put(p, v.*f)), ...); }, T::body());
    return p;
  }
}

/// The unread rest of a received frame.
struct Reader {
  const std::uint8_t* p;
  const std::uint8_t* end;
  [[nodiscard]] std::size_t left() const { return static_cast<std::size_t>(end - p); }
};

/// Reads `v`; false when the frame ends first.
template <class T>
bool get(Reader& r, T& v) {
  if constexpr (std::is_arithmetic_v<T>) {
    if (r.left() < sizeof(T)) return false;
    if constexpr (std::is_same_v<T, bool>) {
      v = *r.p != 0;
    } else {
      std::memcpy(&v, r.p, sizeof(T));
    }
    r.p += sizeof(T);
    return true;
  } else if constexpr (std::is_same_v<T, std::string>) {
    std::uint32_t n = 0;
    if (!get(r, n) || r.left() < n) return false;
    v.assign(reinterpret_cast<const char*>(r.p), n);
    r.p += n;
    return true;
  } else if constexpr (kIsVector<T>) {
    std::uint32_t n = 0;
    if (!get(r, n)) return false;
    for (std::uint32_t i = 0; i < n; ++i) {
      if (!get(r, v.emplace_back())) return false;
    }
    return true;
  } else {
    return std::apply([&](auto... f) { return (get(r, v.*f) && ...); }, T::body());
  }
}

/// Encoded size of the frame of `m`, type byte included.
template <class M>
std::size_t frame_size(const M& m) {
  if constexpr (kFixed<M>) {
    return fixed_size<M>();
  } else {
    return std::apply([&](auto... f) { return (std::size_t{1} + ... + field_size(m.*f)); },
                      M::fields());
  }
}

template <class M>
void write(const M& m, std::uint8_t* out) {
  *out = static_cast<std::uint8_t>(M::kType);
  std::uint8_t* p = out + 1;
  std::apply([&](auto... f) { ((p = put(p, m.*f)), ...); }, M::fields());
}

}  // namespace codec

/// Wire size, type byte included, of a message whose fields are all
/// integers.
template <WireMessage M>
inline constexpr std::size_t wire_size = codec::fixed_size<M>();

/// Encodes `m` into `out` (caller-provided, no allocation). Returns the
/// bytes written, or 0 when `capacity` is too small.
template <WireMessage M>
std::size_t encode_into(const M& m, std::uint8_t* out, std::size_t capacity) {
  const std::size_t n = codec::frame_size(m);
  if (capacity < n) return 0;
  codec::write(m, out);
  return n;
}

/// Encodes `m` into a frame sized once, with one allocation.
template <WireMessage M>
Bytes encode(const M& m) {
  Bytes b(codec::frame_size(m));
  codec::write(m, b.data());
  return b;
}

/// Decodes a frame of type M from `raw` (a Bytes, a stack buffer or a
/// network scatter entry). Fails on a wrong type byte or a truncated body.
template <WireMessage M>
Result<M> decode(std::span<const std::uint8_t> raw) {
  if (!raw.empty() && raw[0] == static_cast<std::uint8_t>(M::kType)) {
    M m;
    codec::Reader r{raw.data() + 1, raw.data() + raw.size()};
    if (std::apply([&](auto... f) { return (codec::get(r, m.*f) && ...); }, M::fields())) {
      return m;
    }
  }
  return Error::make(22, "protocol: malformed message");
}

/// True for message types that answer a request (and so echo its id):
/// LeaseGrant, LeaseError, LeaseDenied, ExtendOk, BatchGranted,
/// ReleaseOk, RegisterOk, HealthReportOk.
bool is_reply_type(MsgType t);

/// Extracts the echoed request id from a reply message — the trailing 8
/// bytes of every reply body. Fails on non-reply types and truncated
/// messages; returns 0 for replies sent to legacy (id 0) requests.
Result<std::uint64_t> reply_request_id(const Bytes& raw);

}  // namespace rfs::rfaas
