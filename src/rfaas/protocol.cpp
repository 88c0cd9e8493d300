#include "rfaas/protocol.hpp"

#include <cstring>

namespace rfs::rfaas {

void InvocationHeader::pack(std::uint8_t* out) const {
  std::memcpy(out, &result_addr, 8);
  std::memcpy(out + 8, &result_rkey, 4);
  std::memcpy(out + 12, &invocation_tag, 8);
  std::memcpy(out + 20, &deadline, 8);
  std::memcpy(out + 28, &checksum, 4);
}

InvocationHeader InvocationHeader::unpack(const std::uint8_t* in) {
  InvocationHeader h;
  std::memcpy(&h.result_addr, in, 8);
  std::memcpy(&h.result_rkey, in + 8, 4);
  std::memcpy(&h.invocation_tag, in + 12, 8);
  std::memcpy(&h.deadline, in + 20, 8);
  std::memcpy(&h.checksum, in + 28, 4);
  return h;
}

std::size_t encode_into(const InvocationHeader& h, std::uint8_t* out, std::size_t capacity) {
  if (capacity < InvocationHeader::kSize) return 0;
  h.pack(out);
  return InvocationHeader::kSize;
}

Result<InvocationFrame> decode_invocation_frame(std::span<const std::uint8_t> buf,
                                                std::uint32_t byte_len) {
  if (byte_len < InvocationHeader::kSize || byte_len > buf.size()) {
    return Error::make(23, "protocol: malformed invocation frame");
  }
  InvocationFrame f;
  f.header = InvocationHeader::unpack(buf.data());
  f.payload = buf.subspan(InvocationHeader::kSize, byte_len - InvocationHeader::kSize);
  return f;
}

InvocationResponse decode_invocation_response(const fabric::Wc& wc) {
  InvocationResponse r;
  r.invocation_id = Imm::result_id(wc.imm);
  r.rejected = Imm::rejected(wc.imm);
  r.output_bytes = wc.byte_len;
  r.checksum12 = Imm::result_checksum(wc.imm);
  return r;
}

Bytes encode(MsgType type) { return Bytes{static_cast<std::uint8_t>(type)}; }

Result<MsgType> peek_type(const Bytes& raw) {
  if (raw.empty()) return Error::make(21, "protocol: empty message");
  auto v = raw[0];
  if (v >= static_cast<std::uint8_t>(MsgType::Count)) {
    return Error::make(21, "protocol: unknown message type");
  }
  return static_cast<MsgType>(v);
}

bool is_reply_type(MsgType t) {
  switch (t) {
    case MsgType::LeaseGrant:
    case MsgType::LeaseError:
    case MsgType::LeaseDenied:
    case MsgType::ExtendOk:
    case MsgType::BatchGranted:
    case MsgType::ReleaseOk:
    case MsgType::RegisterOk:
    case MsgType::HealthReportOk:
      return true;
    default:
      return false;
  }
}

Result<std::uint64_t> reply_request_id(const Bytes& raw) {
  auto t = peek_type(raw);
  if (!t) return t.error();
  if (!is_reply_type(t.value())) return Error::make(24, "protocol: not a reply type");
  // Every reply appends the echoed id as its final 8 bytes; reading it
  // positionally keeps reply matching O(1) even for variable-length
  // replies (BatchGranted, LeaseError).
  if (raw.size() < 1 + 8) return Error::make(22, "protocol: truncated reply");
  std::uint64_t id = 0;
  std::memcpy(&id, raw.data() + raw.size() - 8, 8);
  return id;
}

const char* to_string(SandboxType t) {
  return t == SandboxType::Docker ? "docker" : "bare-metal";
}

const char* to_string(DenialReason r) {
  switch (r) {
    case DenialReason::Overload: return "overload";
    case DenialReason::QuotaExceeded: return "quota-exceeded";
  }
  return "unknown";
}

const char* to_string(TerminationReason r) {
  switch (r) {
    case TerminationReason::QuotaPressure: return "quota-pressure";
    case TerminationReason::Drain: return "drain";
    case TerminationReason::Rebalance: return "rebalance";
  }
  return "unknown";
}

}  // namespace rfs::rfaas
