#include "spans.hpp"

#include <cinttypes>
#include <cstdio>

#include "common.hpp"

namespace rfb {

namespace {
std::int64_t wall_ns() { return static_cast<std::int64_t>(wall_seconds() * 1e9); }
}  // namespace

std::uint32_t Spans::begin(const char* name, std::uint32_t parent) {
  if (!enabled_) return 0;
  spans_.push_back({name, parent, 0, Clock::Wall, wall_ns(), -1});
  return static_cast<std::uint32_t>(spans_.size());
}

void Spans::end(std::uint32_t id) {
  if (id == 0) return;
  spans_[id - 1].end_ns = wall_ns();
}

void Spans::add_virtual(const char* name, std::uint32_t parent, std::int64_t start_ns,
                        std::int64_t end_ns, std::uint32_t lane) {
  if (!enabled_) return;
  spans_.push_back({name, parent, lane, Clock::Virtual, start_ns, end_ns});
}

bool Spans::write_chrome(const std::string& path, std::size_t max_virtual) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  // pid 1 holds wall-clock spans, pid 2 the virtual-time invocation spans
  // (one thread lane per closed-loop client). Timestamps are microseconds.
  std::fprintf(f,
               "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"
               "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"wall "
               "clock\"}},\n"
               "{\"ph\":\"M\",\"pid\":2,\"name\":\"process_name\",\"args\":{\"name\":\"virtual "
               "time (engine clock)\"}}");
  std::size_t virtual_written = 0;
  std::size_t virtual_total = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const bool is_virtual = s.clock == Clock::Virtual;
    if (is_virtual && ++virtual_total > max_virtual) continue;
    if (is_virtual) ++virtual_written;
    const std::int64_t end = s.end_ns < s.start_ns ? s.start_ns : s.end_ns;
    std::fprintf(f,
                 ",\n{\"ph\":\"X\",\"name\":\"%s\",\"pid\":%d,\"tid\":%u,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%u}}",
                 s.name, is_virtual ? 2 : 1, s.lane, static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(end - s.start_ns) / 1e3, i + 1, s.parent);
  }
  std::fprintf(f,
               "\n],\"metadata\":{\"spans\":%zu,\"virtual_spans\":%zu,"
               "\"virtual_spans_written\":%zu}}\n",
               spans_.size(), virtual_total, virtual_written);
  return std::fclose(f) == 0;
}

}  // namespace rfb
