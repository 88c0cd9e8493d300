// Span recorder of the traced run. The benchmark records a span around
// each public call it makes into the simulator: set-up calls and ladders on
// the wall clock, each invocation on the engine's virtual
// clock (wall time per call means nothing when calls interleave). Spans
// stay in memory and are written once, at exit, as Chrome trace-event
// JSON, which Perfetto and chrome://tracing open offline.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace rfb {

class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a wall-clock span; returns its id (0 when disabled).
  std::uint32_t begin(const char* name, std::uint32_t parent = 0);
  /// Closes a span opened by begin().
  void end(std::uint32_t id);
  /// Records a finished virtual-time span (engine nanoseconds) on `lane`.
  void add_virtual(const char* name, std::uint32_t parent, std::int64_t start_ns,
                   std::int64_t end_ns, std::uint32_t lane);
  /// Pre-sizes the span store so recording allocates nothing.
  void reserve(std::size_t n) { spans_.reserve(spans_.size() + n); }

  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  /// Writes every span (the first `max_virtual` virtual spans only; the
  /// rest are counted in the metadata) as Chrome trace-event JSON.
  bool write_chrome(const std::string& path, std::size_t max_virtual) const;

 private:
  enum class Clock : std::uint8_t { Wall, Virtual };
  struct Span {
    const char* name;
    std::uint32_t parent;
    std::uint32_t lane;
    Clock clock;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII wall-clock span.
class Scoped {
 public:
  Scoped(Spans& spans, const char* name, std::uint32_t parent = 0)
      : spans_(spans), id_(spans.begin(name, parent)) {}
  ~Scoped() { spans_.end(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  [[nodiscard]] std::uint32_t id() const { return id_; }

 private:
  Spans& spans_;
  std::uint32_t id_;
};

}  // namespace rfb
