// Shared pieces of the benchmark: clocks, memory probes, the heap
// counters fed by the global operator new/delete of heap.cpp, percentile
// helpers, the engine stepping loop and the report every workload fills.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/engine.hpp"

namespace rfb {

/// Process CPU time in seconds. The simulator is single-threaded, so this
/// is the work done, without the time the host spent running others.
double cpu_seconds();
/// Monotonic wall-clock seconds since the process started.
double wall_seconds();
/// Peak resident set size of the process, MB (getrusage).
double peak_rss_mb();
/// Current resident set size of the process, MB (/proc/self/statm).
double current_rss_mb();

/// Heap activity since process start, counted by operator new/delete.
struct HeapCounters {
  std::uint64_t allocs = 0;
  std::uint64_t frees = 0;
  std::uint64_t bytes = 0;  ///< bytes requested from operator new
};
HeapCounters heap_counters();

/// Nearest-rank percentile (p in [0, 100]) of `sorted` (ascending).
double percentile_sorted(const std::vector<double>& sorted, double p);

/// Times a measured phase in chunks of process CPU time, expressed at a
/// fixed reference host speed.
///
/// On a shared host the speed of the whole machine drifts by tens of
/// percent over minutes, and neighbours inflate single chunks by up to 2x.
/// So after each chunk the timer also runs a reference kernel whose code
/// never changes: binary-heap pushes and random hash-table probes over
/// preallocated memory, the access pattern of the engine queue and the
/// lease tables. Each chunk's process CPU time is scaled by
/// kReferenceKernelSeconds over the kernel time measured right after it.
/// Both see the same host at the same moment, so the drift cancels; the
/// median over the chunks drops the ones a neighbour inflated.
class ChunkTimer {
 public:
  /// Defines the reference speed: the host speed at which one kernel run
  /// takes this much process CPU time (about its time between invocation
  /// chunks on the 4-vCPU KVM guest the bounds were set on).
  static constexpr double kReferenceKernelSeconds = 135e-6;

  /// Reserves room for `chunks` chunks so timing allocates nothing; each
  /// boundary runs the reference kernel `kernel_runs` times and uses
  /// their median.
  explicit ChunkTimer(std::size_t chunks, unsigned kernel_runs = 1);
  /// Opens the first chunk.
  void start();
  /// Closes the current chunk, runs the reference kernel (outside any
  /// chunk) and opens the next chunk.
  void boundary();
  /// CPU seconds of each closed chunk, at the reference speed.
  [[nodiscard]] std::vector<double> chunk_seconds() const;

 private:
  unsigned kernel_runs_;
  std::vector<double> opened_;
  std::vector<double> closed_;
  std::vector<double> kernel_;
};

/// Process CPU seconds of one run of the reference kernel (see ChunkTimer).
double reference_kernel_seconds();

/// Median (nearest rank) of `values`.
double median_of(std::vector<double> values);

/// Engine work done by step(): events executed and the largest queue seen.
struct StepStats {
  std::uint64_t steps = 0;
  std::size_t queue_peak = 0;
};

/// Executes events one step() at a time until `done()` holds or the queue
/// drains, accumulating into `stats`.
template <typename Done>
void drive(rfs::sim::Engine& engine, Done done, StepStats& stats) {
  while (!done()) {
    if (!engine.step()) return;
    ++stats.steps;
    if (engine.pending() > stats.queue_peak) stats.queue_peak = engine.pending();
  }
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Everything one process run reports: the correctness verdict, operation
/// counts and named metrics. Printed as one JSON line by main.cpp.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double setup_s = 0;  ///< process CPU seconds of set-up
  std::vector<Metric> metrics;
  std::vector<std::string> gate_failures;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a correctness gate; a failing gate makes the run incorrect.
  void gate(bool ok, std::string what) {
    if (!ok) {
      correct = false;
      gate_failures.push_back(std::move(what));
    }
  }
};

}  // namespace rfb
