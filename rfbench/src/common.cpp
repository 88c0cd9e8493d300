#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <functional>

namespace rfb {

namespace {
const auto g_start = std::chrono::steady_clock::now();
/// Binary-heap pushes (and hash-table probes) per reference-kernel run.
constexpr std::size_t kKernelPushes = 4000;
}  // namespace

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double wall_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - g_start).count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double current_rss_mb() {
  long pages = 0;
  long resident = 0;
  if (FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const auto idx = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

double median_of(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return percentile_sorted(values, 50);
}

double reference_kernel_seconds() {
  // Preallocated once: the kernel never allocates, so it leaves the heap
  // counters of a measured phase alone.
  static std::vector<std::uint64_t> heap = [] {
    std::vector<std::uint64_t> v;
    v.reserve(kKernelPushes);
    return v;
  }();
  static std::vector<std::uint64_t> table(std::size_t{1} << 18);
  static std::uint64_t x = 0x9e3779b97f4a7c15ull;
  static volatile std::uint64_t sink = 0;
  auto next = [] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  const double c0 = cpu_seconds();
  std::uint64_t acc = 0;
  heap.clear();
  for (std::size_t i = 0; i < kKernelPushes; ++i) {
    heap.push_back(next());
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
    std::uint64_t& slot = table[next() & (table.size() - 1)];
    acc += slot;
    slot = acc;
  }
  sink = sink + acc + heap.front();
  return cpu_seconds() - c0;
}

ChunkTimer::ChunkTimer(std::size_t chunks, unsigned kernel_runs) : kernel_runs_(kernel_runs) {
  opened_.reserve(chunks + 1);
  closed_.reserve(chunks + 1);
  kernel_.reserve(kernel_runs * (chunks + 1));
}

void ChunkTimer::start() {
  (void)reference_kernel_seconds();  // first call touches the kernel's memory
  opened_.push_back(cpu_seconds());
}

void ChunkTimer::boundary() {
  closed_.push_back(cpu_seconds());
  for (unsigned i = 0; i < kernel_runs_; ++i) kernel_.push_back(reference_kernel_seconds());
  opened_.push_back(cpu_seconds());
}

std::vector<double> ChunkTimer::chunk_seconds() const {
  std::vector<double> out;
  for (std::size_t i = 0; i < closed_.size(); ++i) {
    const auto first = kernel_.begin() + static_cast<std::ptrdiff_t>(i * kernel_runs_);
    const double kernel = median_of({first, first + kernel_runs_});
    out.push_back((closed_[i] - opened_[i]) * kReferenceKernelSeconds / kernel);
  }
  return out;
}

}  // namespace rfb
