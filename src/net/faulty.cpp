#include "net/faulty.hpp"

namespace rfs::net {

FaultInjector::Decision FaultInjector::decide(fabric::DeviceId src, fabric::DeviceId dst,
                                              Time now) {
  ++counters_.messages;
  const std::uint64_t link = key(src, dst);

  for (const auto& p : partitions_) {
    if (p.link == link && now >= p.from && now < p.until) {
      ++counters_.dropped;
      ++counters_.partitioned;
      return Decision{.drop = true};
    }
  }

  const auto it = links_.find(link);
  const FaultSpec& spec = it != links_.end() ? it->second : default_spec_;

  Decision d;
  // Draw every fault independently and in a fixed order, so the RNG
  // stream (and with it the whole run) only depends on the seed and the
  // message sequence — never on which probabilities are zero.
  const bool drop = rng_.bernoulli(spec.drop_p);
  const bool dup = rng_.bernoulli(spec.dup_p);
  const bool reorder = rng_.bernoulli(spec.reorder_p);
  const bool delay = rng_.bernoulli(spec.delay_p);
  const Duration held =
      static_cast<Duration>(rng_.uniform(static_cast<double>(spec.delay_min),
                                         static_cast<double>(spec.delay_max)));
  if (drop) {
    ++counters_.dropped;
    d.drop = true;
    return d;
  }
  if (dup) {
    ++counters_.duplicated;
    d.duplicates = 1;
  }
  if (reorder || delay) {
    reorder ? ++counters_.reordered : ++counters_.delayed;
    d.extra_delay = held;
  }
  return d;
}

WorkerFaultInjector::Decision WorkerFaultInjector::decide(fabric::DeviceId device) {
  ++counters_.invocations;
  const auto it = executors_.find(device);
  const WorkerFaultSpec& spec = it != executors_.end() ? it->second : default_spec_;

  Decision d;
  // Fixed-order draws, mirroring FaultInjector::decide: the RNG stream
  // depends only on the seed and the invocation sequence, never on
  // which probabilities are zero — one seed replays the whole schedule.
  const bool crash = rng_.bernoulli(spec.crash_p);
  const bool stuck = rng_.bernoulli(spec.stuck_p);
  const bool gray = rng_.bernoulli(spec.gray_p);
  const bool corrupt = rng_.bernoulli(spec.corrupt_p);
  const Duration pause = static_cast<Duration>(
      spec.gray_multiplier * rng_.uniform(static_cast<double>(spec.gray_pause_min),
                                          static_cast<double>(spec.gray_pause_max)));
  if (crash) {
    ++counters_.crashes;
    d.crash = true;
    return d;
  }
  if (stuck) {
    ++counters_.stucks;
    d.stuck = true;
    return d;
  }
  if (gray) {
    ++counters_.grays;
    d.gray_delay = pause;
  }
  if (corrupt) {
    ++counters_.corruptions;
    d.corrupt = true;
  }
  return d;
}

bool WorkerFaultInjector::note_execution(std::uint64_t tag) {
  if (tag == 0) return true;
  if (!executed_tags_.insert(tag)) {
    ++counters_.double_executions;
    return false;
  }
  return true;
}

std::size_t WorkerFaultInjector::TagWindow::probe(std::uint64_t tag) const {
  std::size_t i = home(tag);
  while (slots_[i] != 0 && slots_[i] != tag) i = (i + 1) & kMask;
  return i;
}

bool WorkerFaultInjector::TagWindow::insert(std::uint64_t tag) {
  const std::size_t slot = probe(tag);
  if (slots_[slot] == tag) return false;
  if (fifo_[next_] != 0) erase(fifo_[next_]);  // full: evict the oldest
  // The erase may have shifted entries, so probe again for the free slot.
  slots_[probe(tag)] = tag;
  fifo_[next_] = tag;
  next_ = (next_ + 1) & (kExecutionWindow - 1);
  return true;
}

void WorkerFaultInjector::TagWindow::erase(std::uint64_t tag) {
  std::size_t hole = probe(tag);
  // Backward shift: pull each later entry of the probe run into the hole
  // unless its home lies after the hole (it would become unreachable).
  for (std::size_t j = (hole + 1) & kMask; slots_[j] != 0; j = (j + 1) & kMask) {
    if (((j - home(slots_[j])) & kMask) >= ((j - hole) & kMask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = 0;
}

}  // namespace rfs::net
