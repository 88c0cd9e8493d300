// The benchmark's workloads. Each builds its own deployment through the
// public cluster::Harness API, runs a warm-up, then a measured phase of a
// fixed amount of work (an operation count or a virtual horizon, derived
// from --seconds), and fills a Report. Traced runs add the per-layer
// ladders and replays.
#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"
#include "spans.hpp"

namespace rfb {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Sets the amount of measured work (about one CPU second per second).
  double seconds = 10;
  bool trace = false;
};

/// invoke_hot (fault tolerance off) and invoke_ft (fault tolerance on,
/// one gray executor).
Report run_invoke(const Options& opt, bool fault_tolerant, Spans& spans);

/// lease_churn: two tenants against a ~2k-executor sharded, journaled
/// control plane with one warm standby.
Report run_lease_churn(const Options& opt, Spans& spans);

}  // namespace rfb
