// driver.hpp — entry points of the benchmark driver's workloads.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct Options {
  std::string workload;   ///< replay-amf | replay-jct | serve-cluster
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< length of the measured window
  bool trace = false;     ///< per-layer run instead of the end-to-end one
  /// CLOCK_MONOTONIC seconds at which the launching script started the
  /// workload's first process; set-up time is measured from there.
  double t0 = 0.0;
  // serve-cluster: the endpoints run.py started (unix socket paths) and
  // the shards' HTTP ports (traced run only; -1 when absent).
  std::string router;
  std::vector<std::string> shards;
  std::vector<int> http_ports;
  /// serve-cluster traced run: which half of it this cluster serves.
  bool traced_phase = false;
};

Result run_replay(const Options& options);
Result run_serve(const Options& options);

/// Feeds each check a corrupted output and records in `result` every
/// check that fails to reject it (or that rejects a valid one).
void run_selftest(Result* result);

/// The per-layer metrics every traced run reports, so each workload prints
/// the full set (zero where the workload does not exercise the layer).
void add_layer_defaults(Result* result);

}  // namespace perfbench
