// perfbench_driver — the compiled half of the benchmark (perfbench/run.py
// is the other half: it builds this program, starts the serving
// processes, and prints the result line).
//
//   perfbench_driver --workload W --seed N --seconds S --trace 0|1 --t0 T
//                    [--router PATH] [--shard PATH ...] [--http PORT ...]
//                    [--traced-phase 0|1]
//   perfbench_driver --selftest
//
// Prints one JSON object on its last line: correct, attempted, failed,
// metrics (host-corrected), raw (uncorrected twins and context) and the
// failed checks.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>

#include "driver.hpp"

namespace perfbench {

void add_layer_defaults(Result* result) {
  static const char* const kLayerMetrics[] = {
      "sim.engine_ms",
      "sim.deltas_per_event",
      "core.allocate_ms",
      "core.self_ms",
      "core.jct_addon_ms",
      "core.fill_rounds_per_event",
      "core.warm_share",
      "core.primary_tier_share",
      "flow.self_ms",
      "flow.critical_level_ms",
      "flow.maxflow_calls_per_event",
      "flow.newton_iters_per_event",
      "flow.augmenting_paths_per_event",
      "svc.self_ms",
      "svc.turnaround_ms",
      "svc.stage_parse_ms",
      "svc.stage_queue_ms",
      "svc.stage_solve_ms",
      "svc.stage_journal_ms",
      "svc.stage_reply_ms",
      "svc.wire_ms",
      "svc.solve_response_bytes",
      "svc.allocator_calls_per_solve",
      "svc.journal_records_per_delta",
      "router.hop_ms",
      "trace.event_ms",
      "trace.layer_sum_ms",
      "trace.overhead",
  };
  for (const char* name : kLayerMetrics) result->metrics.emplace(name, 0.0);
}

}  // namespace perfbench

namespace {

int usage() {
  std::cerr << "usage: perfbench_driver --workload W --seed N --seconds S "
               "--trace 0|1 --t0 T [--router PATH] [--shard PATH ...] "
               "[--http PORT ...] [--traced-phase 0|1]\n"
               "       perfbench_driver --selftest\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    auto take = [&]() {
      ++i;
      return std::string(value);
    };
    if (arg == "--selftest") {
      selftest = true;
    } else if (value == nullptr) {
      return usage();
    } else if (arg == "--workload") {
      options.workload = take();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(take().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(take().c_str());
    } else if (arg == "--trace") {
      options.trace = take() == "1";
    } else if (arg == "--t0") {
      options.t0 = std::atof(take().c_str());
    } else if (arg == "--router") {
      options.router = take();
    } else if (arg == "--shard") {
      options.shards.push_back(take());
    } else if (arg == "--http") {
      options.http_ports.push_back(std::atoi(take().c_str()));
    } else if (arg == "--traced-phase") {
      options.traced_phase = take() == "1";
    } else {
      return usage();
    }
  }

  Result result;
  try {
    if (selftest) {
      run_selftest(&result);
      result.attempted = 1;
    } else if (options.workload == "replay-amf" ||
               options.workload == "replay-jct") {
      result = run_replay(options);
    } else if (options.workload == "serve-cluster") {
      result = run_serve(options);
    } else {
      return usage();
    }
    // Every run also proves that its checks can fail.
    if (!selftest) run_selftest(&result);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 1;
  }
  std::cout << result.to_json() << std::endl;
  return 0;
}
