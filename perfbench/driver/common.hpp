// common.hpp — shared pieces of the benchmark driver: clocks, the
// host-speed calibration kernel, order statistics and the result record
// every workload fills in.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Seconds on the monotonic clock, comparable with Python's
/// time.monotonic() in the launching script (both read CLOCK_MONOTONIC).
double monotonic_s();

/// Nominal run time of calibration_kernel() in milliseconds: a constant of
/// the benchmark, fixed once from the median of many runs on the reference
/// host (see README.md). Times measured beside the kernel are multiplied by
/// kKernelNominalMs / (kernel time measured next to them).
inline constexpr double kKernelNominalMs = 7.0;

/// A fixed sort, hash-table and node-map workload that calls no program
/// code. Returns a checksum so the work cannot be optimized away.
std::uint64_t calibration_kernel();

/// Runs the kernel once and returns its wall time in milliseconds.
double time_kernel_ms();

/// Linear-interpolated percentile (q in [0, 100]); 0 for an empty input.
double percentile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}
double mean(const std::vector<double>& values);

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

/// Everything one driver invocation reports. `metrics` are the values the
/// benchmark defines (host-corrected where that applies); `raw` holds the
/// uncorrected twins and other context printed beside them.
struct Result {
  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  std::map<std::string, double> metrics;
  std::map<std::string, double> raw;
  std::vector<std::string> failures;  ///< one line per failed check

  void fail(const std::string& what);
  /// One JSON object on one line.
  std::string to_json() const;
};

/// Host-speed correction factor for an interval bracketed by two kernel
/// timings: nominal / mean(before, after).
inline double correction(double kernel_before_ms, double kernel_after_ms) {
  return kKernelNominalMs / (0.5 * (kernel_before_ms + kernel_after_ms));
}

}  // namespace perfbench
