#include "common.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <unordered_map>

namespace perfbench {

double monotonic_s() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

std::uint64_t calibration_kernel() {
  // Fixed inputs from a 64-bit LCG: the same instructions and memory
  // pattern on every call, so only the host's speed can change its time.
  // Two halves with different bottlenecks: a sort plus a hash table
  // (arithmetic and cache), and a node-based map of small vectors
  // (allocator and pointer chasing), like the solver's own mix.
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  auto next = [&x] {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return x >> 11;
  };
  constexpr std::size_t kSortN = 1u << 15;
  constexpr std::size_t kHashN = 1u << 13;
  std::vector<std::uint64_t> keys(kSortN);
  for (auto& k : keys) k = next();
  std::sort(keys.begin(), keys.end());
  std::unordered_map<std::uint64_t, std::uint64_t> table;
  table.reserve(kHashN);
  for (std::size_t i = 0; i < kHashN; ++i) table[keys[i * 4] % 100003] += i;
  std::uint64_t sum = keys[kSortN / 2];
  for (std::size_t i = 0; i < kSortN; i += 2) {
    auto it = table.find(keys[i] % 100003);
    if (it != table.end()) sum += it->second;
  }
  std::map<std::uint64_t, std::vector<double>> tree;
  for (int i = 0; i < 12000; ++i) tree[next() % 50000].push_back(0.5 * i);
  for (const auto& [key, values] : tree) sum += key ^ values.size();
  return sum;
}

double time_kernel_ms() {
  static volatile std::uint64_t sink = 0;
  const auto t0 = Clock::now();
  sink = sink + calibration_kernel();
  return ms_between(t0, Clock::now());
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

void Result::fail(const std::string& what) {
  correct = false;
  if (failures.size() < 20) failures.push_back(what);
}

namespace {

void append_map(std::string* out, const std::map<std::string, double>& m) {
  *out += "{";
  bool first = true;
  char buf[64];
  for (const auto& [name, value] : m) {
    if (!first) *out += ", ";
    first = false;
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(value) ? value : -1.0);
    *out += "\"" + name + "\": " + buf;
  }
  *out += "}";
}

std::string escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' ? ' ' : c);
  }
  return out;
}

}  // namespace

std::string Result::to_json() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": ";
  append_map(&out, metrics);
  out += ", \"raw\": ";
  append_map(&out, raw);
  out += ", \"failures\": [";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + escape(failures[i]) + "\"";
  }
  out += "]}";
  return out;
}

}  // namespace perfbench
