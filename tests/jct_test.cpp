// Tests for the completion-time model and the JCT add-on: exact
// completion times, slowdowns, the add-on's contract (aggregates
// preserved exactly, feasibility kept, the largest slowdown not raised —
// single jobs may finish later), its output pinned bit for bit, its work
// counters, and its behaviour on instances with and without structural
// eviction.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "core/amf.hpp"
#include "core/eamf.hpp"
#include "core/jct.hpp"
#include "core/metrics.hpp"
#include "core/persite.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "workload/generator.hpp"
#include "workload/scenario.hpp"

namespace amf::core {
namespace {

TEST(CompletionTimes, ExactValues) {
  AllocationProblem p({{10, 10}}, {10, 10}, {{6, 3}});
  Allocation a(Matrix{{2, 3}});
  auto jct = completion_times(p, a);
  EXPECT_DOUBLE_EQ(jct[0], 3.0);  // max(6/2, 3/3)
}

TEST(CompletionTimes, InfiniteWhenWorkedSiteUnallocated) {
  AllocationProblem p({{10, 10}}, {10, 10}, {{6, 3}});
  Allocation a(Matrix{{5, 0}});
  auto jct = completion_times(p, a);
  EXPECT_TRUE(std::isinf(jct[0]));
}

TEST(CompletionTimes, ZeroWorkIsZeroTime) {
  AllocationProblem p({{10, 10}}, {10, 10}, {{0, 0}});
  Allocation a(Matrix{{5, 0}});
  auto jct = completion_times(p, a);
  EXPECT_DOUBLE_EQ(jct[0], 0.0);
}

TEST(CompletionTimes, RequiresWorkloads) {
  AllocationProblem p({{10}}, {10});
  Allocation a(Matrix{{5}});
  EXPECT_THROW(completion_times(p, a), util::ContractError);
}

TEST(Slowdowns, ProportionalSplitIsOne) {
  AllocationProblem p({{10, 10}}, {10, 10}, {{8, 2}});
  Allocation a(Matrix{{8, 2}});  // exactly proportional
  auto sd = slowdowns(p, a);
  EXPECT_NEAR(sd[0], 1.0, 1e-12);
}

TEST(Slowdowns, SkewedSplitAboveOne) {
  AllocationProblem p({{10, 10}}, {10, 10}, {{8, 2}});
  Allocation a(Matrix{{5, 5}});  // same aggregate, bad split
  auto sd = slowdowns(p, a);
  // JCT = 8/5 = 1.6 vs ideal 10/10 = 1.
  EXPECT_NEAR(sd[0], 1.6, 1e-12);
}

TEST(JctAddon, PerfectSplitWhenUncontended) {
  // Two jobs with complementary workloads can both hit slowdown 1.
  AllocationProblem p({{10, 10}, {10, 10}}, {10, 10}, {{8, 2}, {2, 8}});
  AmfAllocator amf;
  auto base = amf.allocate(p);
  JctAddon addon;
  auto opt = addon.optimize(p, base);
  auto sd = slowdowns(p, opt);
  EXPECT_NEAR(sd[0], 1.0, 1e-5);
  EXPECT_NEAR(sd[1], 1.0, 1e-5);
  EXPECT_NEAR(opt.share(0, 0), 8.0, 1e-4);
  EXPECT_NEAR(opt.share(1, 1), 8.0, 1e-4);
  EXPECT_EQ(opt.policy(), "AMF+JCT");
}

TEST(JctAddon, PreservesAggregatesExactly) {
  auto cfg = workload::paper_default(1.2, 31);
  cfg.jobs = 40;
  workload::Generator gen(cfg);
  auto p = gen.generate();
  AmfAllocator amf;
  auto base = amf.allocate(p);
  JctAddon addon;
  auto opt = addon.optimize(p, base);
  for (int j = 0; j < p.jobs(); ++j)
    EXPECT_NEAR(opt.aggregate(j), base.aggregate(j), 1e-5 * p.scale())
        << "job " << j;
  EXPECT_TRUE(opt.feasible_for(p));
}

TEST(JctAddon, NeverWorseThanProportionalIdealBound) {
  // Every job's JCT must be >= its proportional ideal W/A; the add-on's
  // guaranteed-fraction construction must respect that bound and report
  // finite times for jobs with positive guaranteed fractions.
  AllocationProblem p({{10, 10}, {10, 10}}, {10, 10}, {{5, 5}, {9, 1}});
  AmfAllocator amf;
  auto base = amf.allocate(p);
  JctAddon addon;
  auto opt = addon.optimize(p, base);
  auto jct = completion_times(p, opt);
  for (int j = 0; j < 2; ++j) {
    double ideal = p.total_work(j) / opt.aggregate(j);
    EXPECT_GE(jct[static_cast<std::size_t>(j)], ideal - 1e-9);
  }
}

class JctAddonSweep : public ::testing::TestWithParam<int> {};

TEST_P(JctAddonSweep, ContractHoldsOnRandomInstances) {
  auto cfg = workload::property_sweep(static_cast<std::uint64_t>(GetParam()));
  workload::Generator gen(cfg);
  auto p = gen.generate();
  AmfAllocator amf;
  auto base = amf.allocate(p);
  JctAddon addon;
  auto opt = addon.optimize(p, base);

  // Aggregates preserved, feasibility kept.
  for (int j = 0; j < p.jobs(); ++j)
    EXPECT_NEAR(opt.aggregate(j), base.aggregate(j), 1e-5 * p.scale());
  EXPECT_TRUE(opt.feasible_for(p));

  // Mean finite JCT no worse than the raw flow split's.
  auto before = jct_report(p, base);
  auto after = jct_report(p, opt);
  EXPECT_LE(after.unbounded, before.unbounded);
  if (before.unbounded == 0 && after.unbounded == 0 && before.mean > 0.0) {
    EXPECT_LE(after.mean, before.mean * (1.0 + 1e-6));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JctAddonSweep, ::testing::Range(0, 25));

// Replay-like instance: the simulator benchmark's trace shape (paper
// default placement, uniform job sizes, 20 sites) at n jobs.
AllocationProblem replay_like(std::uint64_t seed, int jobs) {
  auto cfg = workload::paper_default(1.0, seed);
  cfg.size_distribution = workload::SizeDistribution::kUniform;
  cfg.sites = 20;
  cfg.jobs = jobs;
  return workload::Generator(cfg).generate();
}

double max_slowdown(const AllocationProblem& p, const Allocation& a) {
  auto sd = slowdowns(p, a);
  return *std::max_element(sd.begin(), sd.end());
}

class JctAddonReplaySweep : public ::testing::TestWithParam<int> {};

// The add-on's guarantee at replay scale: aggregates kept, the split
// feasible, and the largest slowdown not raised. E-AMF's raw split at this
// size always starves some job at some worked site (infinite slowdown),
// which makes the slowdown bound vacuous on its own; the per-site max-min
// split gives every job a positive rate at every worked site, so on that
// base the bound bites.
TEST_P(JctAddonReplaySweep, KeepsAggregatesAndNeverRaisesWorstSlowdown) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  auto p = replay_like(seed, 16 + GetParam() % 17);
  EnhancedAmfAllocator eamf;
  PerSiteMaxMin psmf;
  JctAddon addon;
  for (const Allocation& base : {eamf.allocate(p), psmf.allocate(p)}) {
    auto opt = addon.optimize(p, base);
    for (int j = 0; j < p.jobs(); ++j)
      EXPECT_NEAR(opt.aggregate(j), base.aggregate(j), 1e-5 * p.scale())
          << base.policy() << " job " << j;
    EXPECT_TRUE(opt.feasible_for(p)) << base.policy();
    EXPECT_LE(max_slowdown(p, opt), max_slowdown(p, base) * (1.0 + 1e-6))
        << base.policy() << " seed " << seed;
  }
  EXPECT_TRUE(std::isfinite(max_slowdown(p, psmf.allocate(p))));
}

INSTANTIATE_TEST_SUITE_P(Seeds, JctAddonReplaySweep, ::testing::Range(0, 40));

// Pins the add-on's output bit for bit: FNV-1a over the bit pattern of
// every share on 64 seeded instances (replay-like and capped-demand ones,
// so multi-round freezing is covered). A change that moves any share by
// one ulp changes the fingerprint.
TEST(JctAddon, GoldenFingerprint) {
  std::uint64_t hash = 14695981039346656037ull;
  auto mix = [&hash](double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    for (int b = 0; b < 8; ++b) {
      hash ^= (bits >> (8 * b)) & 0xffu;
      hash *= 1099511628211ull;
    }
  };
  EnhancedAmfAllocator eamf;
  JctAddon addon;
  for (int k = 0; k < 64; ++k) {
    const auto seed = static_cast<std::uint64_t>(1000 + k);
    AllocationProblem p;
    if (k % 2 == 0) {
      p = replay_like(seed, 16 + k % 9);
    } else {
      auto cfg = workload::property_sweep(seed);
      cfg.jobs = 16 + k % 7;
      cfg.sites = 6;
      p = workload::Generator(cfg).generate();
    }
    auto opt = addon.optimize(p, eamf.allocate(p));
    for (int j = 0; j < opt.jobs(); ++j)
      for (int s = 0; s < opt.sites(); ++s) mix(opt.share(j, s));
  }
  EXPECT_EQ(hash, 0xd6630185121c468eull);
}

TEST(JctAddon, CountsCallsAndProbes) {
  auto& reg = obs::Registry::global();
  auto calls = reg.counter("amf_core_jct_addon_calls");
  auto probes = reg.counter("amf_core_jct_addon_probes");
  auto maxflows = reg.counter("amf_flow_maxflow_calls");
  auto probes_of = [&](const JctAddon& addon, const AllocationProblem& p,
                       const Allocation& base) {
    const long long c0 = calls.value(), p0 = probes.value();
    const long long m0 = maxflows.value();
    addon.optimize(p, base);
    EXPECT_EQ(calls.value() - c0, 1);
    // Every probe is one max-flow, and the add-on solves no other flow.
    EXPECT_EQ(probes.value() - p0, maxflows.value() - m0);
    return probes.value() - p0;
  };

  auto p = replay_like(3, 20);
  auto base = EnhancedAmfAllocator().allocate(p);
  EXPECT_GT(probes_of(JctAddon(), p, base), 0);
  // One freeze round of 5 bisection steps after a failed fast path: the
  // initial probe, the fast path and the 5 steps; the final solve at the
  // settled fractions is the last feasible probe's and is not repeated.
  EXPECT_EQ(probes_of(JctAddon(1e-9, 5, 0, 1), p, base), 7);
  // Uncontended: the fast path succeeds at once.
  AllocationProblem easy({{10, 10}, {10, 10}}, {10, 10}, {{8, 2}, {2, 8}});
  EXPECT_EQ(probes_of(JctAddon(), easy, AmfAllocator().allocate(easy)), 2);
}

TEST(JctAddon, WorksOnPsmfAllocationsToo) {
  // The add-on is policy-agnostic: it only needs aggregates.
  auto cfg = workload::property_sweep(77);
  workload::Generator gen(cfg);
  auto p = gen.generate();
  PerSiteMaxMin psmf;
  auto base = psmf.allocate(p);
  JctAddon addon;
  auto opt = addon.optimize(p, base);
  for (int j = 0; j < p.jobs(); ++j)
    EXPECT_NEAR(opt.aggregate(j), base.aggregate(j), 1e-5 * p.scale());
  EXPECT_TRUE(opt.feasible_for(p));
  EXPECT_EQ(opt.policy(), "PSMF+JCT");
}

TEST(JctAddon, HandlesZeroWorkJobs) {
  AllocationProblem p({{10, 10}, {10, 10}}, {10, 10}, {{0, 0}, {5, 5}});
  AmfAllocator amf;
  auto base = amf.allocate(p);
  JctAddon addon;
  auto opt = addon.optimize(p, base);
  EXPECT_NEAR(opt.aggregate(0), base.aggregate(0), 1e-6 * p.scale());
  auto jct = completion_times(p, opt);
  EXPECT_DOUBLE_EQ(jct[0], 0.0);
  EXPECT_TRUE(std::isfinite(jct[1]));
}

TEST(JctAddon, ZeroJobs) {
  AllocationProblem p(Matrix{}, {5.0});
  JctAddon addon;
  auto opt = addon.optimize(
      AllocationProblem(Matrix{}, {5.0}, Matrix{}), Allocation(Matrix{}));
  EXPECT_EQ(opt.jobs(), 0);
  (void)p;
}

TEST(JctAddon, ImprovesMeanSlowdownOverRawFlowSplit) {
  // On a moderately loaded instance with capped demands, the raw max-flow
  // split should be clearly beatable.
  auto cfg = workload::property_sweep(5);
  cfg.jobs = 10;
  workload::Generator gen(cfg);
  auto p = gen.generate();
  AmfAllocator amf;
  auto base = amf.allocate(p);
  JctAddon addon;
  auto opt = addon.optimize(p, base);
  auto before = jct_report(p, base);
  auto after = jct_report(p, opt);
  // At minimum: no new unbounded jobs and no regression.
  EXPECT_LE(after.unbounded, before.unbounded);
}

TEST(JctAddon, ValidatesConfiguration) {
  EXPECT_THROW(JctAddon(0.0), util::ContractError);
  EXPECT_THROW(JctAddon(1e-9, 0), util::ContractError);
  EXPECT_THROW(JctAddon(1e-9, 10, -1), util::ContractError);
  EXPECT_THROW(JctAddon(1e-9, 10, 1, 0), util::ContractError);
}

TEST(JctReport, CountsUnboundedSeparately) {
  AllocationProblem p({{10, 10}, {10, 10}}, {10, 10}, {{5, 5}, {5, 5}});
  Allocation a(Matrix{{5, 5}, {5, 0}});  // job 1 starved at site 1
  auto r = jct_report(p, a);
  EXPECT_EQ(r.unbounded, 1);
  EXPECT_DOUBLE_EQ(r.mean, 1.0);  // only job 0's finite JCT
}

}  // namespace
}  // namespace amf::core
