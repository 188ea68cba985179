// selftest.cpp — shows that every output check can fail.
//
// Each check first sees a valid output of the real program (which it must
// accept), then a copy corrupted in the one way the check exists to catch
// (which it must reject). A check that accepts the corruption, or rejects
// the valid output, marks the run incorrect.
#include <string>
#include <vector>

#include "checks.hpp"
#include "core/amf.hpp"
#include "core/eamf.hpp"
#include "core/jct.hpp"
#include "driver.hpp"
#include "workload/generator.hpp"

namespace perfbench {
namespace {

void expect(Result* result, bool accepted_valid, bool rejected_corrupt,
            const std::string& check) {
  if (!accepted_valid) result->fail("selftest: " + check + " rejects a valid output");
  if (!rejected_corrupt)
    result->fail("selftest: " + check + " accepts a corrupted output");
}

}  // namespace

void run_selftest(Result* result) {
  amf::workload::GeneratorConfig cfg;
  cfg.jobs = 8;
  cfg.sites = 4;
  cfg.sites_per_job_min = 2;
  cfg.sites_per_job_max = 3;
  cfg.seed = 11;
  amf::workload::Generator generator(cfg);
  const auto problem = generator.generate();
  const Instance inst = instance_of(problem);
  const Matrix amf = shares_of(amf::core::AmfAllocator().allocate(problem));
  const auto eamf_alloc = amf::core::EnhancedAmfAllocator().allocate(problem);
  const Matrix eamf = shares_of(eamf_alloc);
  const Matrix improved =
      shares_of(amf::core::JctAddon().optimize(problem, eamf_alloc));

  // Feasibility: push one share past its site's capacity.
  Matrix over = amf;
  over[0][0] += inst.capacities[0];
  expect(result, feasibility_violation(inst, amf) <= kFeasTol,
         feasibility_violation(inst, over) > kFeasTol, "feasibility");

  // LP leximin aggregates: shrink one job's row (still feasible).
  Matrix shrunk = amf;
  for (double& a : shrunk[1]) a *= 0.9;
  const auto lp = lp_reference(inst);
  expect(result, aggregate_gap(inst, amf, lp) <= kLpTol,
         aggregate_gap(inst, shrunk, lp) > kLpTol &&
             feasibility_violation(inst, shrunk) <= kFeasTol,
         "LP leximin aggregates");

  // Sharing incentive: take every share of one job away.
  Matrix starved = eamf;
  for (double& a : starved[2]) a = 0.0;
  expect(result, sharing_incentive_shortfall(inst, eamf) <= kSiTol,
         sharing_incentive_shortfall(inst, starved) > kSiTol,
         "sharing incentive");

  // Add-on: a changed aggregate, and a split that finishes a job later.
  Matrix halved = improved;
  for (double& a : halved[3]) a *= 0.5;
  expect(result, addon_property_breach(inst, eamf, improved).empty(),
         !addon_property_breach(inst, eamf, halved).empty(),
         "add-on aggregates");
  Instance pair;
  pair.capacities = {10.0, 10.0};
  pair.demands = {{10.0, 10.0}};
  pair.workloads = {{10.0, 10.0}};
  pair.weights = {1.0};
  const Matrix even = {{5.0, 5.0}};
  const Matrix lopsided = {{1.0, 9.0}};
  expect(result, addon_property_breach(pair, lopsided, even).empty(),
         addon_property_breach(pair, even, lopsided) ==
             "add-on slowed the slowest job",
         "add-on completion times");

  // Job records: completion before arrival, or a working job that never ran.
  expect(result, job_record_ok(5.0, 7.0, 1.0),
         !job_record_ok(5.0, 4.0, 1.0) && !job_record_ok(5.0, 5.0, 1.0),
         "job completion");

  // Solve rows against the client's ACKed jobs.
  const std::vector<long long> acked = {3, 4, 7};
  expect(result, job_rows_breach(acked, acked).empty(),
         !job_rows_breach(acked, {3, 4}).empty() &&
             !job_rows_breach(acked, {3, 7, 4}).empty(),
         "solve job rows");
}

}  // namespace perfbench
