// checks.hpp — output checks made apart from the code under test.
//
// Every check reads plain numbers (an Instance copied out of a problem, a
// share matrix copied out of an allocation) and recomputes what it needs
// with its own arithmetic. The one exception is the LP leximin oracle,
// core::lp_max_min_aggregates, which solves the max-min program on the
// simplex substrate and shares no code with the flow-based allocators it
// judges.
#pragma once

#include <string>
#include <vector>

#include "core/allocation.hpp"
#include "core/problem.hpp"

namespace perfbench {

using Matrix = std::vector<std::vector<double>>;

/// The numbers of one allocation instance (scalar resources).
struct Instance {
  Matrix demands;    ///< n × m demand caps
  Matrix workloads;  ///< n × m remaining work (all zero when absent)
  std::vector<double> capacities;
  std::vector<double> weights;

  int jobs() const { return static_cast<int>(demands.size()); }
  int sites() const { return static_cast<int>(capacities.size()); }
  /// Largest capacity (at least 1): the unit every tolerance scales with.
  double scale() const;
  /// The same numbers as a program problem (for the LP oracle).
  amf::core::AllocationProblem to_problem() const;
};

Instance instance_of(const amf::core::AllocationProblem& problem);
inline Matrix shares_of(const amf::core::Allocation& allocation) {
  return allocation.shares();
}

/// Row sums of a share matrix.
std::vector<double> row_sums(const Matrix& shares);

/// Worst feasibility breach relative to the instance scale: site over-use,
/// a share above its demand cap, a negative share, or a shape mismatch
/// (reported as +inf). <= tolerance means feasible.
double feasibility_violation(const Instance& inst, const Matrix& shares);

/// Largest |aggregate − reference| relative to the instance scale.
double aggregate_gap(const Instance& inst, const Matrix& shares,
                     const std::vector<double>& reference);

/// LP leximin aggregates of the instance (the independent oracle).
std::vector<double> lp_reference(const Instance& inst);

/// Largest sharing-incentive shortfall relative to the instance scale:
/// job j must receive at least Σ_s min(d[j][s], C[s]·φ_j / Σφ).
double sharing_incentive_shortfall(const Instance& inst, const Matrix& shares);

/// Per-job completion time under constant rates: max over worked sites of
/// w / a (+inf when a worked site gets no rate, 0 for jobs without work).
std::vector<double> completion_times(const Instance& inst, const Matrix& shares);

/// The slowest job's speed as a fraction of what its demand caps allow:
/// min over jobs with work and an allocation of (W/A) / T / ceiling, where
/// T is the completion time and ceiling = min(1, min_s d·(W/A)/w).
double worst_speed_fraction(const Instance& inst, const Matrix& shares);

/// What the JCT add-on guarantees against the split it started from:
/// feasible, the same aggregates, and a worst speed fraction no lower (its
/// progressive filling raises every job's guaranteed fraction together).
/// Returns an empty string when all hold, else what broke.
std::string addon_property_breach(const Instance& inst, const Matrix& base,
                                  const Matrix& improved);

/// A replayed job must complete, and not before it arrived (strictly
/// after, when it carried work).
bool job_record_ok(double arrival, double completion, double total_work);

/// A solve response must list exactly the jobs the client holds ACKs for,
/// in the order it added them. Empty string when it does.
std::string job_rows_breach(const std::vector<long long>& tracked,
                            const std::vector<long long>& answered);

/// Tolerances of the checks above (relative to Instance::scale()).
inline constexpr double kFeasTol = 1e-6;
inline constexpr double kLpTol = 1e-5;
inline constexpr double kSiTol = 1e-6;
inline constexpr double kJctTol = 1e-6;

}  // namespace perfbench
