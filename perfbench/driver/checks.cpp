#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/reference.hpp"

namespace perfbench {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

double Instance::scale() const {
  double s = 1.0;
  for (double c : capacities) s = std::max(s, c);
  return s;
}

amf::core::AllocationProblem Instance::to_problem() const {
  return amf::core::AllocationProblem(demands, capacities, workloads, weights);
}

Instance instance_of(const amf::core::AllocationProblem& problem) {
  Instance inst;
  const int n = problem.jobs();
  const int m = problem.sites();
  inst.demands.assign(static_cast<std::size_t>(n),
                      std::vector<double>(static_cast<std::size_t>(m), 0.0));
  inst.workloads = inst.demands;
  for (int j = 0; j < n; ++j) {
    inst.weights.push_back(problem.weight(j));
    for (int s = 0; s < m; ++s) {
      const auto ju = static_cast<std::size_t>(j);
      const auto su = static_cast<std::size_t>(s);
      inst.demands[ju][su] = problem.demand(j, s);
      if (problem.has_workloads()) inst.workloads[ju][su] = problem.workload(j, s);
    }
  }
  for (int s = 0; s < m; ++s) inst.capacities.push_back(problem.capacity(s));
  return inst;
}

std::vector<double> row_sums(const Matrix& shares) {
  std::vector<double> out;
  out.reserve(shares.size());
  for (const auto& row : shares) {
    double sum = 0.0;
    for (double a : row) sum += a;
    out.push_back(sum);
  }
  return out;
}

double feasibility_violation(const Instance& inst, const Matrix& shares) {
  const int n = inst.jobs();
  const int m = inst.sites();
  if (static_cast<int>(shares.size()) != n) return kInf;
  const double scale = inst.scale();
  double worst = 0.0;
  std::vector<double> used(static_cast<std::size_t>(m), 0.0);
  for (int j = 0; j < n; ++j) {
    const auto& row = shares[static_cast<std::size_t>(j)];
    if (static_cast<int>(row.size()) != m) return kInf;
    for (int s = 0; s < m; ++s) {
      const double a = row[static_cast<std::size_t>(s)];
      if (!std::isfinite(a)) return kInf;
      const double d = inst.demands[static_cast<std::size_t>(j)][static_cast<std::size_t>(s)];
      worst = std::max(worst, -a / scale);
      worst = std::max(worst, (a - d) / scale);
      used[static_cast<std::size_t>(s)] += a;
    }
  }
  for (int s = 0; s < m; ++s)
    worst = std::max(worst, (used[static_cast<std::size_t>(s)] -
                             inst.capacities[static_cast<std::size_t>(s)]) /
                                scale);
  return worst;
}

double aggregate_gap(const Instance& inst, const Matrix& shares,
                     const std::vector<double>& reference) {
  const auto sums = row_sums(shares);
  if (sums.size() != reference.size()) return kInf;
  double worst = 0.0;
  for (std::size_t j = 0; j < sums.size(); ++j)
    worst = std::max(worst, std::abs(sums[j] - reference[j]));
  return worst / inst.scale();
}

std::vector<double> lp_reference(const Instance& inst) {
  return amf::core::lp_max_min_aggregates(inst.to_problem());
}

double sharing_incentive_shortfall(const Instance& inst, const Matrix& shares) {
  double weight_sum = 0.0;
  for (double w : inst.weights) weight_sum += w;
  const auto sums = row_sums(shares);
  if (static_cast<int>(sums.size()) != inst.jobs()) return kInf;
  double worst = 0.0;
  for (int j = 0; j < inst.jobs(); ++j) {
    const auto ju = static_cast<std::size_t>(j);
    double fair = 0.0;
    for (int s = 0; s < inst.sites(); ++s) {
      const auto su = static_cast<std::size_t>(s);
      fair += std::min(inst.demands[ju][su],
                       inst.capacities[su] * inst.weights[ju] / weight_sum);
    }
    worst = std::max(worst, fair - sums[ju]);
  }
  return worst / inst.scale();
}

std::vector<double> completion_times(const Instance& inst, const Matrix& shares) {
  std::vector<double> out(static_cast<std::size_t>(inst.jobs()), 0.0);
  for (int j = 0; j < inst.jobs(); ++j) {
    const auto ju = static_cast<std::size_t>(j);
    for (int s = 0; s < inst.sites(); ++s) {
      const auto su = static_cast<std::size_t>(s);
      const double w = inst.workloads[ju][su];
      if (w <= 0.0) continue;
      const double a = shares[ju][su];
      out[ju] = std::max(out[ju], a > 0.0 ? w / a : kInf);
    }
  }
  return out;
}

double worst_speed_fraction(const Instance& inst, const Matrix& shares) {
  const auto finish = completion_times(inst, shares);
  double worst = 1.0;
  for (int j = 0; j < inst.jobs(); ++j) {
    const auto ju = static_cast<std::size_t>(j);
    double work = 0.0, aggregate = 0.0;
    for (int s = 0; s < inst.sites(); ++s) {
      work += inst.workloads[ju][static_cast<std::size_t>(s)];
      aggregate += shares[ju][static_cast<std::size_t>(s)];
    }
    if (work <= 0.0 || aggregate <= 0.0) continue;
    const double ideal = work / aggregate;
    double ceiling = 1.0;
    for (int s = 0; s < inst.sites(); ++s) {
      const double w = inst.workloads[ju][static_cast<std::size_t>(s)];
      if (w > 0.0)
        ceiling = std::min(ceiling, inst.demands[ju][static_cast<std::size_t>(s)] * ideal / w);
    }
    if (ceiling <= 0.0) continue;
    worst = std::min(worst, ideal / finish[ju] / ceiling);
  }
  return worst;
}

std::string addon_property_breach(const Instance& inst, const Matrix& base,
                                  const Matrix& improved) {
  if (feasibility_violation(inst, improved) > kFeasTol)
    return "add-on split infeasible";
  if (aggregate_gap(inst, improved, row_sums(base)) > kFeasTol)
    return "add-on changed a job's aggregate";
  if (worst_speed_fraction(inst, improved) <
      worst_speed_fraction(inst, base) - kJctTol)
    return "add-on slowed the slowest job";
  return {};
}

bool job_record_ok(double arrival, double completion, double total_work) {
  return std::isfinite(completion) && completion >= arrival &&
         (total_work <= 0.0 || completion > arrival);
}

std::string job_rows_breach(const std::vector<long long>& tracked,
                            const std::vector<long long>& answered) {
  if (tracked.size() != answered.size())
    return "solve answered " + std::to_string(answered.size()) +
           " jobs, the client holds " + std::to_string(tracked.size());
  for (std::size_t i = 0; i < tracked.size(); ++i)
    if (tracked[i] != answered[i])
      return "solve row " + std::to_string(i) + " is job " +
             std::to_string(answered[i]) + ", expected " +
             std::to_string(tracked[i]);
  return {};
}

}  // namespace perfbench
