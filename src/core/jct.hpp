// jct.hpp — job completion times and the paper's completion-time add-on.
//
// With rates held constant, the site-s part of job j finishes at
// w[j][s] / a[j][s]; the job finishes when its slowest site does. The AMF
// aggregate vector is unique, but many per-site splits realize it, and
// they differ wildly in completion time: a split that starves the site
// where a job's work actually lives can stretch its JCT arbitrarily. The
// add-on re-distributes the per-site shares — keeping every aggregate
// exactly — to (approximately lexicographically) minimize completion
// times by progressive filling on per-job speed fractions: all jobs'
// guaranteed rates rise together toward their proportional ideals
// (feasibility = max-flow with lower bounds), jobs that hit a tight cut
// are frozen at their achievable fraction, and the rest keep rising.
// A final per-job closed-form refinement spends any leftover headroom.
//
// One structural fact this surfaces: preserving AMF aggregates exactly
// can force a job's rate at a monopolized hot site to zero (its static
// JCT is then unavoidably unbounded); dynamic execution resolves this via
// reallocation at completion events, which is why the completion-time
// experiments run through the simulator.
#pragma once

#include <vector>

#include "core/allocation.hpp"

namespace amf::core {

/// Completion time per job: max_s w[j][s]/a[j][s] over sites with positive
/// workload; 0 for jobs without work; +inf when some positive workload has
/// a zero rate. Requires the problem to carry workloads.
std::vector<double> completion_times(const AllocationProblem& problem,
                                     const Allocation& allocation);

/// Per-job slowdown relative to the proportional ideal W_j / A_j (1 means
/// the job runs as fast as its aggregate permits); 1 for jobs with no work
/// or no allocation.
std::vector<double> slowdowns(const AllocationProblem& problem,
                              const Allocation& allocation);

/// Aggregate-rate ("divisible placement") completion time W_j / A_j: the
/// completion time when a job's work can migrate freely among its own
/// sites, so only the total rate matters. This is the static lens in
/// which AMF's balance gains translate directly into completion times;
/// the per-site `completion_times` model adds placement constraints on
/// top (and the simulator adds reallocation dynamics). +inf for jobs with
/// work but no allocation, 0 for jobs without work.
std::vector<double> aggregate_rate_completion_times(
    const AllocationProblem& problem, const Allocation& allocation);

/// The completion-time add-on. Stateless apart from tuning parameters.
class JctAddon {
 public:
  /// `eps`: flow tolerance; `search_iters`: binary-search resolution per
  /// filling round; `refine_passes`: per-job refinement rounds;
  /// `max_freeze_rounds`: progressive-filling rounds (each freezes at
  /// least one blocked job; more rounds = closer to the lexicographic
  /// optimum, fewer = faster, e.g. inside the simulator loop).
  explicit JctAddon(double eps = 1e-9, int search_iters = 30,
                    int refine_passes = 2, int max_freeze_rounds = 8);

  /// Returns a feasible allocation with identical aggregates to `base`
  /// whose largest slowdown is no higher than base's. By construction the
  /// worst job's demand-normalized speed fraction does not fall below
  /// base's (up to the 2^-search_iters bisection resolution); when no
  /// demand cap sits below a job's proportional rate, that is the largest
  /// slowdown itself. Individual jobs are not protected: one can finish
  /// later than under base when rate moves to a slower job. The result's
  /// policy name is base.policy() + "+JCT".
  Allocation optimize(const AllocationProblem& problem,
                      const Allocation& base) const;

 private:
  double eps_;
  int search_iters_;
  int refine_passes_;
  int max_freeze_rounds_;
};

}  // namespace amf::core
