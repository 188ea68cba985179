#include "core/jct.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "flow/lower_bounds.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace amf::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Add-on work counters, accumulated locally and published once per call.
// Every probe is one max-flow, so probes per call is the add-on's share of
// amf_flow_maxflow_calls.
struct JctCounters {
  obs::Counter calls;
  obs::Counter probes;
  JctCounters() {
    auto& reg = obs::Registry::global();
    calls = reg.counter("amf_core_jct_addon_calls",
                        "JCT add-on calls on non-empty problems");
    probes = reg.counter("amf_core_jct_addon_probes",
                         "lower-bounded flow feasibility probes across all "
                         "JCT add-on calls");
  }
};

JctCounters& jct_counters() {
  static JctCounters counters;
  return counters;
}

}  // namespace

std::vector<double> completion_times(const AllocationProblem& problem,
                                     const Allocation& allocation) {
  AMF_REQUIRE(problem.has_workloads(),
              "completion times need workload information");
  AMF_REQUIRE(problem.jobs() == allocation.jobs(),
              "problem/allocation size mismatch");
  std::vector<double> jct(static_cast<std::size_t>(problem.jobs()), 0.0);
  for (int j = 0; j < problem.jobs(); ++j) {
    double t = 0.0;
    for (int s = 0; s < problem.sites(); ++s) {
      double w = problem.workload(j, s);
      if (w <= 0.0) continue;
      double a = allocation.share(j, s);
      t = (a <= 0.0) ? kInf : std::max(t, w / a);
    }
    jct[static_cast<std::size_t>(j)] = t;
  }
  return jct;
}

std::vector<double> slowdowns(const AllocationProblem& problem,
                              const Allocation& allocation) {
  auto jct = completion_times(problem, allocation);
  std::vector<double> sd(jct.size(), 1.0);
  for (int j = 0; j < problem.jobs(); ++j) {
    double work = problem.total_work(j);
    double agg = allocation.aggregate(j);
    if (work <= 0.0 || agg <= 0.0) continue;
    sd[static_cast<std::size_t>(j)] = jct[static_cast<std::size_t>(j)] /
                                      (work / agg);
  }
  return sd;
}

std::vector<double> aggregate_rate_completion_times(
    const AllocationProblem& problem, const Allocation& allocation) {
  AMF_REQUIRE(problem.has_workloads(),
              "completion times need workload information");
  AMF_REQUIRE(problem.jobs() == allocation.jobs(),
              "problem/allocation size mismatch");
  std::vector<double> t(static_cast<std::size_t>(problem.jobs()), 0.0);
  for (int j = 0; j < problem.jobs(); ++j) {
    double work = problem.total_work(j);
    if (work <= 0.0) continue;
    double agg = allocation.aggregate(j);
    t[static_cast<std::size_t>(j)] = agg <= 0.0 ? kInf : work / agg;
  }
  return t;
}

JctAddon::JctAddon(double eps, int search_iters, int refine_passes,
                   int max_freeze_rounds)
    : eps_(eps),
      search_iters_(search_iters),
      refine_passes_(refine_passes),
      max_freeze_rounds_(max_freeze_rounds) {
  AMF_REQUIRE(eps > 0.0, "eps must be positive");
  AMF_REQUIRE(search_iters >= 1, "at least one search iteration");
  AMF_REQUIRE(refine_passes >= 0, "refine passes must be >= 0");
  AMF_REQUIRE(max_freeze_rounds >= 1, "at least one freeze round");
}

Allocation JctAddon::optimize(const AllocationProblem& problem,
                              const Allocation& base) const {
  AMF_REQUIRE(problem.jobs() == base.jobs(),
              "problem/allocation size mismatch");
  const int n = problem.jobs();
  const int m = problem.sites();
  const std::string policy = base.policy().empty()
                                 ? std::string("JCT")
                                 : base.policy() + "+JCT";
  if (n == 0) return Allocation(Matrix{}, policy);
  AMF_REQUIRE(problem.has_workloads(), "JCT add-on needs workloads");

  const auto& aggregates = base.aggregates();

  // Per-job proportional ideal completion time and the ceiling on the
  // speed fraction u the demand caps alone allow (u = 1 means the job
  // finishes in exactly W_j / A_j).
  std::vector<double> ideal(static_cast<std::size_t>(n), 0.0);
  std::vector<double> u_cap(static_cast<std::size_t>(n), 0.0);
  for (int j = 0; j < n; ++j) {
    double work = problem.total_work(j);
    double agg = aggregates[static_cast<std::size_t>(j)];
    if (work <= 0.0 || agg <= 0.0) continue;
    double t_ideal = work / agg;
    ideal[static_cast<std::size_t>(j)] = t_ideal;
    double cap = 1.0;
    for (int s = 0; s < m; ++s) {
      double w = problem.workload(j, s);
      if (w <= 0.0) continue;
      cap = std::min(cap, problem.demand(j, s) * t_ideal / w);
    }
    u_cap[static_cast<std::size_t>(j)] = cap;
  }

  // A job's guaranteed rate at site s under speed fraction u: u times its
  // proportional ideal rate there, capped by the demand.
  auto lower_for = [&](int j, int s, double u) {
    double w = problem.workload(j, s);
    double t_ideal = ideal[static_cast<std::size_t>(j)];
    if (w <= 0.0 || t_ideal <= 0.0 || u <= 0.0) return 0.0;
    return std::min(problem.demand(j, s), w * u / t_ideal);
  };

  // Flow layout: 0 = source, 1..n jobs, n+1..n+m sites, last = sink. Edge
  // order: per job, the source arc (pinned to the aggregate) then its
  // positive-demand site arcs; then the site→sink arcs. Only the site
  // arcs' lower bounds change between probes, so the network is built
  // once and re-solved in place.
  const int node_count = 2 + n + m;
  const flow::NodeId source = 0, sink = node_count - 1;
  struct SiteArc {
    int job;
    int site;
    std::size_t edge;
  };
  std::vector<SiteArc> site_arcs;
  std::vector<flow::BoundedEdge> edges;
  edges.reserve(static_cast<std::size_t>(n) * (m + 1) + m);
  for (int j = 0; j < n; ++j) {
    double agg = aggregates[static_cast<std::size_t>(j)];
    edges.push_back({source, 1 + j, agg, agg});
    for (int s = 0; s < m; ++s) {
      double d = problem.demand(j, s);
      if (d <= 0.0) continue;
      site_arcs.push_back({j, s, edges.size()});
      edges.push_back({1 + j, 1 + n + s, 0.0, d});
    }
  }
  for (int s = 0; s < m; ++s)
    edges.push_back({1 + n + s, sink, 0.0, problem.capacity(s)});
  flow::LowerBoundFlow network(node_count, std::move(edges), source, sink,
                               eps_);

  // Feasible realization of the aggregates with per-job guaranteed speed
  // fractions u[j] (rate at every worked site >= u[j] · ideal rate). On
  // success the per-edge flows are in `flows`; `best` holds the last
  // feasible ones and `best_u` the fractions they were found at.
  std::vector<double> flows, best, best_u;
  long long probes = 0;
  auto solve_at = [&](const std::vector<double>& u) {
    ++probes;
    for (const auto& arc : site_arcs)
      network.set_lower(arc.edge,
                        lower_for(arc.job, arc.site,
                                  u[static_cast<std::size_t>(arc.job)]));
    if (!network.solve()) return false;
    network.flows(flows);
    return true;
  };
  auto accept = [&](const std::vector<double>& u) {
    best = flows;
    best_u = u;
  };

  auto extract = [&](const std::vector<double>& edge_flows) {
    Matrix a(static_cast<std::size_t>(n),
             std::vector<double>(static_cast<std::size_t>(m), 0.0));
    for (const auto& arc : site_arcs)
      a[static_cast<std::size_t>(arc.job)][static_cast<std::size_t>(arc.site)] =
          std::max(0.0, edge_flows[arc.edge]);
    return a;
  };

  // Progressive filling on speed fractions: unfrozen jobs rise together as
  // f·u_cap[j]; jobs blocked by a tight cut freeze at the critical f.
  std::vector<char> frozen(static_cast<std::size_t>(n), 0);
  std::vector<double> u_now(static_cast<std::size_t>(n), 0.0);
  int unfrozen = 0;
  for (int j = 0; j < n; ++j) {
    if (u_cap[static_cast<std::size_t>(j)] <= 0.0)
      frozen[static_cast<std::size_t>(j)] = 1;  // no work or no allocation
    else
      ++unfrozen;
  }

  // Fractions of one probe: unfrozen jobs at f·u_cap, frozen ones kept.
  std::vector<double> u_probe;
  auto u_at = [&](double f) -> const std::vector<double>& {
    u_probe = u_now;
    for (int j = 0; j < n; ++j)
      if (!frozen[static_cast<std::size_t>(j)])
        u_probe[static_cast<std::size_t>(j)] =
            f * u_cap[static_cast<std::size_t>(j)];
    return u_probe;
  };

  const bool realizable = solve_at(u_now);
  AMF_ASSERT(realizable,
             "aggregates must be realizable with zero lower bounds");
  accept(u_now);
  double f_lo = 0.0;

  for (int round = 0; round < max_freeze_rounds_ && unfrozen > 0; ++round) {
    // Fast path: everyone can reach their demand-cap ceiling.
    if (solve_at(u_at(1.0))) {
      accept(u_probe);
      for (int j = 0; j < n; ++j)
        if (!frozen[static_cast<std::size_t>(j)])
          u_now[static_cast<std::size_t>(j)] =
              u_cap[static_cast<std::size_t>(j)];
      break;
    }

    // Binary search the critical common fraction (monotone in f).
    double lo = f_lo, hi = 1.0;
    for (int it = 0; it < search_iters_; ++it) {
      double mid = 0.5 * (lo + hi);
      if (solve_at(u_at(mid))) {
        lo = mid;
        accept(u_probe);
      } else {
        hi = mid;
      }
    }
    f_lo = lo;
    for (int j = 0; j < n; ++j)
      if (!frozen[static_cast<std::size_t>(j)])
        u_now[static_cast<std::size_t>(j)] =
            lo * u_cap[static_cast<std::size_t>(j)];

    const bool last_round = (round + 1 == max_freeze_rounds_);
    int newly = 0;
    if (!last_round) {
      // Identify the jobs pinned by the tight cut via residual analysis
      // of the realized allocation x: job j can keep rising only if, at
      // every worked site where x sits on its lower bound, x[j][s] can be
      // raised by rerouting other jobs' shares — i.e. the residual
      // digraph (site→job arcs where a job can shed, job→site arcs where
      // it can absorb, site→T where capacity is slack) carries a path
      // from that site to T or back to j. Conservative (freezing early
      // costs a little optimality, never correctness).
      const Matrix x = extract(best);
      const double tol = 1e-9 * problem.scale();

      auto lower_at = [&](int j, int s) {
        return lower_for(j, s, u_now[static_cast<std::size_t>(j)]);
      };

      // Reverse reachability to T (any site with slack) through the
      // residual digraph; nodes are jobs [0,n) and sites [n, n+m).
      auto node_of_site = [n](int s) { return n + s; };
      std::vector<std::vector<int>> radj(static_cast<std::size_t>(n + m));
      std::vector<char> reaches_T(static_cast<std::size_t>(n + m), 0);
      std::vector<int> stack;
      for (int s = 0; s < m; ++s) {
        double used = 0.0;
        for (int j = 0; j < n; ++j)
          used += x[static_cast<std::size_t>(j)][static_cast<std::size_t>(s)];
        if (used < problem.capacity(s) - tol) {
          reaches_T[static_cast<std::size_t>(node_of_site(s))] = 1;
          stack.push_back(node_of_site(s));
        }
      }
      // radj holds reverse arcs: radj[v] = predecessors of v.
      for (int j = 0; j < n; ++j)
        for (int s = 0; s < m; ++s) {
          double xv = x[static_cast<std::size_t>(j)][static_cast<std::size_t>(s)];
          if (xv < problem.demand(j, s) - tol)  // arc job→site
            radj[static_cast<std::size_t>(node_of_site(s))].push_back(j);
          if (xv > lower_at(j, s) + tol)  // arc site→job
            radj[static_cast<std::size_t>(j)].push_back(node_of_site(s));
        }
      while (!stack.empty()) {
        int v = stack.back();
        stack.pop_back();
        for (int p : radj[static_cast<std::size_t>(v)])
          if (!reaches_T[static_cast<std::size_t>(p)]) {
            reaches_T[static_cast<std::size_t>(p)] = 1;
            stack.push_back(p);
          }
      }

      // Forward reachability from a site, lazily, to answer "s reaches j".
      auto site_reaches_job = [&](int s0, int target) {
        std::vector<char> seen(static_cast<std::size_t>(n + m), 0);
        std::vector<int> bfs{node_of_site(s0)};
        seen[static_cast<std::size_t>(node_of_site(s0))] = 1;
        while (!bfs.empty()) {
          int v = bfs.back();
          bfs.pop_back();
          if (v == target) return true;
          if (v < n) {  // job node: arcs to sites it can absorb at
            for (int s = 0; s < m; ++s)
              if (x[static_cast<std::size_t>(v)][static_cast<std::size_t>(s)] <
                      problem.demand(v, s) - tol &&
                  !seen[static_cast<std::size_t>(node_of_site(s))]) {
                seen[static_cast<std::size_t>(node_of_site(s))] = 1;
                bfs.push_back(node_of_site(s));
              }
          } else {  // site node: arcs to jobs that can shed here
            int s = v - n;
            for (int j = 0; j < n; ++j)
              if (x[static_cast<std::size_t>(j)][static_cast<std::size_t>(s)] >
                      lower_at(j, s) + tol &&
                  !seen[static_cast<std::size_t>(j)]) {
                seen[static_cast<std::size_t>(j)] = 1;
                bfs.push_back(j);
              }
          }
        }
        return false;
      };

      for (int j = 0; j < n; ++j) {
        if (frozen[static_cast<std::size_t>(j)]) continue;
        if (u_now[static_cast<std::size_t>(j)] >=
            u_cap[static_cast<std::size_t>(j)] - 1e-12) {
          frozen[static_cast<std::size_t>(j)] = 1;  // at its demand ceiling
          --unfrozen;
          ++newly;
          continue;
        }
        bool can_rise = true;
        for (int s = 0; s < m && can_rise; ++s) {
          double w = problem.workload(j, s);
          if (w <= 0.0) continue;
          double xv = x[static_cast<std::size_t>(j)][static_cast<std::size_t>(s)];
          if (xv > lower_at(j, s) + tol) continue;  // headroom at this site
          // Tight: x[j][s] must grow with the lower bound.
          if (xv >= problem.demand(j, s) - tol) {
            can_rise = false;  // demand cap (numerically) pins it
          } else if (!reaches_T[static_cast<std::size_t>(node_of_site(s))] &&
                     !site_reaches_job(s, j)) {
            can_rise = false;  // no residual room to reroute into this site
          }
        }
        if (!can_rise) {
          frozen[static_cast<std::size_t>(j)] = 1;
          --unfrozen;
          ++newly;
        }
      }
    }
    if (last_round || newly == 0) {
      // Out of rounds (or a numerically fuzzy cut): settle everyone at
      // the last feasible common level.
      for (int j = 0; j < n; ++j)
        if (!frozen[static_cast<std::size_t>(j)]) {
          frozen[static_cast<std::size_t>(j)] = 1;
          --unfrozen;
        }
    }
  }

  // Final solve at the frozen fractions so the returned allocation honors
  // every job's guaranteed rate simultaneously. A solve is deterministic
  // in its bounds, so when the last feasible probe already ran at these
  // fractions its flows are the answer.
  if (u_now != best_u && solve_at(u_now)) best = flows;
  JctCounters& counters = jct_counters();
  counters.calls.add(1);
  counters.probes.add(probes);

  Matrix shares = extract(best);

  // Per-job refinement: each pass re-splits one job's aggregate optimally
  // against the current residual site capacities (closed form), walking
  // jobs from worst slowdown to best. Only helps where headroom exists,
  // but costs little and composes with the filling above.
  std::vector<double> residual(static_cast<std::size_t>(m));
  auto recompute_residual = [&] {
    for (int s = 0; s < m; ++s) {
      double used = 0.0;
      for (int j = 0; j < n; ++j)
        used += shares[static_cast<std::size_t>(j)][static_cast<std::size_t>(s)];
      residual[static_cast<std::size_t>(s)] =
          std::max(0.0, problem.capacity(s) - used);
    }
  };

  for (int pass = 0; pass < refine_passes_; ++pass) {
    recompute_residual();
    Allocation current(shares, policy);
    auto sd = slowdowns(problem, current);
    std::vector<int> order(static_cast<std::size_t>(n));
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      return sd[static_cast<std::size_t>(a)] > sd[static_cast<std::size_t>(b)];
    });

    for (int j : order) {
      double agg = aggregates[static_cast<std::size_t>(j)];
      if (agg <= 0.0 || problem.total_work(j) <= 0.0) continue;
      auto& row = shares[static_cast<std::size_t>(j)];

      // Upper bound per site: demand cap, and current share plus whatever
      // the site has left over.
      std::vector<double> upper(static_cast<std::size_t>(m));
      double upper_total = 0.0;
      for (int s = 0; s < m; ++s) {
        upper[static_cast<std::size_t>(s)] =
            std::min(problem.demand(j, s),
                     row[static_cast<std::size_t>(s)] +
                         residual[static_cast<std::size_t>(s)]);
        upper_total += upper[static_cast<std::size_t>(s)];
      }
      if (upper_total < agg) continue;  // numeric slack; leave as is

      // Best completion time attainable within the bounds.
      double t_best = problem.total_work(j) / agg;
      for (int s = 0; s < m; ++s) {
        double w = problem.workload(j, s);
        if (w <= 0.0) continue;
        double u = upper[static_cast<std::size_t>(s)];
        if (u <= 0.0) {
          t_best = kInf;
          break;
        }
        t_best = std::max(t_best, w / u);
      }
      if (!std::isfinite(t_best)) continue;

      // Required rate per site, then spread the leftover over headroom.
      std::vector<double> next(static_cast<std::size_t>(m), 0.0);
      double needed_total = 0.0;
      for (int s = 0; s < m; ++s) {
        double w = problem.workload(j, s);
        double need = w > 0.0 ? w / t_best : 0.0;
        need = std::min(need, upper[static_cast<std::size_t>(s)]);
        next[static_cast<std::size_t>(s)] = need;
        needed_total += need;
      }
      double leftover = agg - needed_total;
      if (leftover < 0.0) continue;  // rounding; keep previous split
      for (int s = 0; s < m && leftover > 0.0; ++s) {
        double headroom =
            upper[static_cast<std::size_t>(s)] - next[static_cast<std::size_t>(s)];
        double take = std::min(headroom, leftover);
        next[static_cast<std::size_t>(s)] += take;
        leftover -= take;
      }
      if (leftover > eps_ * problem.scale()) continue;  // could not place all

      // Commit and update residuals.
      for (int s = 0; s < m; ++s) {
        residual[static_cast<std::size_t>(s)] +=
            row[static_cast<std::size_t>(s)] - next[static_cast<std::size_t>(s)];
        residual[static_cast<std::size_t>(s)] =
            std::max(0.0, residual[static_cast<std::size_t>(s)]);
        row[static_cast<std::size_t>(s)] = next[static_cast<std::size_t>(s)];
      }
    }
  }

  return Allocation(std::move(shares), policy);
}

}  // namespace amf::core
