// replay.cpp — the two simulator workloads.
//
// replay-amf: AMF inside an unbudgeted RobustAllocator, seeded MTBF/MTTR
//   site faults, the incremental pipeline, no add-on.
// replay-jct: E-AMF with the engine's JCT add-on, no faults.
//
// One run generates many short arrival traces from the seed (set-up),
// replays each once untimed to capture samples and reference outputs, then
// replays them in whole rounds until the measured window is over. Every
// group of trace replays is bracketed by two runs of the calibration
// kernel, and its times are multiplied by the resulting host-speed
// correction.
#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "checks.hpp"
#include "core/amf.hpp"
#include "core/eamf.hpp"
#include "core/jct.hpp"
#include "core/robust.hpp"
#include "driver.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/engine.hpp"
#include "util/parallel.hpp"
#include "workload/faults.hpp"
#include "workload/generator.hpp"
#include "workload/scenario.hpp"
#include "workload/trace.hpp"

namespace perfbench {
namespace {

using amf::core::Allocation;
using amf::core::AllocationProblem;

struct ReplaySpec {
  bool jct = false;
  int traces = 0;  ///< distinct traces replayed per round
  int jobs = 0;    ///< jobs per trace
  int sites = 20;
  double load = 0.8;
  bool faults = false;
  double mtbf = 0.0;
  double mttr = 0.0;
  int group = 0;         ///< traces between two calibration-kernel runs
  int check_traces = 0;  ///< traces whose sampled events the oracle checks
  int check_samples = 0; ///< sampled events per checked trace
  int direct_traces = 0; ///< traces giving one event to solve cold per round
};

// Many short traces rather than one long one: the mean over independent
// traces varies little from seed to seed, while one long trace at this
// load is dominated by its few longest busy periods.
ReplaySpec spec_for(const std::string& workload) {
  ReplaySpec spec;
  if (workload == "replay-amf") {
    spec.traces = 192;
    spec.jobs = 40;
    spec.faults = true;
    spec.mtbf = 60.0;
    spec.mttr = 2.0;
    spec.group = 12;
  } else {
    spec.jct = true;
    spec.traces = 96;
    spec.jobs = 20;
    spec.group = 6;
  }
  spec.check_traces = 8;
  spec.check_samples = 3;
  spec.direct_traces = spec.traces;
  return spec;
}

/// One event the decorator captured: the problem the policy saw and the
/// allocation it returned (before any add-on).
struct Sample {
  AllocationProblem problem;
  Allocation base;
};

/// State the decorator writes; owned by the replay loop.
struct Recorder {
  std::vector<Clock::time_point> entries;  ///< allocate entry, per event
  std::vector<double> alloc_ms;            ///< allocate wall time, per event
  std::vector<std::size_t> capture_at;  ///< ascending event indices
  std::vector<Sample> samples;

  void reset() {
    entries.clear();
    alloc_ms.clear();
    samples.clear();
  }
};

/// Timing decorator around the policy the simulator calls.
class TimedPolicy final : public amf::core::Allocator {
 public:
  TimedPolicy(const amf::core::Allocator& inner, Recorder* recorder)
      : inner_(inner), rec_(recorder) {}

  Allocation allocate(const AllocationProblem& problem) const override {
    return inner_.allocate(problem);
  }

  Allocation allocate(const AllocationProblem& problem,
                      amf::core::SolverWorkspace& workspace) const override {
    const auto begin = Clock::now();
    const std::size_t index = rec_->entries.size();
    rec_->entries.push_back(begin);
    Allocation out;
    {
      amf::obs::ScopedSpan span("bench/allocate");
      out = inner_.allocate(problem, workspace);
    }
    rec_->alloc_ms.push_back(ms_between(begin, Clock::now()));
    if (rec_->samples.size() < rec_->capture_at.size() &&
        rec_->capture_at[rec_->samples.size()] == index)
      rec_->samples.push_back({problem, out});
    return out;
  }

  std::string name() const override { return inner_.name(); }

 private:
  const amf::core::Allocator& inner_;
  Recorder* rec_;
};

std::vector<amf::workload::Trace> make_traces(const ReplaySpec& spec,
                                              std::uint64_t seed) {
  std::vector<amf::workload::Trace> traces;
  for (int k = 0; k < spec.traces; ++k) {
    const std::uint64_t trace_seed = seed * 1000003ull + static_cast<std::uint64_t>(k);
    auto cfg = amf::workload::paper_default(1.0, trace_seed);
    // Job sizes uniform in [0.5, 1.5] x the mean, so no single huge job
    // dominates a trace's mean completion time.
    cfg.size_distribution = amf::workload::SizeDistribution::kUniform;
    cfg.sites = spec.sites;
    cfg.sites_per_job_max = std::min(cfg.sites_per_job_max, spec.sites);
    amf::workload::Generator generator(cfg);
    auto trace = amf::workload::generate_trace(generator, spec.load, spec.jobs);
    if (spec.faults) {
      amf::workload::FaultInjectorConfig fault_cfg;
      fault_cfg.mtbf = spec.mtbf;
      fault_cfg.mttr = spec.mttr;
      fault_cfg.seed = trace_seed + 0x5eed;
      amf::workload::FaultInjector(fault_cfg).inject(trace);
    }
    traces.push_back(std::move(trace));
  }
  return traces;
}

double mean_jct_of(const std::vector<std::vector<amf::sim::JobRecord>>& runs) {
  double sum = 0.0;
  long long count = 0;
  for (const auto& records : runs)
    for (const auto& r : records) {
      sum += r.completion - r.arrival;
      ++count;
    }
  return count > 0 ? sum / static_cast<double>(count) : 0.0;
}

/// Self time of every span, by layer (the name's prefix before '/'), from
/// one thread's events sorted by start with enclosing spans first.
std::map<std::string, double> self_ms_by_layer(
    const std::vector<amf::obs::SpanEvent>& events,
    std::map<std::string, double>* inclusive_ms) {
  std::map<std::string, double> self;
  struct Open {
    double end_us;
    std::string layer;
  };
  std::vector<Open> stack;
  auto layer_of = [](const char* name) {
    std::string s(name);
    if (s.rfind("bench/", 0) == 0) {
      // The benchmark's own spans sit at the boundary of the layer they
      // call into.
      if (s == "bench/replay") return std::string("sim");
      return std::string("core");
    }
    return s.substr(0, s.find('/'));
  };
  for (const auto& ev : events) {
    if (ev.instant()) continue;
    while (!stack.empty() && stack.back().end_us <= ev.ts_us) stack.pop_back();
    const std::string layer = layer_of(ev.name);
    const double ms = ev.dur_us / 1000.0;
    self[layer] += ms;
    if (!stack.empty()) self[stack.back().layer] -= ms;
    (*inclusive_ms)[ev.name] += ms;
    stack.push_back({ev.ts_us + ev.dur_us, layer});
  }
  return self;
}

}  // namespace

Result run_replay(const Options& options) {
  Result result;
  const ReplaySpec spec = spec_for(options.workload);
  amf::util::ThreadPool::set_shared_threads(1);

  // ---- set-up: traces and the policy stack --------------------------------
  const auto traces = make_traces(spec, options.seed);
  Recorder rec;
  amf::core::AmfAllocator amf_policy;
  amf::core::EnhancedAmfAllocator eamf_policy;
  const amf::core::Allocator& bare =
      spec.jct ? static_cast<const amf::core::Allocator&>(eamf_policy)
               : static_cast<const amf::core::Allocator&>(amf_policy);
  amf::core::RobustAllocator robust(amf_policy);
  const amf::core::Allocator& chain =
      spec.jct ? bare : static_cast<const amf::core::Allocator&>(robust);
  TimedPolicy timed(chain, &rec);
  amf::sim::SimulatorConfig sim_cfg;
  sim_cfg.use_jct_addon = spec.jct;
  amf::sim::Simulator simulator(timed, sim_cfg);
  amf::core::JctAddon addon(sim_cfg.eps);
  const double setup_s = monotonic_s() - options.t0;
  // Set-up is corrected for host speed like every other time, by a kernel
  // run right after it.
  const double setup_kernel_ms = time_kernel_ms();

  // ---- capture round: untimed, records references and samples -----------
  std::vector<std::vector<amf::sim::JobRecord>> reference_records;
  std::vector<std::vector<Sample>> samples;  // per trace
  std::vector<long long> reference_events;
  long long fault_events = 0;
  for (std::size_t k = 0; k < traces.size(); ++k) {
    // A first pass counts the events; the second captures an evenly spread
    // handful of them (every event when the traced run times the add-on).
    const bool all = options.trace && spec.jct;
    std::size_t want = 0;
    if (all)
      want = static_cast<std::size_t>(-1);
    else if (static_cast<int>(k) < spec.check_traces)
      want = static_cast<std::size_t>(spec.check_samples);
    else if (static_cast<int>(k) < spec.direct_traces)
      want = 1;
    rec.reset();
    rec.capture_at.clear();
    if (want > 0) {
      simulator.run(traces[k]);
      const std::size_t events = rec.entries.size();
      for (std::size_t i = 0; i < std::min(want, events); ++i)
        rec.capture_at.push_back(want >= events ? i : (2 * i + 1) * events / (2 * want));
      rec.reset();
    }
    reference_records.push_back(simulator.run(traces[k]));
    reference_events.push_back(static_cast<long long>(rec.entries.size()));
    fault_events += simulator.stats().fault_events;
    samples.push_back(std::move(rec.samples));
  }
  rec.capture_at.clear();
  const double mean_jct = mean_jct_of(reference_records);
  // Every trace has now been replayed once: the program's peak footprint
  // for this workload, before the window's latency samples pile up.
  const double peak_rss = peak_rss_mb();

  // ---- measured rounds ----------------------------------------------------
  std::vector<double> event_ms, solve_ms, delta_ms, direct_ms;  // corrected
  std::vector<double> event_raw, solve_raw, delta_raw, direct_raw;
  std::vector<double> round_ops, round_ops_raw, kernel_ms;
  // Traced run: totals of the untraced and the traced rounds.
  double untraced_wall_ms = 0.0, traced_wall_ms = 0.0;
  long long untraced_events = 0, traced_events = 0;
  std::map<std::string, double> layer_self, span_inclusive;
  double addon_total_ms = 0.0;
  long long addon_calls = 0;

  auto& tracer = amf::obs::Tracer::global();
  tracer.set_capacity(1u << 18);
  const auto counters_before = amf::obs::Registry::global().snapshot();
  const auto window_start = Clock::now();
  int round = 0;
  long long events_total = 0;
  double kernel_prev = time_kernel_ms();
  kernel_ms.push_back(kernel_prev);
  // Whole rounds until the window is over; the traced run pairs every
  // untraced round with a traced one.
  while (round == 0 || (options.trace && round % 2 == 1) ||
         ms_between(window_start, Clock::now()) < options.seconds * 1000.0) {
    const bool traced_round = options.trace && round % 2 == 1;
    long long round_events = 0;
    double round_ms = 0.0, round_ms_raw = 0.0;
    for (std::size_t first = 0; first < traces.size();
         first += static_cast<std::size_t>(spec.group)) {
      const std::size_t last =
          std::min(traces.size(), first + static_cast<std::size_t>(spec.group));
      // Uncorrected times of this group; the correction is known once the
      // kernel has run again after it.
      std::vector<double> g_event, g_solve, g_delta, g_direct;
      double g_wall = 0.0, g_addon = 0.0;
      long long g_events = 0;
      std::map<std::string, double> g_self, g_inclusive;
      for (std::size_t k = first; k < last; ++k) {
        rec.reset();
        if (traced_round) tracer.set_enabled(true);
        const auto begin = Clock::now();
        std::vector<amf::sim::JobRecord> records;
        {
          amf::obs::ScopedSpan span("bench/replay");
          records = simulator.run(traces[k]);
        }
        const auto end = Clock::now();
        tracer.set_enabled(false);
        const auto events = static_cast<long long>(rec.entries.size());
        if (events != reference_events[k] ||
            mean_jct_of({records}) != mean_jct_of({reference_records[k]}))
          result.fail("replay of trace " + std::to_string(k) +
                      " differs from its first replay");
        g_wall += ms_between(begin, end);
        g_events += events;
        for (long long i = 0; i < events; ++i) {
          const auto iu = static_cast<std::size_t>(i);
          const auto next = i + 1 < events ? rec.entries[iu + 1] : end;
          const double d = ms_between(rec.entries[iu], next);
          g_event.push_back(d);
          g_solve.push_back(rec.alloc_ms[iu]);
          g_delta.push_back(d - rec.alloc_ms[iu]);
        }
        // A cold, stateless solve of a sampled event straight on the bare
        // policy: the same problem without the engine's warm workspace.
        if (!options.trace && static_cast<int>(k) < spec.direct_traces &&
            !samples[k].empty()) {
          const Sample& s = samples[k].front();
          const auto t = Clock::now();
          const Allocation cold = bare.allocate(s.problem);
          g_direct.push_back(ms_between(t, Clock::now()));
          if (cold.jobs() != s.problem.jobs())
            result.fail("direct solve returned the wrong job count");
        }
        if (traced_round) {
          // replay-jct: time the add-on on every event of this trace (the
          // calls the engine made inside its events).
          if (spec.jct) {
            const auto t = Clock::now();
            for (const Sample& s : samples[k]) {
              amf::obs::ScopedSpan span("bench/jct_addon");
              if (addon.optimize(s.problem, s.base).jobs() != s.base.jobs())
                result.fail("add-on lost jobs");
            }
            g_addon += ms_between(t, Clock::now());
            addon_calls += static_cast<long long>(samples[k].size());
          }
          const auto spans = tracer.drain();
          for (const auto& [layer, ms] : self_ms_by_layer(spans, &g_inclusive))
            g_self[layer] += ms;
        }
      }
      const double kernel_next = time_kernel_ms();
      kernel_ms.push_back(kernel_next);
      const double f = correction(kernel_prev, kernel_next);
      kernel_prev = kernel_next;

      round_events += g_events;
      round_ms += g_wall * f;
      round_ms_raw += g_wall;
      if (options.trace) {
        if (traced_round) {
          traced_wall_ms += g_wall * f;
          traced_events += g_events;
          addon_total_ms += g_addon * f;
          for (const auto& [layer, ms] : g_self) layer_self[layer] += ms * f;
          for (const auto& [name, ms] : g_inclusive) span_inclusive[name] += ms * f;
        } else {
          untraced_wall_ms += g_wall * f;
          untraced_events += g_events;
        }
        continue;
      }
      auto keep = [f](const std::vector<double>& in, std::vector<double>* raw,
                      std::vector<double>* corrected) {
        for (double v : in) {
          raw->push_back(v);
          corrected->push_back(v * f);
        }
      };
      keep(g_event, &event_raw, &event_ms);
      keep(g_solve, &solve_raw, &solve_ms);
      keep(g_delta, &delta_raw, &delta_ms);
      keep(g_direct, &direct_raw, &direct_ms);
    }
    events_total += round_events;
    round_ops.push_back(static_cast<double>(round_events) / (round_ms / 1000.0));
    round_ops_raw.push_back(static_cast<double>(round_events) / (round_ms_raw / 1000.0));
    ++round;
  }
  const auto counters_after = amf::obs::Registry::global().snapshot();
  if (tracer.dropped() != 0) result.fail("span rings overflowed; layer times incomplete");
  result.attempted = events_total;

  // ---- checks -------------------------------------------------------------
  for (std::size_t k = 0; k < reference_records.size(); ++k)
    for (const auto& r : reference_records[k])
      if (!job_record_ok(r.arrival, r.completion, r.total_work))
        result.fail("trace " + std::to_string(k) + " job " + std::to_string(r.id) +
                    " did not complete after its arrival");
  for (std::size_t k = 0; k < samples.size(); ++k) {
    if (static_cast<int>(k) >= spec.check_traces) break;
    const int n_checked = std::min<int>(spec.check_samples, static_cast<int>(samples[k].size()));
    for (int i = 0; i < n_checked; ++i) {
      // Spread the checked events over the trace (all events are captured
      // on the traced replay-jct run).
      const std::size_t at = static_cast<std::size_t>(i) * samples[k].size() /
                             static_cast<std::size_t>(n_checked);
      const Sample& s = samples[k][at];
      const Instance inst = instance_of(s.problem);
      const Matrix base = shares_of(s.base);
      const std::string where =
          "trace " + std::to_string(k) + " sample " + std::to_string(at) + ": ";
      if (feasibility_violation(inst, base) > kFeasTol)
        result.fail(where + "allocation infeasible");
      if (spec.jct) {
        if (sharing_incentive_shortfall(inst, base) > kSiTol)
          result.fail(where + "E-AMF misses sharing incentive");
        const std::string breach = addon_property_breach(
            inst, base, shares_of(addon.optimize(s.problem, s.base)));
        if (!breach.empty()) result.fail(where + breach);
      } else if (aggregate_gap(inst, base, lp_reference(inst)) > kLpTol) {
        result.fail(where + "AMF aggregates differ from the LP leximin");
      }
    }
  }
  if (!spec.jct && robust.fallback_stats().degraded_calls() != 0)
    result.fail("an unbudgeted event was served below the primary tier");

  // ---- metrics ------------------------------------------------------------
  if (!options.trace) {
    result.metrics["setup_s"] = setup_s * kKernelNominalMs / setup_kernel_ms;
    result.metrics["ops_per_s"] = median(round_ops);
    result.metrics["op_ms_p50"] = percentile(event_ms, 50.0);
    result.metrics["op_ms_p99"] = percentile(event_ms, 99.0);
    result.metrics["solve_ms_p50"] = percentile(solve_ms, 50.0);
    result.metrics["solve_ms_p99"] = percentile(solve_ms, 99.0);
    result.metrics["delta_ms_p50"] = percentile(delta_ms, 50.0);
    result.metrics["direct_solve_ms_p50"] = percentile(direct_ms, 50.0);
    result.metrics["mean_jct"] = mean_jct;
    result.metrics["peak_rss_mb"] = peak_rss;
    result.raw["setup_s"] = setup_s;
    result.raw["ops_per_s"] = median(round_ops_raw);
    result.raw["op_ms_p50"] = percentile(event_raw, 50.0);
    result.raw["op_ms_p99"] = percentile(event_raw, 99.0);
    result.raw["solve_ms_p50"] = percentile(solve_raw, 50.0);
    result.raw["solve_ms_p99"] = percentile(solve_raw, 99.0);
    result.raw["delta_ms_p50"] = percentile(delta_raw, 50.0);
    result.raw["direct_solve_ms_p50"] = percentile(direct_raw, 50.0);
    result.raw["kernel_ms_p50"] = median(kernel_ms);
    result.raw["fault_events"] = static_cast<double>(fault_events);
    result.raw["rounds"] = round;
    result.raw["events_per_round"] = static_cast<double>(events_total) / round;
    result.raw["op_samples"] = static_cast<double>(event_ms.size());
    return result;
  }

  add_layer_defaults(&result);
  auto delta = [&](const char* name) {
    return static_cast<double>(counters_after.counter(name) -
                               counters_before.counter(name));
  };
  const double ev = static_cast<double>(events_total);
  const double tev = static_cast<double>(std::max<long long>(traced_events, 1));
  const double addon_per_call = addon_calls > 0 ? addon_total_ms / addon_calls : 0.0;
  const double addon_per_event = spec.jct ? addon_per_call : 0.0;
  auto& m = result.metrics;
  m["sim.engine_ms"] = layer_self["sim"] / tev - addon_per_event;
  m["sim.deltas_per_event"] = delta("amf_sim_deltas") / ev;
  m["core.allocate_ms"] = span_inclusive["bench/allocate"] / tev;
  m["core.self_ms"] = layer_self["core"] / tev;
  m["core.jct_addon_ms"] = addon_per_call;
  m["core.fill_rounds_per_event"] = delta("amf_core_fill_rounds") / ev;
  const double warm = delta("amf_core_alloc_warm"), cold = delta("amf_core_alloc_cold");
  m["core.warm_share"] = warm + cold > 0.0 ? warm / (warm + cold) : 0.0;
  const auto fallback = robust.fallback_stats();
  m["core.primary_tier_share"] =
      spec.jct ? 1.0
               : static_cast<double>(fallback.served[0]) /
                     static_cast<double>(std::max<long>(fallback.calls(), 1));
  m["flow.self_ms"] = layer_self["flow"] / tev;
  m["flow.critical_level_ms"] = span_inclusive["flow/critical_level"] / tev;
  m["flow.maxflow_calls_per_event"] = delta("amf_flow_maxflow_calls") / ev;
  m["flow.newton_iters_per_event"] = delta("amf_flow_newton_iters") / ev;
  m["flow.augmenting_paths_per_event"] = delta("amf_flow_augmenting_paths") / ev;
  const double untraced_event_ms =
      untraced_wall_ms / static_cast<double>(std::max<long long>(untraced_events, 1));
  const double traced_event_ms = traced_wall_ms / tev;
  m["trace.event_ms"] = untraced_event_ms;
  m["trace.layer_sum_ms"] = m["sim.engine_ms"] + m["core.self_ms"] +
                            m["flow.self_ms"] + addon_per_event;
  m["trace.overhead"] = traced_event_ms / untraced_event_ms - 1.0;
  result.raw["rounds"] = round;
  result.raw["traced_event_ms"] = traced_event_ms;
  return result;
}

}  // namespace perfbench
