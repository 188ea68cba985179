// serve.cpp — the serve-cluster workload's client.
//
// run.py starts amf_route in front of two amf_serve shards; this client
// drives them in a closed loop over three connections: two through the
// router (one session per shard) and one straight to a shard. Each
// connection plays an online scheduler that uses the service: jobs of a
// seeded script arrive, the client asks for an allocation after every
// change, advances its own clock to the next completion, arrival or site
// fault under that allocation, and reports what happened as deltas
// (add_job, finish_job, site_event). A script ends when its last job
// finishes; a round plays each of a connection's 16 scripts once, and every
// connection repeats its round until the measured window is over. The
// direct connection plays the same scripts as the first routed one, so the
// two must see identical allocations.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "checks.hpp"
#include "driver.hpp"
#include "router/router.hpp"
#include "svc/client.hpp"
#include "svc/http.hpp"
#include "svc/json.hpp"
#include "workload/generator.hpp"
#include "workload/scenario.hpp"

namespace perfbench {
namespace {

using amf::svc::Json;

constexpr int kSites = 8;
constexpr int kPopulation = 16;   ///< jobs present when a round starts
constexpr int kArrivals = 24;     ///< jobs arriving during a round
constexpr double kArrivalRate = 4.0;  ///< arrivals per unit of script time
constexpr int kFaults = 3;        ///< site outages per round (each recovers)
constexpr int kScripts = 16;      ///< distinct scripts a connection cycles through
constexpr int kCheckEvery = 12;   ///< oracle-check every k-th solve of round 1

struct ScriptJob {
  double arrival = 0.0;
  std::vector<double> demands;
  std::vector<double> workloads;
  double work = 0.0;
};

struct SiteChange {
  double time = 0.0;
  int site = 0;
  double factor = 1.0;
};

struct Script {
  std::vector<double> capacities;
  std::vector<ScriptJob> jobs;  ///< by arrival
  std::vector<SiteChange> changes;  ///< by time
};

Script make_script(std::uint64_t seed) {
  auto cfg = amf::workload::paper_default(1.0, seed);
  cfg.sites = kSites;
  cfg.size_distribution = amf::workload::SizeDistribution::kUniform;
  amf::workload::Generator generator(cfg);
  auto& rng = generator.rng();
  Script script;
  script.capacities = generator.draw_capacities(rng);
  double t = 0.0;
  for (int i = 0; i < kPopulation + kArrivals; ++i) {
    if (i >= kPopulation) t += rng.exponential(kArrivalRate);
    auto row = generator.draw_job_row(script.capacities, rng);
    ScriptJob job;
    job.arrival = t;
    for (double w : row.workloads) job.work += w;
    job.demands = std::move(row.demands);
    job.workloads = std::move(row.workloads);
    script.jobs.push_back(std::move(job));
  }
  for (int f = 0; f < kFaults; ++f) {
    const double at = rng.uniform(0.0, t);
    const int site = static_cast<int>(rng.uniform_index(kSites));
    script.changes.push_back({at, site, 0.0});
    script.changes.push_back({at + rng.uniform(0.2, 1.0), site, 1.0});
  }
  std::stable_sort(script.changes.begin(), script.changes.end(),
                   [](const SiteChange& a, const SiteChange& b) {
                     return a.time < b.time;
                   });
  return script;
}

enum class Kind { kSolve, kDelta };

/// One answered request, as the client timed it.
struct Sample {
  double start_s;  ///< seconds since the window opened
  double ms;
  Kind kind;
};

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += num(values[i]);
  }
  return out + "]";
}

/// One client connection and the session it drives.
class Driver {
 public:
  Driver(std::string endpoint, std::string session, bool routed,
         std::vector<Script> scripts, std::uint64_t trace_prefix)
      : endpoint_(std::move(endpoint)),
        session_(std::move(session)),
        routed_(routed),
        scripts_(std::move(scripts)),
        script_(&scripts_.front()),
        trace_prefix_(trace_prefix) {}

  bool routed() const { return routed_; }
  const std::vector<Sample>& samples() const { return samples_; }
  const std::vector<std::uint64_t>& digests() const { return digests_; }
  const std::vector<double>& round_jct() const { return round_jct_; }
  const std::vector<std::string>& failures() const { return failures_; }
  long long requests() const { return requests_; }
  long long errors() const { return errors_; }
  long long solves() const { return solves_; }
  double response_bytes() const { return response_bytes_; }
  double jobs_per_solve() const {
    return solves_ > 0 ? static_cast<double>(jobs_seen_) / solves_ : 0.0;
  }

  /// Connects, creates the session and adds the first script's population.
  /// Every script starts from the same capacities and ends with every
  /// site recovered, so one session plays them all in turn.
  void set_up() {
    for (const Script& s : scripts_)
      if (s.capacities != script_->capacities) fail("scripts differ in capacities");
    client_.emplace(amf::svc::Client::connect_unix(endpoint_));
    request("{\"op\":\"create_session\",\"session\":\"" + session_ +
                "\",\"capacities\":" + array(script_->capacities) + "}",
            Kind::kDelta, false);
    factors_.assign(script_->capacities.size(), 1.0);
    admit(0.0, false);
  }

  /// Plays whole rounds until `deadline`; the first script of the first
  /// round reuses the population set_up() added.
  void run(Clock::time_point window_start, Clock::time_point deadline,
           bool tracing) {
    window_start_ = window_start;
    tracing_ = tracing;
    do {
      std::uint64_t digest = 1469598103934665603ull;
      double jct = 0.0;
      for (std::size_t i = 0; i < scripts_.size(); ++i) {
        script_ = &scripts_[i];
        if (!play_script(round_ == 0 && i == 0)) return;
        digest = (digest ^ script_digest_) * 1099511628211ull;
        jct += script_jct_ / static_cast<double>(scripts_.size());
      }
      digests_.push_back(digest);
      round_jct_.push_back(jct);
      ++round_;
    } while (Clock::now() < deadline);
  }

  /// Final audit: the oracle checks of the states sampled in the first
  /// round, and the session must hold exactly the jobs whose adds were
  /// ACKed and whose finishes were not.
  void audit() {
    for (const auto& [inst, shares] : sampled_) {
      if (feasibility_violation(inst, shares) > kFeasTol)
        fail("served allocation infeasible");
      else if (aggregate_gap(inst, shares, lp_reference(inst)) > kLpTol)
        fail("served aggregates differ from the LP leximin");
    }
    const Json snap = request("{\"op\":\"snapshot\",\"session\":\"" + session_ + "\"}",
                              Kind::kSolve, false);
    const Json* body = snap.find("snapshot");
    const Json* jobs = body != nullptr ? body->find("jobs") : nullptr;
    const long long held = jobs != nullptr && jobs->is_array()
                               ? static_cast<long long>(jobs->as_array().size())
                               : -1;
    if (held != acked_adds_ - acked_finishes_)
      fail("session holds " + std::to_string(held) + " jobs after " +
           std::to_string(acked_adds_) + " ACKed adds and " +
           std::to_string(acked_finishes_) + " ACKed finishes");
  }

 private:
  void fail(const std::string& what) {
    if (failures_.size() < 5) failures_.push_back(session_ + ": " + what);
  }

  /// Sends one request line and returns the parsed ok response (a null
  /// Json after an error, which is recorded).
  Json request(const std::string& body, Kind kind, bool timed) {
    std::string line = "{\"v\":1,\"id\":" + std::to_string(++next_id_);
    if (tracing_)
      line += ",\"trace\":" + std::to_string((trace_prefix_ << 32) | ++next_trace_);
    line += "," + body.substr(1);
    const auto begin = Clock::now();
    std::string reply;
    Json parsed;
    try {
      reply = client_->call_line(line);
      parsed = Json::parse(reply);
    } catch (const std::exception& e) {
      ++errors_;
      fail(std::string("transport: ") + e.what());
      broken_ = true;
      return Json();
    }
    const auto end = Clock::now();
    if (timed) {
      ++requests_;
      samples_.push_back({std::chrono::duration<double>(begin - window_start_).count(),
                          ms_between(begin, end), kind});
    }
    if (!parsed.bool_or("ok", false)) {
      ++errors_;
      fail("error response: " + reply.substr(0, 160));
      broken_ = true;
      return Json();
    }
    if (kind == Kind::kSolve && timed) response_bytes_ += static_cast<double>(reply.size());
    return parsed;
  }

  /// Adds every job of the script due by `t` (population included).
  void admit(double t, bool timed) {
    while (next_job_ < script_->jobs.size() && script_->jobs[next_job_].arrival <= t) {
      const ScriptJob& job = script_->jobs[next_job_];
      const Json ack = request("{\"op\":\"add_job\",\"session\":\"" + session_ +
                                   "\",\"demands\":" + array(job.demands) +
                                   ",\"workloads\":" + array(job.workloads) + "}",
                               Kind::kDelta, timed);
      if (broken_) return;
      ++acked_adds_;
      ids_.push_back(static_cast<long long>(ack.number_or("job", -1.0)));
      rows_.push_back(next_job_);
      remaining_.push_back(job.work);
      ++next_job_;
    }
  }

  /// One pass through the current script. Returns false once the
  /// connection broke.
  bool play_script(bool population_added) {
    if (!population_added) {
      next_job_ = 0;
      next_change_ = 0;
      admit(0.0, true);
    }
    double clock = 0.0;
    double jct_sum = 0.0;
    std::uint64_t digest = 1469598103934665603ull;
    const bool check_round = round_ == 0;  // later rounds repeat it exactly
    int solve_index = 0;
    while (!broken_) {
      // Ask for the allocation of the current state.
      const Json resp = request("{\"op\":\"solve\",\"session\":\"" + session_ + "\"}",
                                Kind::kSolve, true);
      if (broken_) break;
      ++solves_;
      const Json* alloc = resp.find("allocation");
      const Json* jobs = alloc != nullptr ? alloc->find("jobs") : nullptr;
      if (jobs == nullptr || !jobs->is_array()) {
        fail("solve response without an allocation");
        broken_ = true;
        break;
      }
      std::vector<long long> answered;
      Matrix shares;
      std::vector<double> rate;
      for (const Json& row : jobs->as_array()) {
        answered.push_back(static_cast<long long>(row.number_or("id", -1.0)));
        std::vector<double> r;
        double sum = 0.0;
        if (const Json* sh = row.find("shares"); sh != nullptr && sh->is_array())
          for (const Json& v : sh->as_array()) {
            r.push_back(v.as_number());
            sum += v.as_number();
            std::uint64_t bits = 0;
            const double d = v.as_number();
            std::memcpy(&bits, &d, sizeof bits);
            digest = (digest ^ bits) * 1099511628211ull;
          }
        shares.push_back(std::move(r));
        rate.push_back(sum);
      }
      jobs_seen_ += static_cast<long long>(answered.size());
      if (const std::string breach = job_rows_breach(ids_, answered); !breach.empty()) {
        fail(breach);
        broken_ = true;
        break;
      }
      if (check_round && solve_index++ % kCheckEvery == 0) sample(shares);

      // Advance the script clock to the next completion, arrival or fault.
      double dt = std::numeric_limits<double>::infinity();
      for (std::size_t j = 0; j < ids_.size(); ++j)
        if (rate[j] > 0.0) dt = std::min(dt, remaining_[j] / rate[j]);
      if (next_job_ < script_->jobs.size())
        dt = std::min(dt, script_->jobs[next_job_].arrival - clock);
      if (next_change_ < script_->changes.size())
        dt = std::min(dt, script_->changes[next_change_].time - clock);
      if (!std::isfinite(dt)) {
        if (!ids_.empty()) fail("jobs left with no rate and nothing pending");
        break;
      }
      dt = std::max(dt, 0.0);
      clock += dt;
      for (std::size_t j = 0; j < ids_.size(); ++j) remaining_[j] -= rate[j] * dt;

      // Report what happened: finishes, then arrivals, then site faults.
      for (std::size_t j = 0; j < ids_.size();) {
        const ScriptJob& job = script_->jobs[rows_[j]];
        if (remaining_[j] > 1e-9 * job.work) {
          ++j;
          continue;
        }
        request("{\"op\":\"finish_job\",\"session\":\"" + session_ +
                    "\",\"job\":" + std::to_string(ids_[j]) + "}",
                Kind::kDelta, true);
        if (broken_) return false;
        ++acked_finishes_;
        jct_sum += clock - job.arrival;
        ids_.erase(ids_.begin() + static_cast<std::ptrdiff_t>(j));
        rows_.erase(rows_.begin() + static_cast<std::ptrdiff_t>(j));
        remaining_.erase(remaining_.begin() + static_cast<std::ptrdiff_t>(j));
      }
      admit(clock, true);
      while (!broken_ && next_change_ < script_->changes.size() &&
             script_->changes[next_change_].time <= clock) {
        const SiteChange& c = script_->changes[next_change_];
        request("{\"op\":\"site_event\",\"session\":\"" + session_ +
                    "\",\"site\":" + std::to_string(c.site) +
                    ",\"capacity_factor\":" + num(c.factor) + "}",
                Kind::kDelta, true);
        factors_[static_cast<std::size_t>(c.site)] = c.factor;
        ++next_change_;
      }
      if (ids_.empty() && next_job_ == script_->jobs.size() &&
          next_change_ == script_->changes.size())
        break;
    }
    if (broken_) return false;
    script_digest_ = digest;
    script_jct_ = jct_sum / static_cast<double>(script_->jobs.size());
    return true;
  }

  /// Keeps one served allocation with the state the client tracked, for
  /// the oracle checks after the window.
  void sample(const Matrix& shares) {
    Instance inst;
    for (std::size_t s = 0; s < script_->capacities.size(); ++s)
      inst.capacities.push_back(script_->capacities[s] * factors_[s]);
    for (std::size_t row : rows_) {
      inst.demands.push_back(script_->jobs[row].demands);
      inst.workloads.push_back(script_->jobs[row].workloads);
      inst.weights.push_back(1.0);
    }
    if (inst.jobs() > 0) sampled_.emplace_back(std::move(inst), shares);
  }

  std::string endpoint_;
  std::string session_;
  bool routed_;
  std::vector<Script> scripts_;
  const Script* script_;  ///< the one being played
  std::uint64_t trace_prefix_;
  std::optional<amf::svc::Client> client_;
  Clock::time_point window_start_ = Clock::now();
  bool tracing_ = false;
  bool broken_ = false;
  long long next_id_ = 0;
  std::uint64_t next_trace_ = 0;

  // Tracked session state, row order = the server's job order.
  std::vector<long long> ids_;
  std::vector<std::size_t> rows_;  ///< script index of each job
  std::vector<double> remaining_;
  std::vector<double> factors_;
  std::size_t next_job_ = 0;
  std::size_t next_change_ = 0;
  long long acked_adds_ = 0;
  long long acked_finishes_ = 0;

  int round_ = 0;
  std::uint64_t script_digest_ = 0;
  double script_jct_ = 0.0;
  std::vector<std::pair<Instance, Matrix>> sampled_;
  std::vector<Sample> samples_;
  std::vector<std::uint64_t> digests_;
  std::vector<double> round_jct_;
  std::vector<std::string> failures_;
  long long requests_ = 0;
  long long errors_ = 0;
  long long solves_ = 0;
  long long jobs_seen_ = 0;
  double response_bytes_ = 0.0;
};

/// First name of the form `stem-N` that the router places on `shard`.
std::string session_on(const std::string& stem, std::size_t shard, std::size_t shards) {
  for (int i = 0;; ++i) {
    const std::string name = stem + "-" + std::to_string(i);
    if (amf::router::fnv1a64(name) % shards == shard) return name;
  }
}

/// Registry snapshot of one shard, via its stats op.
struct ShardStats {
  std::map<std::string, double> counters;
  std::map<std::string, std::pair<double, double>> hists;  ///< count, sum
};

ShardStats shard_stats(const std::string& path) {
  auto client = amf::svc::Client::connect_unix(path);
  const Json resp = Json::parse(client.call_line("{\"v\":1,\"id\":1,\"op\":\"stats\"}"));
  ShardStats out;
  const Json* metrics = resp.find("metrics");
  if (metrics == nullptr) return out;
  if (const Json* c = metrics->find("counters"); c != nullptr && c->is_object())
    for (const auto& [name, v] : c->as_object()) out.counters[name] = v.as_number();
  if (const Json* h = metrics->find("histograms"); h != nullptr && h->is_object())
    for (const auto& [name, v] : h->as_object())
      out.hists[name] = {v.number_or("count", 0.0), v.number_or("sum", 0.0)};
  return out;
}

/// Self time per layer from Chrome-trace bodies (/tracez), span by span:
/// a span's self time is its duration minus its children's on the same
/// thread. Returns totals in ms by layer prefix ("svc", "core", "flow");
/// `inclusive_ms` gets each span name's total duration.
std::map<std::string, double> trace_self_ms(const std::vector<std::string>& bodies,
                                            std::map<std::string, double>* inclusive_ms) {
  std::map<std::string, double> self;
  struct Open {
    double end_us;
    std::string layer;
  };
  for (const std::string& body : bodies) {
    std::map<int, std::vector<Open>> stacks;
    std::size_t pos = 0;
    while ((pos = body.find("{\"name\":\"", pos)) != std::string::npos) {
      pos += 9;
      const std::size_t name_end = body.find('"', pos);
      const std::size_t line_end = body.find('\n', pos);
      const std::string line = body.substr(pos, line_end - pos);
      const std::string name = body.substr(pos, name_end - pos);
      pos = line_end;
      if (line.find("\"ph\":\"X\"") == std::string::npos) continue;
      auto field = [&line](const char* key) {
        const std::size_t at = line.find(key);
        return at == std::string::npos ? 0.0
                                       : std::atof(line.c_str() + at + std::strlen(key));
      };
      const int tid = static_cast<int>(field("\"tid\":"));
      const double ts = field("\"ts\":");
      const double dur = field("\"dur\":");
      const std::string layer = name.substr(0, name.find('/'));
      auto& stack = stacks[tid];
      while (!stack.empty() && stack.back().end_us <= ts) stack.pop_back();
      self[layer] += dur / 1000.0;
      if (!stack.empty()) self[stack.back().layer] -= dur / 1000.0;
      (*inclusive_ms)[name] += dur / 1000.0;
      stack.push_back({ts + dur, layer});
    }
  }
  return self;
}

double pct(const std::vector<double>& v, double q) { return percentile(v, q); }

}  // namespace

Result run_serve(const Options& options) {
  Result result;
  if (options.shards.size() != 2 || options.router.empty())
    throw std::runtime_error("serve-cluster needs --router and two --shard paths");

  // ---- set-up: sessions created and populated ------------------------------
  // The direct connection replays the first routed connection's script, on
  // the other shard.
  std::vector<Script> scripts_a, scripts_b;
  for (int i = 0; i < kScripts; ++i) {
    scripts_a.push_back(make_script(options.seed * 7919ull + 2 * i + 1));
    scripts_b.push_back(make_script(options.seed * 7919ull + 2 * i + 2));
  }
  std::vector<std::unique_ptr<Driver>> drivers;
  drivers.push_back(std::make_unique<Driver>(options.router, session_on("routed-a", 0, 2),
                                             true, scripts_a, 1));
  drivers.push_back(std::make_unique<Driver>(options.router, session_on("routed-b", 1, 2),
                                             true, scripts_b, 2));
  drivers.push_back(std::make_unique<Driver>(options.shards[1], "direct-a", false,
                                             scripts_a, 3));
  for (auto& d : drivers) d->set_up();
  const double setup_s = monotonic_s() - options.t0;
  std::vector<ShardStats> before;
  for (const auto& path : options.shards) before.push_back(shard_stats(path));

  // ---- measured window ------------------------------------------------------
  const auto window_start = Clock::now();
  const auto deadline = window_start + std::chrono::milliseconds(
                                           static_cast<long long>(options.seconds * 1000.0));
  std::atomic<int> running{static_cast<int>(drivers.size())};
  std::vector<std::thread> threads;
  for (auto& d : drivers)
    threads.emplace_back([&, dp = d.get()] {
      dp->run(window_start, deadline, options.traced_phase);
      running.fetch_sub(1);
    });
  // The calibration kernel runs on this thread at sub-second spacing; in
  // the traced phase this thread also empties the shards' span rings.
  std::vector<std::pair<double, double>> kernel;  // (seconds into window, ms)
  std::vector<std::string> tracez;
  auto last_drain = Clock::now();
  while (running.load() > 0) {
    const double at = std::chrono::duration<double>(Clock::now() - window_start).count();
    kernel.push_back({at, time_kernel_ms()});
    if (options.traced_phase && ms_between(last_drain, Clock::now()) > 400.0) {
      for (int port : options.http_ports) {
        std::string body;
        if (amf::svc::http_get(port, "/tracez?drain=1", &body)) tracez.push_back(std::move(body));
      }
      last_drain = Clock::now();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  for (auto& t : threads) t.join();
  const double window_s = std::chrono::duration<double>(Clock::now() - window_start).count();
  if (options.traced_phase)
    for (int port : options.http_ports) {
      std::string body;
      if (amf::svc::http_get(port, "/tracez?drain=1", &body)) tracez.push_back(std::move(body));
    }
  std::vector<ShardStats> after;
  for (const auto& path : options.shards) after.push_back(shard_stats(path));
  for (auto& d : drivers) d->audit();

  // ---- checks ---------------------------------------------------------------
  long long requests = 0, errors = 0;
  for (const auto& d : drivers) {
    requests += d->requests();
    errors += d->errors();
    for (const auto& f : d->failures()) result.fail(f);
    const auto& rj = d->round_jct();
    for (std::size_t r = 1; r < rj.size(); ++r)
      if (rj[r] != rj[0] || d->digests()[r] != d->digests()[0]) {
        result.fail("a round's allocations differ from the first round's");
        break;
      }
  }
  const auto& routed_a = *drivers[0];
  const auto& direct_a = *drivers[2];
  if (routed_a.digests().empty() || direct_a.digests().empty() ||
      routed_a.digests()[0] != direct_a.digests()[0])
    result.fail("routed and direct sessions of one script got different allocations");
  result.attempted = requests;
  result.failed = errors;

  // ---- metrics --------------------------------------------------------------
  // Host-speed correction per request, from the kernel runs around it.
  auto factor_at = [&kernel](double t) {
    if (kernel.empty()) return 1.0;
    auto it = std::lower_bound(kernel.begin(), kernel.end(), std::make_pair(t, 0.0));
    const double after_ms = it == kernel.end() ? kernel.back().second : it->second;
    const double before_ms = it == kernel.begin() ? after_ms : std::prev(it)->second;
    return correction(before_ms, after_ms);
  };
  std::vector<double> all, solve, delta, direct, all_raw, solve_raw, delta_raw, direct_raw;
  double direct_mean = 0.0;
  long long direct_n = 0;
  for (const auto& d : drivers)
    for (const Sample& s : d->samples()) {
      const double c = s.ms * factor_at(s.start_s);
      all.push_back(c);
      all_raw.push_back(s.ms);
      if (!d->routed()) {
        if (s.kind == Kind::kSolve) {
          direct.push_back(c);
          direct_raw.push_back(s.ms);
          direct_mean += s.ms;
          ++direct_n;
        }
      } else if (s.kind == Kind::kSolve) {
        solve.push_back(c);
        solve_raw.push_back(s.ms);
      } else {
        delta.push_back(c);
        delta_raw.push_back(s.ms);
      }
    }
  std::vector<double> kernel_ms;
  for (const auto& k : kernel) kernel_ms.push_back(k.second);
  const double kernel_factor = kKernelNominalMs / mean(kernel_ms);
  double jct = 0.0;
  for (const auto& d : drivers)
    if (!d->round_jct().empty()) jct += d->round_jct()[0] / static_cast<double>(drivers.size());
  const double ops = static_cast<double>(requests) / window_s;

  auto& m = result.metrics;
  auto& raw = result.raw;
  raw["ops_per_s"] = ops;
  raw["op_ms_p50"] = pct(all_raw, 50.0);
  raw["op_ms_p99"] = pct(all_raw, 99.0);
  raw["solve_ms_p50"] = pct(solve_raw, 50.0);
  raw["solve_ms_p99"] = pct(solve_raw, 99.0);
  raw["delta_ms_p50"] = pct(delta_raw, 50.0);
  raw["direct_solve_ms_p50"] = pct(direct_raw, 50.0);
  raw["kernel_ms_p50"] = median(kernel_ms);
  raw["jobs_per_solve"] = routed_a.jobs_per_solve();
  raw["requests"] = static_cast<double>(requests);
  raw["window_s"] = window_s;

  auto counter = [&](const char* name) {
    double v = 0.0;
    for (std::size_t i = 0; i < after.size(); ++i)
      v += after[i].counters[name] - before[i].counters[name];
    return v;
  };
  auto hist_mean = [&](const char* name) {
    double count = 0.0, sum = 0.0;
    for (std::size_t i = 0; i < after.size(); ++i) {
      count += after[i].hists[name].first - before[i].hists[name].first;
      sum += after[i].hists[name].second - before[i].hists[name].second;
    }
    return count > 0.0 ? sum / count : 0.0;
  };

  if (!options.trace) {
    m["setup_s"] = setup_s;
    m["ops_per_s"] = ops / kernel_factor;
    m["op_ms_p50"] = pct(all, 50.0);
    m["op_ms_p99"] = pct(all, 99.0);
    m["solve_ms_p50"] = pct(solve, 50.0);
    m["solve_ms_p99"] = pct(solve, 99.0);
    m["delta_ms_p50"] = pct(delta, 50.0);
    m["direct_solve_ms_p50"] = pct(direct, 50.0);
    m["mean_jct"] = jct;
    // peak_rss_mb is the servers' sum; run.py reads it from /proc.
    return result;
  }

  add_layer_defaults(&result);
  const double calls = counter("amf_svc_solve_calls_total");
  const double served = counter("amf_svc_solves_served_total");
  const double deltas = counter("amf_svc_requests_total_add_job") +
                        counter("amf_svc_requests_total_finish_job") +
                        counter("amf_svc_requests_total_site_event");
  double tiers = 0.0;
  for (const char* tier : {"primary", "relaxed_eps", "bisection", "reference_lp",
                           "per_site", "salvage"})
    tiers += counter(("amf_core_fallback_served_" + std::string(tier)).c_str());
  const double per_call = std::max(calls, 1.0);
  m["core.allocate_ms"] = hist_mean("amf_svc_solve_ms");
  m["core.fill_rounds_per_event"] = counter("amf_core_fill_rounds") / per_call;
  const double warm = counter("amf_core_alloc_warm"), cold = counter("amf_core_alloc_cold");
  m["core.warm_share"] = warm + cold > 0.0 ? warm / (warm + cold) : 0.0;
  m["core.primary_tier_share"] =
      tiers > 0.0 ? counter("amf_core_fallback_served_primary") / tiers : 0.0;
  m["flow.maxflow_calls_per_event"] = counter("amf_flow_maxflow_calls") / per_call;
  m["flow.newton_iters_per_event"] = counter("amf_flow_newton_iters") / per_call;
  m["flow.augmenting_paths_per_event"] = counter("amf_flow_augmenting_paths") / per_call;
  m["svc.turnaround_ms"] = hist_mean("amf_svc_turnaround_ms");
  m["svc.stage_parse_ms"] = hist_mean("amf_svc_stage_parse_ms");
  m["svc.stage_queue_ms"] = hist_mean("amf_svc_stage_queue_ms");
  m["svc.stage_solve_ms"] = hist_mean("amf_svc_stage_solve_ms");
  m["svc.stage_journal_ms"] = hist_mean("amf_svc_stage_journal_ms");
  m["svc.stage_reply_ms"] = hist_mean("amf_svc_stage_reply_ms");
  if (direct_n > 0) m["svc.wire_ms"] = direct_mean / direct_n - m["svc.turnaround_ms"];
  m["svc.solve_response_bytes"] =
      routed_a.response_bytes() / std::max<long long>(routed_a.solves(), 1);
  m["svc.allocator_calls_per_solve"] = served > 0.0 ? calls / served : 0.0;
  m["svc.journal_records_per_delta"] =
      deltas > 0.0 ? counter("amf_svc_journal_records_total") / deltas : 0.0;
  m["router.hop_ms"] = pct(solve_raw, 50.0) - pct(direct_raw, 50.0);
  if (options.traced_phase) {
    std::map<std::string, double> inclusive;
    const auto self = trace_self_ms(tracez, &inclusive);
    m["flow.critical_level_ms"] = inclusive["flow/critical_level"] / per_call;
    const double per_request = static_cast<double>(std::max<long long>(requests, 1));
    m["svc.self_ms"] = self.count("svc") ? self.at("svc") / per_request : 0.0;
    m["core.self_ms"] = self.count("core") ? self.at("core") / per_request : 0.0;
    m["flow.self_ms"] = self.count("flow") ? self.at("flow") / per_request : 0.0;
    m["trace.layer_sum_ms"] = m["svc.self_ms"] + m["core.self_ms"] + m["flow.self_ms"];
  }
  m["trace.event_ms"] = mean(all_raw);
  return result;
}

}  // namespace perfbench
