// One campaign of one benchmark workload, in this process, reported as one
// JSON object on stdout. run.py starts a fresh process per campaign, so
// setup time and peak RSS belong to that campaign alone.
//
//   campaign --workload <grid_burst|grid_faults|portal_storm|glidein_pool>
//            --seed <n> [--trace 0|1] [--threads <n>]
//
// Everything is driven through the public API and measured from outside:
// the harness times its own calls (build the world, submit, run_until),
// reads the daemons' public counters, and with --trace 1 arms the existing
// instrumentation (sim::Profiler, sim::Tracer + sim::CriticalPath,
// PoolNegotiator::set_clock) before any daemon exists.
//
// The output separates what a seed fixes exactly (per-job time-to-ACTIVE,
// makespan, message and event counts, the kernel digest, every per-layer
// count) from wall-clock measurements; run.py checks the former are
// bit-identical whenever a seed repeats. Wall times exclude the slices of
// the machine-speed probe (below), whose median slice times are reported
// alongside so run.py can scale wall metrics to a reference machine speed.
//
// Exit codes: 0 ok (correctness violations are reported in the JSON, not in
// the exit code, so the caller can count them), 2 bad arguments.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "condorg/classad/parser.h"
#include "condorg/condor/collector.h"
#include "condorg/condor/pool_negotiator.h"
#include "condorg/condor/startd.h"
#include "condorg/core/agent.h"
#include "condorg/core/pool_runner.h"
#include "condorg/core/portal.h"
#include "condorg/core/portal_client.h"
#include "condorg/core/schedd.h"
#include "condorg/sim/critical_path.h"
#include "condorg/sim/failure.h"
#include "condorg/sim/world.h"
#include "condorg/util/json.h"
#include "condorg/workloads/grid_builder.h"

namespace cc = condorg::condor;
namespace co = condorg::core;
namespace cs = condorg::sim;
namespace cu = condorg::util;
namespace cw = condorg::workloads;

namespace {

using SteadyClock = std::chrono::steady_clock;

double seconds_between(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- workload shapes ------------------------------------------------------

constexpr int kGridSites = 8;
constexpr int kGridCpusPerSite = 64;
constexpr std::uint64_t kSweepExeBytes = 256 * 1024;

constexpr int kBurstJobs = 4000;
constexpr double kBurstRuntime = 300.0;

constexpr int kFaultJobs = 2560;
constexpr double kFaultRuntime = 1800.0;

constexpr int kGlideJobs = 2000;
constexpr double kGlideRuntime = 1800.0;
constexpr double kGlideArrivalWindow = 300.0;

constexpr int kPortalUsers = 500;
constexpr std::uint64_t kPortalJobsPerUser = 10;
constexpr std::uint64_t kPortalBatch = 5;
constexpr int kPortalGroups = 16;
constexpr int kPortalBusyGroups = 8;
constexpr int kPortalSlotsPerGroup = 16;
constexpr double kPortalRuntime = 55.0;
constexpr double kPortalHorizon = 30000.0;

constexpr double kGridHorizon = 6 * 86400.0;
// Simulated seconds per run_until step on the agent workloads: short
// enough that probe slices interleave evenly with the campaign.
constexpr double kGridStep = 300.0;
constexpr double kFaultScheduleEnd = 2 * 86400.0;
constexpr const char* kSubmitHost = "submit.wisc.edu";

/// Job runtimes are the seeded input: each is a whole number of seconds
/// drawn uniformly within +/-20% of the workload's nominal runtime, so a
/// seed fixes the inputs exactly and different seeds give different, equally
/// sized campaigns. Whole seconds keep the simulated timestamps as tied as
/// the nominal shape's, which the kernel's calendar buckets rely on.
double draw_runtime(cu::Rng& rng, double nominal) {
  const auto lo = static_cast<std::uint64_t>(0.8 * nominal);
  const auto hi = static_cast<std::uint64_t>(1.2 * nominal);
  return static_cast<double>(lo + rng.below(hi - lo + 1));
}

// --- what one campaign reports ---------------------------------------------

struct Campaign {
  // Wall clock (nondeterministic).
  double setup_s = 0;
  double submit_s = 0;
  double campaign_s = 0;
  double setup_probe_s = 0;     // median probe slice before the set-ups
  double campaign_probe_s = 0;  // median probe slice during the campaign
  std::map<std::string, double> layer_wall;

  // Exact functions of the seed.
  std::uint64_t jobs = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;  // jobs not completed exactly once
  std::vector<std::string> violations;
  std::vector<double> tta;   // submit -> first execute, one per executed job
  double first_submit = 0;
  double last_completion = 0;
  std::uint64_t wire_msgs = 0;
  std::uint64_t dispatched = 0;
  std::uint64_t digest = 0;
  std::map<std::string, double> layer_exact;
};

// Host name -> role, for folding per-host timer cost into families.
using HostRoles = std::map<std::string, std::string>;

// Service name -> daemon family: per-instance services (one JobManager per
// contact, one Startd per slot, one Shadow per claim, one client per user)
// collapse so the per-layer metric count stays fixed whatever the scale.
// First matching prefix wins, so longer prefixes come first.
constexpr std::pair<std::string_view, std::string_view> kFamilies[] = {
    {"gram.client", "gram.client"},
    {"gram.jm", "gram.jm"},
    {"gram.gatekeeper", "gram.gatekeeper"},
    {"gridmanager.", "gridmanager"},
    {"gass.", "gass"},
    {"glidein.", "glidein"},
    {"portal_client.", "portal_client"},
    {"portal", "portal"},
    {"pool_runner", "pool_runner"},
    {"condor.collector", "collector"},
    {"condor.pool_negotiator", "pool_negotiator"},
    {"startd.", "startd"},
    {"shadow.", "shadow"},
};
constexpr std::string_view kOtherFamily = "other";
constexpr std::string_view kHostRoles[] = {"submit_host",  "site_host",
                                           "central_host", "user_host",
                                           "slot_host",    "other_host"};

std::string_view family_of(std::string_view service) {
  for (const auto& [prefix, family] : kFamilies) {
    if (service.starts_with(prefix)) return family;
  }
  return kOtherFamily;
}

std::string key(std::string_view a, std::string_view b) {
  std::string out(a);
  out += '.';
  out += b;
  return out;
}

/// Folds the Profiler's per-message and per-timer wall clock into daemon
/// families and host roles, and the kernel's remainder into sim.self_s.
void fold_profile(const cs::Simulation& sim, const HostRoles& roles,
                  Campaign& c) {
  const cs::Profiler& profiler = sim.profiler();
  std::map<std::string_view, std::uint64_t> handler_ns, msgs;
  for (const auto& [family_prefix, family] : kFamilies) {
    handler_ns[family] = 0;
    msgs[family] = 0;
  }
  handler_ns[kOtherFamily] = 0;
  msgs[kOtherFamily] = 0;
  std::uint64_t covered_ns = 0;
  for (const auto& [message_key, cell] : profiler.messages()) {
    const std::string_view family = family_of(std::get<2>(message_key));
    handler_ns[family] += cell.wall_ns;
    msgs[family] += cell.count;
    covered_ns += cell.wall_ns;
  }
  for (const auto& [family, ns] : handler_ns) {
    c.layer_wall[key(family, "handler_s")] = static_cast<double>(ns) / 1e9;
    c.layer_exact[key(family, "msgs")] = static_cast<double>(msgs[family]);
  }

  std::map<std::string_view, std::uint64_t> timer_ns;
  for (const std::string_view role : kHostRoles) timer_ns[role] = 0;
  std::uint64_t timer_fires = 0;
  for (const auto& [host, cell] : profiler.timers()) {
    const auto it = roles.find(host);
    const std::string_view role =
        it == roles.end() ? std::string_view("other_host") : it->second;
    timer_ns[role] += cell.wall_ns;
    timer_fires += cell.count;
    covered_ns += cell.wall_ns;
  }
  for (const auto& [role, ns] : timer_ns) {
    c.layer_wall[key(role, "timer_s")] = static_cast<double>(ns) / 1e9;
  }

  const double jobs = static_cast<double>(std::max<std::uint64_t>(1, c.jobs));
  c.layer_exact["sim.events_per_job"] =
      static_cast<double>(sim.dispatched()) / jobs;
  c.layer_exact["sim.timer_fires_per_job"] =
      static_cast<double>(timer_fires) / jobs;
  // Handlers and timers run one at a time on the campaign's thread (the
  // traced portal run uses the inline island executor for this reason), so
  // their walls nest inside the campaign wall; the rest is the kernel's own
  // dispatch, calendar and network work.
  const double self = c.campaign_s - static_cast<double>(covered_ns) / 1e9;
  c.layer_wall["sim.self_s"] = self;
  if (self < 0) {
    c.violations.push_back("sim.self_s negative: handler and timer walls "
                           "over-cover the campaign");
  }

  // Island kernel execution summary (zeros under the legacy kernel).
  std::uint64_t events = 0, max_events = 0, inbox = 0, busy = 0, blocked = 0;
  std::size_t islands = 0;
  if (sim.island_mode()) {
    for (const cs::Simulation::IslandStat& st : sim.island_stats()) {
      events += st.events;
      max_events = std::max(max_events, st.events);
      inbox += st.inbox_messages;
      busy += st.busy_ns;
      blocked += st.blocked_ns;
      if (st.events > 0) ++islands;
    }
  }
  c.layer_wall["sim.island.busy_s"] = static_cast<double>(busy) / 1e9;
  c.layer_wall["sim.island.blocked_s"] =
      islands == 0 ? 0.0
                   : static_cast<double>(blocked) / 1e9 /
                         static_cast<double>(islands);
  c.layer_exact["sim.island.inbox_msgs"] = static_cast<double>(inbox);
  c.layer_exact["sim.island.max_event_share"] =
      events == 0 ? 0.0
                  : static_cast<double>(max_events) /
                        static_cast<double>(events);
}

/// Per-phase p99 of time-to-ACTIVE from the causal trace; the walk must tile
/// every job's window exactly (CriticalPath::self_check).
void fold_critical_path(const cs::Simulation& sim, Campaign& c) {
  const cs::CriticalPath path(sim.tracer().records());
  for (const std::string& line : path.self_check()) {
    c.violations.push_back("critical path: " + line);
  }
  const std::map<std::string, double> p99 = path.phase_p99_to_active();
  const auto phase = [&p99](const char* name) {
    const auto it = p99.find(name);
    return it == p99.end() ? 0.0 : it->second;
  };
  c.layer_exact["cp.schedd_queue_p99_s"] = phase("schedd-queue");
  c.layer_exact["cp.poll_wait_p99_s"] = phase("poll-wait");
  c.layer_exact["cp.gram_submit_rtt_p99_s"] = phase("gram-submit-rtt");
  c.layer_exact["cp.stage_in_p99_s"] = phase("stage-in");
  c.layer_exact["cp.recovery_p99_s"] = phase("recovery");
  c.layer_exact["cp.attributed_share"] = path.attributed_share();
}

/// Zero-fills every per-layer key a workload does not exercise, so each
/// traced run reports the same metric set.
void zero_fill(Campaign& c) {
  for (const char* name :
       {"cp.schedd_queue_p99_s", "cp.poll_wait_p99_s",
        "cp.gram_submit_rtt_p99_s", "cp.stage_in_p99_s", "cp.recovery_p99_s",
        "cp.attributed_share", "gram.gatekeeper.duplicates", "gram.jm_restarts",
        "gridmanager.probes", "gridmanager.resubmissions", "gass.gets",
        "gass.bytes_served", "gass.staging_hit_ratio", "portal.busy_rejections",
        "portal.batches_admitted", "pool_runner.busy_rejections",
        "pool_runner.stale_matches", "collector.ads_received",
        "collector.noop_ratio", "pool_negotiator.match_yield",
        "pool_negotiator.divergences", "negotiator.cycles",
        "negotiator.matches", "glidein.submitted", "glidein.started",
        "startd.evictions", "schedd.transitions"}) {
    c.layer_exact.try_emplace(name, 0.0);
  }
  for (const char* name :
       {"pool_negotiator.cycle_s", "pool_negotiator.delta_cycle_us",
        "pool_negotiator.sweep_cycle_us"}) {
    c.layer_wall.try_emplace(name, 0.0);
  }
}

std::uint64_t schedd_transitions(const cs::Simulation& sim) {
  std::uint64_t total = 0;
  sim.metrics().for_each_counter(
      "schedd.transitions",
      [&total](std::string_view, std::uint64_t value) { total += value; });
  return total;
}

void finish_common(cs::World& world, Campaign& c) {
  c.wire_msgs = world.net().sent();
  c.dispatched = world.sim().dispatched();
  c.digest = world.sim().trace_digest();
  c.layer_exact["net.msgs_lost"] = static_cast<double>(world.net().lost());
  c.layer_exact["net.msgs_blocked"] =
      static_cast<double>(world.net().blocked_by_partition());
  c.layer_exact["net.msgs_dead_dest"] =
      static_cast<double>(world.net().dead_destination());
  c.layer_exact["schedd.transitions"] =
      static_cast<double>(schedd_transitions(world.sim()));
}

/// Time-to-ACTIVE samples, makespan and exactly-once accounting over one
/// Schedd's queue.
void collect_jobs(const co::Schedd& schedd, Campaign& c, bool& first) {
  for (const auto& [id, job] : schedd.jobs()) {
    ++c.jobs;
    if (first || job.submit_time < c.first_submit) {
      c.first_submit = job.submit_time;
    }
    first = false;
    if (job.first_execute_time >= 0.0) {
      c.tta.push_back(job.first_execute_time - job.submit_time);
    }
    if (job.status == co::JobStatus::kCompleted) {
      ++c.completed;
      c.last_completion = std::max(c.last_completion, job.completion_time);
    }
  }
}

/// Every job must have terminated exactly once in the user log.
std::uint64_t log_exactly_once_breaches(const co::Schedd& schedd) {
  std::map<std::uint64_t, int> terminated;
  for (const co::LogEvent& event : schedd.log().events()) {
    if (event.kind == co::LogEventKind::kTerminated) ++terminated[event.job_id];
  }
  std::uint64_t breaches = 0;
  for (const auto& [id, job] : schedd.jobs()) {
    const auto it = terminated.find(id);
    const int n = it == terminated.end() ? 0 : it->second;
    if (job.status == co::JobStatus::kCompleted && n != 1) ++breaches;
  }
  return breaches;
}

void add_collector(const cc::Collector& collector, Campaign& c) {
  c.layer_exact["collector.ads_received"] =
      static_cast<double>(collector.ads_received());
  c.layer_exact["collector.noop_ratio"] =
      collector.ads_received() == 0
          ? 0.0
          : static_cast<double>(collector.noop_updates()) /
                static_cast<double>(collector.ads_received());
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

// --- machine-speed probe -------------------------------------------------
//
// On a shared machine the campaign's own speed drifts by 20-50% over tens of
// seconds (CPU time tracks wall time, so the process itself runs slower).
// The probe is a fixed miniature event loop in the simulator's style (a
// heap of timestamped std::function events, a string-keyed ordered map,
// short-lived string payloads) that uses none of the simulator's code, so a
// change to src/ cannot move it. The harness runs probe slices interleaved
// with the campaign and before each set-up; run.py scales wall metrics by
// the probe to a reference machine speed. Probe time is excluded from every
// reported wall time.

class SpeedProbe {
 public:
  SpeedProbe() {
    // Fill the map up front so the probe's footprint is fixed before any
    // world is built.
    for (std::uint64_t key = 0; key < kKeys; ++key) {
      state_["host" + std::to_string(key)] = std::to_string(key);
    }
    for (int i = 0; i < kQueued; ++i) push(static_cast<double>(i));
  }
  // Queued events capture `this`.
  SpeedProbe(const SpeedProbe&) = delete;
  SpeedProbe& operator=(const SpeedProbe&) = delete;

  /// Runs one slice and returns its wall seconds.
  double slice() {
    const auto t0 = SteadyClock::now();
    for (int i = 0; i < kEventsPerSlice; ++i) {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      Event event = std::move(heap_.back());
      heap_.pop_back();
      now_ = event.when;
      event.fn();
    }
    return seconds_between(t0, SteadyClock::now());
  }

 private:
  struct Event {
    double when;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
  };

  void push(double when) {
    x_ ^= x_ << 13;
    x_ ^= x_ >> 7;
    x_ ^= x_ << 17;
    std::string name = "host" + std::to_string(x_ % kKeys);
    const std::uint64_t value = x_;
    heap_.push_back(Event{when, ++seq_, [this, name = std::move(name), value] {
                            state_[name] = std::to_string(value) + "/" + name;
                            push(now_ + static_cast<double>(value % 1000));
                          }});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  static constexpr int kQueued = 8192;
  static constexpr int kEventsPerSlice = 8000;
  static constexpr std::uint64_t kKeys = 20000;
  std::vector<Event> heap_;
  std::map<std::string, std::string> state_;
  std::uint64_t x_ = 88172645463325252ull;
  std::uint64_t seq_ = 0;
  double now_ = 0;
};

/// Campaign wall clock with probe slices interleaved: call step() after
/// every simulation step. The reported campaign wall excludes the slices.
class CampaignTimer {
 public:
  explicit CampaignTimer(SpeedProbe& probe)
      : probe_(probe), start_(SteadyClock::now()), last_(start_) {
    sample();
  }

  void step() {
    if (seconds_between(last_, SteadyClock::now()) >= kProbeEvery) sample();
  }

  void finish(Campaign& c) {
    sample();
    c.campaign_s = seconds_between(start_, SteadyClock::now()) - probed_;
    c.campaign_probe_s = median(slices_);
  }

 private:
  static constexpr double kProbeEvery = 0.1;  // campaign wall seconds

  void sample() {
    const double s = probe_.slice();
    slices_.push_back(s);
    probed_ += s;
    last_ = SteadyClock::now();
  }

  SpeedProbe& probe_;
  SteadyClock::time_point start_;
  SteadyClock::time_point last_;
  std::vector<double> slices_;
  double probed_ = 0;
};

// --- workloads --------------------------------------------------------------
//
// Each workload is a class whose constructor is the set-up (build the world
// and daemons, start them, load the initial queue) and whose run() drains
// the campaign and reports it. main() builds a workload kSetups times and
// runs only the last one, so setup_s is a median within the process too.

constexpr int kSetups = 3;

/// Random live JobManager killed every 20 simulated minutes (failure F1).
class JobManagerKiller {
 public:
  JobManagerKiller(cw::GridTestbed& testbed, co::CondorGAgent& agent)
      : testbed_(testbed),
        agent_(agent),
        rng_(testbed.world().sim().make_rng("campaign/f1")) {
    for (std::size_t i = 0; i < testbed.sites().size(); ++i) {
      site_index_[testbed.site(i).spec.name] = i;
    }
  }
  JobManagerKiller(const JobManagerKiller&) = delete;
  JobManagerKiller& operator=(const JobManagerKiller&) = delete;

  void arm(double first) {
    testbed_.world().sim().schedule_at(first, [this] { fire(); });
  }

 private:
  void fire() {
    std::vector<std::pair<std::size_t, std::string>> live;
    for (const auto& [id, job] : agent_.schedd().jobs()) {
      if (job.status != co::JobStatus::kRunning || job.gram_contact.empty()) {
        continue;
      }
      const auto it = site_index_.find(job.gram_site);
      if (it != site_index_.end()) {
        live.emplace_back(it->second, job.gram_contact);
      }
    }
    if (!live.empty()) {
      const auto& [site, contact] = live[rng_.below(live.size())];
      testbed_.site(site).gatekeeper->kill_jobmanager(contact);
    }
    testbed_.world().sim().schedule_in(kKillPeriod, [this] { fire(); });
  }

  static constexpr double kKillPeriod = 1200.0;

  cw::GridTestbed& testbed_;
  co::CondorGAgent& agent_;
  cu::Rng rng_;
  std::map<std::string, std::size_t> site_index_;
};

/// Builds the 8-site x 64-CPU grid and the submit host shared by the grid
/// and glide-in workloads.
void add_grid_sites(cw::GridTestbed& testbed, HostRoles& roles) {
  for (int s = 0; s < kGridSites; ++s) {
    cw::SiteSpec spec;
    spec.name = "site" + std::to_string(s) + ".grid.org";
    spec.cpus = kGridCpusPerSite;
    cw::Site& site = testbed.add_site(spec);
    roles[site.frontend->name()] = "site_host";
    roles[site.cluster->name()] = "site_host";
  }
  testbed.add_submit_host(kSubmitHost);
  roles[kSubmitHost] = "submit_host";
}

/// grid_burst and grid_faults: one agent, a parameter sweep of grid jobs
/// round-robin over the sites, optionally under seeded F1-F4.
class GridWorkload {
 public:
  GridWorkload(std::uint64_t seed, bool trace, bool faults)
      : testbed_(seed), trace_(trace), faults_(faults) {
    cs::Simulation& sim = testbed_.world().sim();
    if (trace) {
      sim.profiler().set_enabled(true);
      sim.tracer().set_enabled(true);
    }
    add_grid_sites(testbed_, roles_);
    co::AgentOptions options;
    options.gridmanager.staged_content_bytes = kSweepExeBytes;
    options.gridmanager.max_pending_per_site = 128;
    agent_ = std::make_unique<co::CondorGAgent>(testbed_.world(), kSubmitHost,
                                                options);
    agent_->start();

    // One shared executable, fixed sites round-robin.
    cu::Rng inputs = sim.make_rng("campaign/inputs");
    const int jobs = faults ? kFaultJobs : kBurstJobs;
    const double runtime = faults ? kFaultRuntime : kBurstRuntime;
    const auto s0 = SteadyClock::now();
    for (int i = 0; i < jobs; ++i) {
      co::JobDescription job;
      job.universe = co::Universe::kGrid;
      job.executable = "sweep.bin";
      job.executable_size = kSweepExeBytes;
      job.runtime_seconds = draw_runtime(inputs, runtime);
      job.grid_site =
          testbed_.site(static_cast<std::size_t>(i % kGridSites)).spec.name;
      job.notify_email = false;
      agent_->submit(job);
    }
    submit_s_ = seconds_between(s0, SteadyClock::now());
    if (faults) arm_faults();
  }

  Campaign run(SpeedProbe& probe) {
    Campaign c;
    c.submit_s = submit_s_;
    cs::Simulation& sim = testbed_.world().sim();
    CampaignTimer timer(probe);
    while (!agent_->schedd().all_terminal() && sim.now() < kGridHorizon) {
      sim.run_until(sim.now() + kGridStep);
      timer.step();
    }
    timer.finish(c);

    bool first = true;
    collect_jobs(agent_->schedd(), c, first);
    // Exactly once: every job completed, and the site schedulers ran no
    // more successful executions than there are completed jobs.
    std::uint64_t successes = 0, duplicates = 0, hits = 0, misses = 0;
    for (const auto& site : testbed_.sites()) {
      for (const auto& record : site->scheduler->history()) {
        if (record.state == condorg::batch::JobState::kCompleted) ++successes;
      }
      duplicates += site->gatekeeper->duplicate_submissions();
      if (const auto* cache = site->gatekeeper->staging_cache()) {
        hits += cache->hits();
        misses += cache->misses();
      }
    }
    const std::uint64_t extra =
        successes > c.completed ? successes - c.completed : 0;
    c.failed = (c.jobs - c.completed) + extra;
    if (c.completed != c.jobs) {
      c.violations.push_back(std::to_string(c.jobs - c.completed) +
                             " job(s) not completed at the horizon");
    }
    if (extra > 0) {
      c.violations.push_back(std::to_string(extra) +
                             " site-side success(es) above the completed "
                             "count");
    }
    finish_common(testbed_.world(), c);

    co::GridManager& gm = agent_->gridmanager();
    c.layer_exact["gram.gatekeeper.duplicates"] =
        static_cast<double>(duplicates);
    c.layer_exact["gram.jm_restarts"] =
        static_cast<double>(gm.jobmanager_restarts());
    c.layer_exact["gridmanager.probes"] =
        static_cast<double>(gm.probes_sent());
    c.layer_exact["gridmanager.resubmissions"] =
        static_cast<double>(gm.resubmissions());
    c.layer_exact["gass.gets"] = static_cast<double>(gm.gass().gets_served());
    c.layer_exact["gass.bytes_served"] =
        static_cast<double>(gm.gass().bytes_served());
    c.layer_exact["gass.staging_hit_ratio"] =
        hits + misses == 0 ? 0.0
                           : static_cast<double>(hits) /
                                 static_cast<double>(hits + misses);
    if (trace_) {
      fold_profile(sim, roles_, c);
      fold_critical_path(sim, c);
    }
    return c;
  }

 private:
  /// Seeded F1-F4 (section 4.2): JobManager kills every 20 min; two site
  /// front-ends crash every 2 h for 15 min; the submit host crashes every
  /// 3 h for 10 min; two submit<->site links partition every 2 h for
  /// 20 min. Each schedule is periodic with a seeded phase, so every seed
  /// sees the same number of incidents; exponential arrivals made the
  /// incident count itself the dominant seed-to-seed difference.
  void arm_faults() {
    killer_ = std::make_unique<JobManagerKiller>(testbed_, *agent_);
    killer_->arm(1200.0);
    cu::Rng phases = testbed_.world().sim().make_rng("campaign/faults");
    const auto periodic = [&phases](double period,
                                    const std::function<void(double)>& at) {
      for (double t = phases.uniform(0.0, period); t < kFaultScheduleEnd;
           t += period) {
        at(t);
      }
    };
    for (const std::size_t s : {0, 1}) {
      const std::string host = testbed_.site(s).spec.name;
      periodic(2 * 3600.0,
               [&](double t) { chaos_.crash_at(host, t, 900.0); });
    }
    periodic(3 * 3600.0,
             [&](double t) { chaos_.crash_at(kSubmitHost, t, 600.0); });
    for (const std::size_t s : {2, 3}) {
      const std::string host = testbed_.site(s).spec.name;
      periodic(2 * 3600.0, [&](double t) {
        chaos_.partition_at(kSubmitHost, host, t, 1200.0);
      });
    }
  }

  cw::GridTestbed testbed_;
  cs::FailureInjector chaos_{testbed_.world()};
  HostRoles roles_;
  std::unique_ptr<co::CondorGAgent> agent_;
  std::unique_ptr<JobManagerKiller> killer_;
  double submit_s_ = 0;
  bool trace_;
  bool faults_;
};

/// glidein_pool: vanilla jobs late-bound through GlideIns into the agent's
/// personal pool (Collector, Negotiator, VanillaRunner).
class GlideinWorkload {
 public:
  GlideinWorkload(std::uint64_t seed, bool trace)
      : testbed_(seed), trace_(trace) {
    cs::Simulation& sim = testbed_.world().sim();
    if (trace) sim.profiler().set_enabled(true);
    add_grid_sites(testbed_, roles_);
    agent_ = std::make_unique<co::CondorGAgent>(testbed_.world(), kSubmitHost);
    co::GlideInOptions glide;
    glide.walltime = 12 * 3600.0;
    glide.idle_timeout = 1800.0;
    glide.tick_interval = 300.0;
    glideins_ = &agent_->enable_glideins(glide);
    for (std::size_t i = 0; i < testbed_.sites().size(); ++i) {
      glideins_->add_site(co::GlideInSite{
          testbed_.site(i).spec.name, testbed_.site(i).gatekeeper_address(),
          testbed_.site(i).cluster, kGridCpusPerSite, 1});
    }
    agent_->start();

    // The batch lands at a seeded instant of the running agent's
    // negotiation and glide-in cycles. Matches happen on the cycle grid, so
    // with a fixed arrival instant every seed would read the same
    // time-to-ACTIVE.
    cu::Rng inputs = sim.make_rng("campaign/inputs");
    sim.run_until(inputs.uniform(0.0, kGlideArrivalWindow));
    const auto s0 = SteadyClock::now();
    for (int i = 0; i < kGlideJobs; ++i) {
      co::JobDescription job;
      job.universe = co::Universe::kVanilla;
      job.runtime_seconds = draw_runtime(inputs, kGlideRuntime);
      job.notify_email = false;
      agent_->submit(job);
    }
    submit_s_ = seconds_between(s0, SteadyClock::now());
  }

  Campaign run(SpeedProbe& probe) {
    Campaign c;
    c.submit_s = submit_s_;
    cs::Simulation& sim = testbed_.world().sim();
    CampaignTimer timer(probe);
    while (!agent_->schedd().all_terminal() && sim.now() < kGridHorizon) {
      sim.run_until(sim.now() + kGridStep);
      timer.step();
    }
    timer.finish(c);

    bool first = true;
    collect_jobs(agent_->schedd(), c, first);
    const std::uint64_t breaches = log_exactly_once_breaches(agent_->schedd());
    c.failed = (c.jobs - c.completed) + breaches;
    if (c.completed != c.jobs) {
      c.violations.push_back(std::to_string(c.jobs - c.completed) +
                             " job(s) not completed at the horizon");
    }
    if (breaches > 0) {
      c.violations.push_back(std::to_string(breaches) +
                             " job(s) terminated other than exactly once");
    }
    finish_common(testbed_.world(), c);

    const cc::Negotiator& negotiator = agent_->vanilla().negotiator();
    const cc::Collector& collector = agent_->collector();
    c.layer_exact["negotiator.cycles"] =
        static_cast<double>(negotiator.cycles());
    c.layer_exact["negotiator.matches"] =
        static_cast<double>(negotiator.matches_made());
    c.layer_exact["glidein.submitted"] =
        static_cast<double>(glideins_->glideins_submitted());
    c.layer_exact["glidein.started"] =
        static_cast<double>(glideins_->glideins_started());
    c.layer_exact["startd.evictions"] =
        static_cast<double>(agent_->log().count(co::LogEventKind::kEvicted));
    add_collector(collector, c);
    c.layer_exact["gass.gets"] =
        static_cast<double>(agent_->gridmanager().gass().gets_served());
    c.layer_exact["gass.bytes_served"] =
        static_cast<double>(agent_->gridmanager().gass().bytes_served());
    if (trace_) fold_profile(sim, roles_, c);
    return c;
  }

 private:
  cw::GridTestbed testbed_;
  HostRoles roles_;
  std::unique_ptr<co::CondorGAgent> agent_;
  co::GlideInManager* glideins_ = nullptr;
  double submit_s_ = 0;
  bool trace_;
};

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          SteadyClock::now().time_since_epoch())
          .count());
}

double median_us(std::vector<std::uint64_t> ns) {
  if (ns.empty()) return 0.0;
  std::sort(ns.begin(), ns.end());
  return static_cast<double>(ns[ns.size() / 2]) / 1e3;
}

/// portal_storm: users submit through one Portal into per-user Schedd +
/// PoolRunner pairs sharing one Collector and one delta PoolNegotiator.
class PortalWorkload {
 public:
  PortalWorkload(std::uint64_t seed, bool trace, int threads)
      : kernel_(threads),
        world_(seed),
        trace_(trace),
        central_(world_.add_host("portal.grid")),
        collector_(central_, world_.net()),
        negotiator_(central_, world_.net(), collector_, negotiator_options()),
        portal_(central_, world_.net()) {
    if (trace) {
      world_.sim().profiler().set_enabled(true);
      negotiator_.set_clock(now_ns);
    }
    roles_[central_.name()] = "central_host";

    cu::Rng inputs = world_.sim().make_rng("campaign/inputs");
    users_.resize(kPortalUsers);
    for (int u = 0; u < kPortalUsers; ++u) {
      char name[16];
      std::snprintf(name, sizeof(name), "u%04d", u);
      cs::Host& host = world_.add_host(std::string(name) + ".grid");
      roles_[host.name()] = "user_host";
      User& user = users_[static_cast<std::size_t>(u)];
      user.schedd = std::make_unique<co::Schedd>(host);
      co::PoolRunnerOptions ropt;
      ropt.collector = collector_.address();
      ropt.advertise_period = 30.0;
      ropt.shadow.poll_interval = 30.0;
      user.runner =
          std::make_unique<co::PoolRunner>(*user.schedd, world_.net(), ropt);
      // Closed loop: each user keeps one batch in flight.
      co::PortalClientOptions copt;
      copt.portal = portal_.address();
      copt.deliver_to = user.runner->address();
      copt.user = name;
      copt.total_jobs = kPortalJobsPerUser;
      copt.batch_size = kPortalBatch;
      copt.runtime_seconds = draw_runtime(inputs, kPortalRuntime);
      copt.requirements = "other.SiteGroup == \"g" +
                          std::to_string(u % kPortalBusyGroups) + "\"";
      user.client =
          std::make_unique<co::PortalClient>(host, world_.net(), copt);
    }

    for (int g = 0; g < kPortalGroups; ++g) {
      for (int s = 0; s < kPortalSlotsPerGroup; ++s) {
        char node[32];
        std::snprintf(node, sizeof(node), "g%02d-n%02d.grid", g, s);
        cs::Host& host = world_.add_host(node);
        roles_[host.name()] = "slot_host";
        cc::StartdOptions sopt;
        sopt.collector = collector_.address();
        sopt.advertise_period = 30.0;
        sopt.checkpoint_interval = 300.0;
        sopt.base_ad = condorg::classad::parse_ad(
            "[Arch = \"X86_64\"; Memory = 512; SiteGroup = \"g" +
            std::to_string(g) + "\"]");
        // Slot names must be pool-unique: the Collector keys ads by Name.
        startds_.push_back(std::make_unique<cc::Startd>(
            host, world_.net(), std::string("slot1@") + node, sopt));
      }
    }
    portal_.start();
    negotiator_.start();
    for (User& user : users_) {
      user.runner->start();
      user.client->start();
    }
  }

  Campaign run(SpeedProbe& probe) {
    Campaign c;
    cs::Simulation& sim = world_.sim();
    CampaignTimer timer(probe);
    while (sim.now() < kPortalHorizon) {
      sim.run_until(sim.now() + 15.0);
      if (drained()) break;
      timer.step();
    }
    timer.finish(c);

    bool first = true;
    std::uint64_t breaches = 0, runner_busy = 0, stale = 0, evictions = 0;
    for (const User& user : users_) {
      collect_jobs(*user.schedd, c, first);
      breaches += log_exactly_once_breaches(*user.schedd);
      runner_busy += user.runner->busy_rejections();
      stale += user.runner->stale_matches();
      evictions += user.schedd->log().count(co::LogEventKind::kEvicted);
    }
    // Exactly once: every job admitted and completed, each terminated once
    // in its user log, and no more slot-side completions than completed
    // jobs.
    const std::uint64_t expected =
        static_cast<std::uint64_t>(kPortalUsers) * kPortalJobsPerUser;
    std::uint64_t executed = 0;
    for (const auto& startd : startds_) executed += startd->jobs_completed();
    const std::uint64_t extra =
        executed > c.completed ? executed - c.completed : 0;
    const std::uint64_t missing = expected > c.jobs ? expected - c.jobs : 0;
    c.failed = missing + (c.jobs - c.completed) + breaches + extra;
    c.jobs = std::max(c.jobs, expected);
    if (c.failed > 0) {
      c.violations.push_back(
          std::to_string(c.failed) + " job(s) not completed exactly once (" +
          std::to_string(missing) + " never admitted, " +
          std::to_string(extra) + " extra slot-side completions)");
    }
    if (negotiator_.divergences() != 0) {
      c.violations.push_back(std::to_string(negotiator_.divergences()) +
                             " PoolNegotiator divergence(s)");
    }
    std::vector<std::string> audit;
    negotiator_.audit(audit);
    for (const std::string& line : audit) {
      c.violations.push_back("pool negotiator: " + line);
    }
    finish_common(world_, c);

    c.layer_exact["portal.busy_rejections"] =
        static_cast<double>(portal_.busy_rejections());
    c.layer_exact["portal.batches_admitted"] =
        static_cast<double>(portal_.batches_admitted());
    c.layer_exact["pool_runner.busy_rejections"] =
        static_cast<double>(runner_busy);
    c.layer_exact["pool_runner.stale_matches"] = static_cast<double>(stale);
    c.layer_exact["startd.evictions"] = static_cast<double>(evictions);
    add_collector(collector_, c);
    const std::uint64_t live_cycles =
        negotiator_.cycles() - negotiator_.skipped_cycles();
    c.layer_exact["pool_negotiator.match_yield"] =
        live_cycles == 0 ? 0.0
                         : static_cast<double>(negotiator_.matches_made()) /
                               static_cast<double>(live_cycles);
    c.layer_exact["pool_negotiator.divergences"] =
        static_cast<double>(negotiator_.divergences());
    if (trace_) {
      std::uint64_t cycle_ns = 0;
      for (const std::uint64_t ns : negotiator_.delta_cycle_ns()) {
        cycle_ns += ns;
      }
      for (const std::uint64_t ns : negotiator_.reference_cycle_ns()) {
        cycle_ns += ns;
      }
      c.layer_wall["pool_negotiator.cycle_s"] =
          static_cast<double>(cycle_ns) / 1e9;
      c.layer_wall["pool_negotiator.delta_cycle_us"] =
          median_us(negotiator_.delta_cycle_ns());
      c.layer_wall["pool_negotiator.sweep_cycle_us"] =
          median_us(negotiator_.reference_cycle_ns());
      fold_profile(sim, roles_, c);
    }
    return c;
  }

 private:
  struct User {
    std::unique_ptr<co::Schedd> schedd;
    std::unique_ptr<co::PoolRunner> runner;
    std::unique_ptr<co::PortalClient> client;
  };

  static cc::PoolNegotiatorOptions negotiator_options() {
    cc::PoolNegotiatorOptions options;
    options.cycle_period = 5.0;
    options.full_sweep_every = 8;
    options.hold_timeout = 60.0;
    return options;
  }

  bool drained() const {
    if (portal_.queue_depth() != 0) return false;
    for (const User& user : users_) {
      if (!user.client->drained() || !user.schedd->all_terminal()) {
        return false;
      }
    }
    return true;
  }

  cs::World::ScopedParallelOverride kernel_;
  cs::World world_;
  bool trace_;
  HostRoles roles_;
  cs::Host& central_;
  cc::Collector collector_;
  cc::PoolNegotiator negotiator_;
  co::Portal portal_;
  std::vector<User> users_;
  std::vector<std::unique_ptr<cc::Startd>> startds_;
};

/// Sets the workload up kSetups times (all but the last torn down again),
/// each after one probe slice, and runs the last one; setup_s is the median
/// set-up wall.
template <typename Workload, typename... Args>
Campaign measure(const Args&... args) {
  SpeedProbe probe;
  std::vector<double> setups, slices;
  std::unique_ptr<Workload> workload;
  for (int i = 0; i < kSetups; ++i) {
    workload.reset();
    slices.push_back(probe.slice());
    const auto t0 = SteadyClock::now();
    workload = std::make_unique<Workload>(args...);
    setups.push_back(seconds_between(t0, SteadyClock::now()));
  }
  Campaign c = workload->run(probe);
  c.setup_s = median(setups);
  c.setup_probe_s = median(slices);
  return c;
}

// --- output ---------------------------------------------------------------

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

cu::JsonValue to_json(const Campaign& c) {
  cu::JsonValue wall = cu::JsonValue::object();
  wall["setup_s"] = c.setup_s;
  wall["submit_s"] = c.submit_s;
  wall["campaign_s"] = c.campaign_s;
  wall["setup_probe_s"] = c.setup_probe_s;
  wall["campaign_probe_s"] = c.campaign_probe_s;
  wall["peak_rss_mb"] = peak_rss_mb();
  cu::JsonValue layers_wall = cu::JsonValue::object();
  for (const auto& [name, value] : c.layer_wall) layers_wall[name] = value;
  wall["layers"] = std::move(layers_wall);

  cu::JsonValue exact = cu::JsonValue::object();
  exact["jobs"] = c.jobs;
  exact["completed"] = c.completed;
  exact["failed"] = c.failed;
  exact["first_submit"] = c.first_submit;
  exact["last_completion"] = c.last_completion;
  exact["wire_msgs"] = c.wire_msgs;
  exact["dispatched"] = c.dispatched;
  exact["digest"] = hex64(c.digest);
  cu::JsonValue tta = cu::JsonValue::array();
  for (const double t : c.tta) tta.push_back(t);
  exact["tta"] = std::move(tta);
  cu::JsonValue layers_exact = cu::JsonValue::object();
  for (const auto& [name, value] : c.layer_exact) layers_exact[name] = value;
  exact["layers"] = std::move(layers_exact);

  cu::JsonValue violations = cu::JsonValue::array();
  for (const std::string& line : c.violations) violations.push_back(line);

  cu::JsonValue root = cu::JsonValue::object();
  root["wall"] = std::move(wall);
  root["exact"] = std::move(exact);
  root["violations"] = std::move(violations);
  return root;
}

int usage() {
  std::fprintf(stderr,
               "usage: campaign --workload "
               "<grid_burst|grid_faults|portal_storm|glidein_pool> "
               "--seed <n> [--trace 0|1] [--threads <n>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  bool have_seed = false;
  bool trace = false;
  int threads = 2;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') return usage();
      have_seed = true;
    } else if (flag == "--trace") {
      trace = std::string_view(value) == "1";
    } else if (flag == "--threads") {
      threads = static_cast<int>(std::strtol(value, &end, 10));
      if (end == value || *end != '\0' || threads < 0) return usage();
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || !have_seed) return usage();

  Campaign campaign;
  if (workload == "grid_burst") {
    campaign = measure<GridWorkload>(seed, trace, false);
  } else if (workload == "grid_faults") {
    campaign = measure<GridWorkload>(seed, trace, true);
  } else if (workload == "portal_storm") {
    campaign = measure<PortalWorkload>(seed, trace, threads);
  } else if (workload == "glidein_pool") {
    campaign = measure<GlideinWorkload>(seed, trace);
  } else {
    return usage();
  }
  if (trace) zero_fill(campaign);
  std::printf("%s\n", to_json(campaign).dump().c_str());
  return 0;
}
