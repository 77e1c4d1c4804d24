#include "condorg/workloads/explore_scenarios.h"

#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "condorg/classad/parser.h"
#include "condorg/condor/collector.h"
#include "condorg/condor/pool_negotiator.h"
#include "condorg/condor/startd.h"
#include "condorg/core/agent.h"
#include "condorg/core/audit.h"
#include "condorg/core/broker.h"
#include "condorg/core/pool_runner.h"
#include "condorg/core/portal.h"
#include "condorg/core/portal_client.h"
#include "condorg/core/schedd.h"
#include "condorg/gram/protocol.h"
#include "condorg/sim/det.h"
#include "condorg/util/strings.h"
#include "condorg/workloads/grid_builder.h"

namespace condorg::workloads {
namespace {

// Shared scenario scaffolding: the grid shape and job mix differ per
// scenario; everything below (auditor wiring, state probe, outcome
// harvesting) is identical, and identical matters — replay equality is
// byte-for-byte over the formatted violations.
struct ExploreWorld {
  GridTestbed testbed{/*seed=*/2001};
  std::unique_ptr<core::CondorGAgent> agent;
  std::unique_ptr<core::StandardAuditor> auditor;
  std::vector<std::uint64_t> job_ids;

  sim::Simulation& sim() { return testbed.world().sim(); }

  void start_agent(const std::string& host,
                   const core::AgentOptions& options = {}) {
    // DetSan violations are process-global; the explorer runs many
    // schedules in one process, so each run starts from a drained slate
    // and harvests its own violations in finish().
    (void)det::take_violations();
    testbed.add_submit_host(host);
    agent =
        std::make_unique<core::CondorGAgent>(testbed.world(), host, options);
    agent->set_site_chooser(core::make_static_chooser(testbed.gatekeepers()));
    agent->start();
    // Period 1: check every invariant between every pair of events, so a
    // violation is pinned to the exact dispatch that introduced it.
    auditor = std::make_unique<core::StandardAuditor>(sim(), /*period=*/1);
    auditor->attach_agent(*agent);
    for (const auto& site : testbed.sites()) {
      auditor->attach_gatekeeper(*site->gatekeeper);
    }
  }

  void submit_jobs(int count, double runtime_seconds) {
    for (int i = 0; i < count; ++i) {
      core::JobDescription job;
      job.universe = core::Universe::kGrid;
      job.executable = "probe";
      job.runtime_seconds = runtime_seconds + 30.0 * i;
      job.output_size = 1 << 10;
      job_ids.push_back(agent->submit(job));
    }
  }

  /// Hash of the protocol-relevant world state (not its history): job
  /// statuses and seqs, JobManager states, host liveness/epochs, disk
  /// record counts. Two prefixes hashing equal lead to equivalent futures,
  /// which is what lets the explorer prune.
  std::uint64_t state_hash() {
    std::uint64_t h = 0x9e3779b97f4a7c15ull;
    for (const std::uint64_t id : job_ids) {
      const auto job = agent->query(id);
      if (!job) {
        h = util::fnv1a_mix(h, ~0ull);
        continue;
      }
      h = util::fnv1a_mix(h, static_cast<std::uint64_t>(job->status));
      h = util::fnv1a_mix(h, job->gram_seq);
      h = util::fnv1a_mix(h, util::fnv1a(job->gram_contact));
      h = util::fnv1a_mix(h, static_cast<std::uint64_t>(job->attempts));
    }
    for (const auto& site : testbed.sites()) {
      h = util::fnv1a_mix(h, site->gatekeeper->jobmanager_count());
      site->gatekeeper->for_each_jobmanager([&](const gram::JobManager& jm) {
        h = util::fnv1a_mix(h, util::fnv1a(jm.contact()));
        h = util::fnv1a_mix(h, static_cast<std::uint64_t>(jm.state()));
        h = util::fnv1a_mix(h, (jm.committed() ? 2u : 0u) |
                                   (jm.process_alive() ? 1u : 0u));
      });
      h = util::fnv1a_mix(h, site->frontend->epoch());
      h = util::fnv1a_mix(h, site->frontend->alive() ? 1 : 0);
      h = util::fnv1a_mix(h, site->frontend->disk().size());
    }
    sim::Host& submit = testbed.world().host(submit_host_name);
    h = util::fnv1a_mix(h, submit.epoch());
    h = util::fnv1a_mix(h, submit.alive() ? 1 : 0);
    h = util::fnv1a_mix(h, submit.disk().size());
    return h;
  }

  sim::RunOutcome finish(double horizon) {
    sim().run_until(horizon);
    sim().set_controller(nullptr);
    sim::RunOutcome out;
    out.trace_digest = sim().trace_digest();
    out.dispatched = sim().dispatched();
    for (const auto& v : auditor->auditor().violations()) {
      out.violations.push_back(util::format("t=%.3f %s: %s", v.when,
                                            v.check.c_str(),
                                            v.detail.c_str()));
    }
    // DetSan ownership violations count as audit failures: the formatted
    // line is deterministic (owner clock + host names), so a violating
    // schedule replays byte-for-byte like any other counterexample.
    for (const auto& v : det::take_violations()) {
      out.violations.push_back(v.format());
    }
    return out;
  }

  std::string submit_host_name = "submit.grid";
};

sim::RunOutcome run_quickstart(sim::ScheduleOracle& oracle) {
  auto world = std::make_unique<ExploreWorld>();
  world->sim().set_controller(&oracle);

  SiteSpec site;
  site.name = "site-a.grid";
  site.kind = SiteKind::kPbs;
  site.cpus = 2;
  world->testbed.add_site(site);

  world->start_agent("submit.grid");
  oracle.set_state_probe([w = world.get()] { return w->state_hash(); });
  world->submit_jobs(/*count=*/3, /*runtime_seconds=*/120.0);

  // CONDORG_MUTATE_CROSS_HOST: seed the exact bug DetSan exists to catch —
  // an event dispatched on the site front-end reaching directly into the
  // submit host's Schedd (a cross-island direct call, invisible to the
  // auditor's protocol invariants). DetSan is armed explicitly so the
  // self-test works in any build flavour.
  if (std::getenv("CONDORG_MUTATE_CROSS_HOST") != nullptr) {
    det::set_enabled(true);
    core::CondorGAgent* agent = world->agent.get();
    world->testbed.site(0).frontend->post(60.0, [agent] {
      (void)agent->schedd().count(core::JobStatus::kIdle);
    });
  }
  return world->finish(/*horizon=*/1800.0);
}

sim::RunOutcome run_fault_drill(sim::ScheduleOracle& oracle) {
  auto world = std::make_unique<ExploreWorld>();
  world->sim().set_controller(&oracle);

  SiteSpec a;
  a.name = "site-a.grid";
  a.kind = SiteKind::kPbs;
  a.cpus = 2;
  world->testbed.add_site(a);

  SiteSpec b;
  b.name = "site-b.grid";
  b.kind = SiteKind::kLsf;
  b.cpus = 2;
  world->testbed.add_site(b);

  world->start_agent("submit.grid");
  oracle.set_state_probe([w = world.get()] { return w->state_hash(); });
  world->submit_jobs(/*count=*/4, /*runtime_seconds=*/120.0);

  // Scripted fault plan, on top of whatever the oracle injects:
  sim::Simulation& sim = world->sim();
  GridTestbed& testbed = world->testbed;
  // F1 at t=180: kill the first live JobManager at site A.
  sim.schedule_at(180.0, [&testbed] {
    gram::Gatekeeper& gk = *testbed.site(0).gatekeeper;
    std::string victim;
    gk.for_each_jobmanager([&victim](const gram::JobManager& jm) {
      if (victim.empty() && jm.process_alive() &&
          !gram::is_terminal(jm.state())) {
        victim = jm.contact();
      }
    });
    if (!victim.empty()) gk.kill_jobmanager(victim);
  });
  // F2 at t=240: site B's front-end machine reboots.
  sim.schedule_at(240.0, [&testbed] {
    testbed.site(1).frontend->crash_for(50.0);
  });
  // F4 from t=300 to t=420: the WAN to site A partitions.
  sim.schedule_at(300.0, [&testbed] {
    testbed.world().net().set_partitioned("submit.grid", "site-a.grid", true);
  });
  sim.schedule_at(420.0, [&testbed] {
    testbed.world().net().set_partitioned("submit.grid", "site-a.grid", false);
  });

  return world->finish(/*horizon=*/2400.0);
}

// Pipelined submission under a tight per-site cap: four jobs share one
// executable, so the staging cache coalesces transfers while the pipeline
// keeps at most two submits outstanding per gatekeeper. The oracle's
// crash injection (gridmanager.submit_ack et al.) must never yield a
// duplicate execution or a stuck pipeline slot.
sim::RunOutcome run_submit_storm(sim::ScheduleOracle& oracle) {
  auto world = std::make_unique<ExploreWorld>();
  world->sim().set_controller(&oracle);

  SiteSpec a;
  a.name = "site-a.grid";
  a.kind = SiteKind::kPbs;
  a.cpus = 2;
  world->testbed.add_site(a);

  SiteSpec b;
  b.name = "site-b.grid";
  b.kind = SiteKind::kLsf;
  b.cpus = 2;
  world->testbed.add_site(b);

  core::AgentOptions options;
  options.gridmanager.max_pending_per_site = 2;
  world->start_agent("submit.grid", options);
  oracle.set_state_probe([w = world.get()] { return w->state_hash(); });
  world->submit_jobs(/*count=*/4, /*runtime_seconds=*/120.0);
  return world->finish(/*horizon=*/2400.0);
}

// Portal scale-out world: two PortalClients feed one Portal, which hands
// admitted batches to per-user PoolRunners; a shared central Collector +
// delta PoolNegotiator matches the published job ads against two Startd
// slots. Each runner admits one job at a time, so each user's second batch
// is turned away once and admitted by credit. The oracle crashes the
// portal at `portal.submit_recv` (admission persisted, reply lost), the
// runner at `portal.deliver_recv` (nothing persisted, redelivery expected)
// and at `pool_runner.credit_persist` (debt persisted, busy reply lost).
// Exactly-once admission means no user's Schedd ever holds more queue
// entries than that user submitted; liveness means that at the horizon
// every client is drained and every submitted job is in its Schedd.
struct PortalWorld {
  sim::World world{/*seed=*/2001};

  struct User {
    std::string name;
    std::uint64_t total_jobs = 0;
    sim::Host* host = nullptr;
    std::unique_ptr<core::Schedd> schedd;
    std::unique_ptr<core::PoolRunner> runner;
    std::unique_ptr<core::PortalClient> client;
  };

  sim::Host* central = nullptr;
  std::unique_ptr<condor::Collector> collector;
  std::unique_ptr<condor::PoolNegotiator> negotiator;
  std::unique_ptr<core::Portal> portal;
  std::vector<std::unique_ptr<User>> users;
  std::vector<std::unique_ptr<condor::Startd>> slots;
  std::unique_ptr<core::StandardAuditor> auditor;

  sim::Simulation& sim() { return world.sim(); }

  void build(std::uint64_t jobs_per_user) {
    (void)det::take_violations();
    central = &world.add_host("portal.grid");
    collector = std::make_unique<condor::Collector>(*central, world.net());

    condor::PoolNegotiatorOptions nopt;
    nopt.cycle_period = 5.0;
    nopt.full_sweep_every = 4;  // sweep-audit often inside the tiny horizon
    nopt.hold_timeout = 60.0;
    negotiator = std::make_unique<condor::PoolNegotiator>(
        *central, world.net(), *collector, nopt);

    core::PortalOptions popt;
    popt.max_queue_depth = 4;
    popt.flush_period = 1.0;
    popt.flush_batch = 4;
    portal = std::make_unique<core::Portal>(*central, world.net(), popt);

    for (const std::string& name : {std::string("ada"), std::string("bob")}) {
      auto user = std::make_unique<User>();
      user->name = name;
      user->total_jobs = jobs_per_user;
      user->host = &world.add_host(name + ".grid");
      user->schedd = std::make_unique<core::Schedd>(*user->host);

      core::PoolRunnerOptions ropt;
      ropt.collector = collector->address();
      ropt.advertise_period = 10.0;
      ropt.max_active = 1;
      ropt.shadow.poll_interval = 15.0;
      user->runner = std::make_unique<core::PoolRunner>(
          *user->schedd, world.net(), ropt);

      core::PortalClientOptions copt;
      copt.portal = portal->address();
      copt.deliver_to = user->runner->address();
      copt.user = name;
      copt.total_jobs = jobs_per_user;
      copt.batch_size = 1;
      copt.runtime_seconds = 30.0;
      copt.retry_backoff = 3.0;
      user->client = std::make_unique<core::PortalClient>(
          *user->host, world.net(), copt);
      users.push_back(std::move(user));
    }

    for (int i = 0; i < 2; ++i) {
      sim::Host& node = world.add_host("node-" + std::to_string(i) + ".grid");
      condor::StartdOptions sopt;
      sopt.collector = collector->address();
      sopt.advertise_period = 10.0;
      sopt.checkpoint_interval = 100.0;
      sopt.base_ad = classad::parse_ad("[Arch = \"X86_64\"; Memory = 512]");
      slots.push_back(std::make_unique<condor::Startd>(
          node, world.net(), "slot" + std::to_string(i), sopt));
    }

    auditor = std::make_unique<core::StandardAuditor>(sim(), /*period=*/1);
    for (auto& user : users) auditor->attach_schedd(*user->schedd);
    auditor->attach_pool_negotiator(*negotiator);
    // The scenario's own safety property, checked between every pair of
    // events: a duplicate admission (portal replay or redelivery slipping
    // past the persisted markers) materializes as extra Schedd queue
    // entries, since jobs in this world are only ever added by deliveries.
    auditor->auditor().add_check(
        "portal/exactly-once", [this](std::vector<std::string>& out) {
          for (const auto& user : users) {
            const std::size_t queued = user->schedd->jobs().size();
            if (queued > user->total_jobs) {
              out.push_back("user " + user->name + " submitted " +
                            std::to_string(user->total_jobs) +
                            " jobs but the queue holds " +
                            std::to_string(queued) +
                            " (duplicate admission)");
            }
          }
        });

    portal->start();
    negotiator->start();
    for (auto& user : users) {
      user->runner->start();
      user->client->start();
    }
  }

  std::uint64_t state_hash() {
    std::uint64_t h = 0x9e3779b97f4a7c15ull;
    for (const auto& user : users) {
      // lint-allow(schedd-full-scan): explorer state probe hashes the queue
      for (const auto& [id, job] : user->schedd->jobs()) {
        h = util::fnv1a_mix(h, id);
        h = util::fnv1a_mix(h, static_cast<std::uint64_t>(job.status));
      }
      h = util::fnv1a_mix(h, user->client->remaining_jobs());
      h = util::fnv1a_mix(h, user->host->epoch());
      h = util::fnv1a_mix(h, user->host->alive() ? 1 : 0);
      h = util::fnv1a_mix(h, user->host->disk().size());
    }
    h = util::fnv1a_mix(h, portal->queue_depth());
    h = util::fnv1a_mix(h, portal->jobs_admitted());
    h = util::fnv1a_mix(h, portal->closed_runners());
    h = util::fnv1a_mix(h, collector->change_seq());
    h = util::fnv1a_mix(h, central->epoch());
    h = util::fnv1a_mix(h, central->alive() ? 1 : 0);
    h = util::fnv1a_mix(h, central->disk().size());
    return h;
  }

  sim::RunOutcome finish(double horizon) {
    sim().run_until(horizon);
    sim().set_controller(nullptr);
    sim::RunOutcome out;
    out.trace_digest = sim().trace_digest();
    out.dispatched = sim().dispatched();
    for (const auto& v : auditor->auditor().violations()) {
      out.violations.push_back(util::format("t=%.3f %s: %s", v.when,
                                            v.check.c_str(),
                                            v.detail.c_str()));
    }
    for (const auto& v : det::take_violations()) {
      out.violations.push_back(v.format());
    }
    // Liveness: a batch turned away must still arrive, whatever crashed.
    for (const auto& user : users) {
      const std::size_t queued = user->schedd->jobs().size();
      if (!user->client->drained() || queued != user->total_jobs) {
        out.violations.push_back(util::format(
            "t=%.3f portal/liveness: user %s submitted %llu jobs but the "
            "queue holds %zu%s",
            horizon, user->name.c_str(),
            static_cast<unsigned long long>(user->total_jobs), queued,
            user->client->drained() ? "" : " (client not drained)"));
      }
    }
    return out;
  }
};

sim::RunOutcome run_portal_storm(sim::ScheduleOracle& oracle) {
  auto world = std::make_unique<PortalWorld>();
  world->sim().set_controller(&oracle);
  world->build(/*jobs_per_user=*/2);
  oracle.set_state_probe([w = world.get()] { return w->state_hash(); });
  return world->finish(/*horizon=*/900.0);
}

}  // namespace

sim::Explorer::Scenario make_explore_scenario(const std::string& name) {
  if (name == "quickstart") return run_quickstart;
  if (name == "fault_drill") return run_fault_drill;
  if (name == "submit_storm") return run_submit_storm;
  if (name == "portal_storm") return run_portal_storm;
  throw std::invalid_argument("unknown explore scenario: " + name);
}

std::vector<std::string> explore_scenario_names() {
  return {"quickstart", "fault_drill", "submit_storm", "portal_storm"};
}

}  // namespace condorg::workloads
