// Determinism acceptance for the island-parallel kernel: the same scenario
// must produce byte-identical artifacts — trace digest, tracer JSONL, user
// log, DetSan report, the shared pool's matches and job tables — for every
// CONDORG_PARALLEL worker count, and the strict (tracer-armed) executor must
// commit exactly the stream the windowed executor commits. These are the
// equalities DESIGN.md §15 promises; bench_k1_island_scale and
// bench_u1_multiuser re-check them at bench scale.
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "condorg/classad/parser.h"
#include "condorg/condor/collector.h"
#include "condorg/condor/pool_negotiator.h"
#include "condorg/condor/startd.h"
#include "condorg/core/agent.h"
#include "condorg/core/broker.h"
#include "condorg/core/pool_runner.h"
#include "condorg/core/portal.h"
#include "condorg/core/portal_client.h"
#include "condorg/core/schedd.h"
#include "condorg/gass/file_service.h"
#include "condorg/sim/det.h"
#include "condorg/sim/explorer.h"
#include "condorg/sim/world.h"
#include "condorg/workloads/explore_scenarios.h"
#include "condorg/workloads/grid_builder.h"

namespace {

namespace cc = condorg::condor;
namespace core = condorg::core;
namespace cw = condorg::workloads;
namespace det = condorg::det;
namespace sim = condorg::sim;

constexpr unsigned kThreadCounts[] = {1, 2, 4, 8};

struct RunArtifacts {
  std::uint64_t digest = 0;
  std::uint64_t dispatched = 0;
  int completed = 0;
  std::string user_log;
  std::string trace_jsonl;
  std::size_t detsan_violations = 0;
};

std::string format_user_log(const core::CondorGAgent& agent) {
  std::string out;
  for (const auto& event : agent.log().events()) {
    out += std::to_string(event.time) + " " + std::to_string(event.job_id) +
           " " + core::to_string(event.kind) + " " + event.detail + "\n";
  }
  return out;
}

/// The quickstart example in miniature: two sites, one agent, a batch of
/// grid-universe jobs, run to completion.
RunArtifacts run_quickstart(unsigned threads, bool trace) {
  sim::World::ScopedParallelOverride force(static_cast<int>(threads));
  det::take_violations();  // clean slate per run (process-global storage)
  det::set_enabled(true);

  cw::GridTestbed testbed(/*seed=*/2001);
  sim::Simulation& s = testbed.world().sim();
  if (trace) s.tracer().set_enabled(true);

  cw::SiteSpec pbs;
  pbs.name = "pbs.anl.gov";
  pbs.kind = cw::SiteKind::kPbs;
  pbs.cpus = 4;
  testbed.add_site(pbs);
  cw::SiteSpec lsf;
  lsf.name = "lsf.ncsa.edu";
  lsf.kind = cw::SiteKind::kLsf;
  lsf.cpus = 2;
  testbed.add_site(lsf);

  testbed.add_submit_host("desktop.wisc.edu");
  core::CondorGAgent agent(testbed.world(), "desktop.wisc.edu");
  agent.set_site_chooser(core::make_static_chooser(testbed.gatekeepers()));
  agent.start();

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 10; ++i) {
    core::JobDescription job;
    job.universe = core::Universe::kGrid;
    job.executable = "render_frame";
    job.runtime_seconds = 600 + 60 * i;
    job.output_size = 1 << 20;
    ids.push_back(agent.submit(job));
  }
  while (!agent.schedd().all_terminal() && testbed.world().now() < 24 * 3600.0) {
    s.run_until(testbed.world().now() + 300.0);
  }

  RunArtifacts a;
  a.digest = s.trace_digest();
  a.dispatched = s.dispatched();
  for (const auto id : ids) {
    if (agent.query(id)->status == core::JobStatus::kCompleted) ++a.completed;
  }
  a.user_log = format_user_log(agent);
  if (trace) a.trace_jsonl = s.tracer().to_jsonl();
  a.detsan_violations = det::take_violations().size();
  det::set_enabled(false);
  return a;
}

/// The fault_drill example in miniature: a front-end crash, a partition
/// window, and a submit-host crash while jobs are in flight.
RunArtifacts run_fault_drill(unsigned threads) {
  sim::World::ScopedParallelOverride force(static_cast<int>(threads));
  det::take_violations();
  det::set_enabled(true);

  cw::GridTestbed testbed(/*seed=*/4242);
  sim::Simulation& s = testbed.world().sim();

  cw::SiteSpec a_spec;
  a_spec.name = "pbs.anl.gov";
  a_spec.kind = cw::SiteKind::kPbs;
  a_spec.cpus = 2;
  testbed.add_site(a_spec);
  cw::SiteSpec b_spec;
  b_spec.name = "lsf.ncsa.edu";
  b_spec.kind = cw::SiteKind::kLsf;
  b_spec.cpus = 2;
  testbed.add_site(b_spec);

  testbed.add_submit_host("submit.wisc.edu");
  core::CondorGAgent agent(testbed.world(), "submit.wisc.edu");
  agent.set_site_chooser(core::make_static_chooser(testbed.gatekeepers()));
  agent.start();

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 6; ++i) {
    core::JobDescription job;
    job.universe = core::Universe::kGrid;
    job.executable = "drill";
    job.runtime_seconds = 900 + 90 * i;
    ids.push_back(agent.submit(job));
  }

  s.run_until(1800.0);
  testbed.site(1).frontend->crash_for(1200.0);
  s.run_until(4000.0);
  testbed.world().net().set_partitioned("submit.wisc.edu", "pbs.anl.gov",
                                        true);
  s.schedule_at(4600.0, [&testbed] {
    testbed.world().net().set_partitioned("submit.wisc.edu", "pbs.anl.gov",
                                          false);
  });
  s.run_until(6000.0);
  agent.host().crash_for(600.0);
  while (!agent.schedd().all_terminal() && testbed.world().now() < 24 * 3600.0) {
    s.run_until(testbed.world().now() + 600.0);
  }

  RunArtifacts out;
  out.digest = s.trace_digest();
  out.dispatched = s.dispatched();
  for (const auto id : ids) {
    if (agent.query(id)->status == core::JobStatus::kCompleted)
      ++out.completed;
  }
  out.user_log = format_user_log(agent);
  out.detsan_violations = det::take_violations().size();
  det::set_enabled(false);
  return out;
}

TEST(ParallelDigest, QuickstartByteIdenticalAcrossThreadCounts) {
  const RunArtifacts base = run_quickstart(kThreadCounts[0], /*trace=*/false);
  EXPECT_GT(base.completed, 0);
  EXPECT_EQ(base.detsan_violations, 0u);
  for (std::size_t i = 1; i < std::size(kThreadCounts); ++i) {
    const RunArtifacts a = run_quickstart(kThreadCounts[i], /*trace=*/false);
    EXPECT_EQ(a.digest, base.digest) << "N=" << kThreadCounts[i];
    EXPECT_EQ(a.dispatched, base.dispatched) << "N=" << kThreadCounts[i];
    EXPECT_EQ(a.completed, base.completed) << "N=" << kThreadCounts[i];
    EXPECT_EQ(a.user_log, base.user_log) << "N=" << kThreadCounts[i];
    EXPECT_EQ(a.detsan_violations, 0u) << "N=" << kThreadCounts[i];
  }
}

TEST(ParallelDigest, TracerJsonlByteIdenticalAcrossThreadCounts) {
  const RunArtifacts base = run_quickstart(1, /*trace=*/true);
  ASSERT_FALSE(base.trace_jsonl.empty());
  const RunArtifacts wide = run_quickstart(8, /*trace=*/true);
  EXPECT_EQ(wide.trace_jsonl, base.trace_jsonl);
  EXPECT_EQ(wide.digest, base.digest);
}

// The tracer arms the strict (single-threaded, global key order) executor;
// without it the windowed executor runs. Equal digests prove the two
// executors commit the same event stream — the core §15 claim.
TEST(ParallelDigest, StrictExecutorMatchesWindowedExecutor) {
  const RunArtifacts windows = run_quickstart(4, /*trace=*/false);
  const RunArtifacts strict = run_quickstart(4, /*trace=*/true);
  EXPECT_EQ(strict.digest, windows.digest);
  EXPECT_EQ(strict.dispatched, windows.dispatched);
  EXPECT_EQ(strict.user_log, windows.user_log);
}

TEST(ParallelDigest, FaultDrillByteIdenticalAcrossThreadCounts) {
  const RunArtifacts base = run_fault_drill(kThreadCounts[0]);
  EXPECT_EQ(base.detsan_violations, 0u);
  for (std::size_t i = 1; i < std::size(kThreadCounts); ++i) {
    const RunArtifacts a = run_fault_drill(kThreadCounts[i]);
    EXPECT_EQ(a.digest, base.digest) << "N=" << kThreadCounts[i];
    EXPECT_EQ(a.dispatched, base.dispatched) << "N=" << kThreadCounts[i];
    EXPECT_EQ(a.user_log, base.user_log) << "N=" << kThreadCounts[i];
    EXPECT_EQ(a.detsan_violations, 0u) << "N=" << kThreadCounts[i];
  }
}

struct PoolArtifacts {
  std::uint64_t digest = 0;
  std::uint64_t dispatched = 0;
  std::map<std::string, std::uint64_t> matched_by_user;
  std::string job_tables;
  std::size_t completed = 0;
  std::uint64_t sweeps = 0;
  std::uint64_t divergences = 0;
  std::vector<std::string> audit;
  std::size_t detsan_violations = 0;
};

/// The portal_storm shape in miniature: `user_count` users submit four jobs
/// each through one Portal into per-user PoolRunners, whose job ads the
/// delta PoolNegotiator matches against six slots in three site groups,
/// with the sweep auditing every cycle. The user and slot hosts spread over
/// islands, so the negotiator runs next to worker threads. DetSan is armed:
/// a cross-host access to the Collector's or the negotiator's state counts.
PoolArtifacts run_pool_storm(unsigned threads, std::size_t user_count) {
  sim::World::ScopedParallelOverride force(static_cast<int>(threads));
  det::take_violations();
  det::set_enabled(true);
  sim::World world(/*seed=*/2001);
  sim::Host& central = world.add_host("portal.grid");
  cc::Collector collector(central, world.net());
  cc::PoolNegotiatorOptions nopt;
  nopt.cycle_period = 5.0;
  nopt.full_sweep_every = 1;
  nopt.hold_timeout = 60.0;
  cc::PoolNegotiator negotiator(central, world.net(), collector, nopt);
  core::Portal portal(central, world.net());

  struct User {
    std::string name;
    std::unique_ptr<core::Schedd> schedd;
    std::unique_ptr<core::PoolRunner> runner;
    std::unique_ptr<core::PortalClient> client;
  };
  std::vector<User> users(user_count);
  for (std::size_t u = 0; u < users.size(); ++u) {
    User& user = users[u];
    user.name = "u" + std::to_string(u);
    sim::Host& host = world.add_host(user.name + ".grid");
    user.schedd = std::make_unique<core::Schedd>(host);
    core::PoolRunnerOptions ropt;
    ropt.collector = collector.address();
    ropt.advertise_period = 30.0;
    ropt.shadow.poll_interval = 30.0;
    user.runner =
        std::make_unique<core::PoolRunner>(*user.schedd, world.net(), ropt);
    core::PortalClientOptions copt;
    copt.portal = portal.address();
    copt.deliver_to = user.runner->address();
    copt.user = user.name;
    copt.total_jobs = 4;
    copt.batch_size = 2;
    copt.runtime_seconds = 20.0 + 10.0 * static_cast<double>(u % 3);
    copt.requirements =
        "other.SiteGroup == \"g" + std::to_string(u % 2) + "\"";
    user.client =
        std::make_unique<core::PortalClient>(host, world.net(), copt);
  }
  std::vector<std::unique_ptr<cc::Startd>> startds;
  for (int g = 0; g < 3; ++g) {
    for (int n = 0; n < 2; ++n) {
      const std::string node =
          "g" + std::to_string(g) + "-n" + std::to_string(n) + ".grid";
      sim::Host& host = world.add_host(node);
      cc::StartdOptions sopt;
      sopt.collector = collector.address();
      sopt.advertise_period = 30.0;
      sopt.checkpoint_interval = 300.0;
      sopt.base_ad = condorg::classad::parse_ad(
          "[Arch = \"X86_64\"; Memory = 512; SiteGroup = \"g" +
          std::to_string(g) + "\"]");
      startds.push_back(std::make_unique<cc::Startd>(
          host, world.net(), "slot1@" + node, sopt));
    }
  }

  portal.start();
  negotiator.start();
  for (User& user : users) {
    user.runner->start();
    user.client->start();
  }
  world.sim().run_until(3000.0);

  PoolArtifacts out;
  out.digest = world.sim().trace_digest();
  out.dispatched = world.sim().dispatched();
  out.matched_by_user = negotiator.matched_by_user();
  for (const User& user : users) {
    out.completed += user.schedd->count(core::JobStatus::kCompleted);
    for (const auto& [id, job] : user.schedd->jobs()) {
      out.job_tables += user.name + " " + std::to_string(id) + " " +
                        core::to_string(job.status) + " " +
                        std::to_string(job.submit_time) + " " +
                        std::to_string(job.first_execute_time) + " " +
                        std::to_string(job.completion_time) + "\n";
    }
  }
  out.sweeps = negotiator.sweeps();
  out.divergences = negotiator.divergences();
  negotiator.audit(out.audit);
  out.detsan_violations = det::take_violations().size();
  det::set_enabled(false);
  return out;
}

void expect_pool_storm_identical(std::size_t user_count) {
  const PoolArtifacts base = run_pool_storm(kThreadCounts[0], user_count);
  EXPECT_EQ(base.completed, 4 * user_count);  // every job drained
  EXPECT_EQ(base.matched_by_user.size(), user_count);
  EXPECT_GT(base.sweeps, 0u);
  EXPECT_EQ(base.divergences, 0u);
  EXPECT_TRUE(base.audit.empty());
  EXPECT_EQ(base.detsan_violations, 0u);
  for (std::size_t i = 1; i < std::size(kThreadCounts); ++i) {
    const PoolArtifacts a = run_pool_storm(kThreadCounts[i], user_count);
    EXPECT_EQ(a.digest, base.digest) << "N=" << kThreadCounts[i];
    EXPECT_EQ(a.dispatched, base.dispatched) << "N=" << kThreadCounts[i];
    EXPECT_EQ(a.matched_by_user, base.matched_by_user)
        << "N=" << kThreadCounts[i];
    EXPECT_EQ(a.job_tables, base.job_tables) << "N=" << kThreadCounts[i];
    EXPECT_EQ(a.divergences, 0u) << "N=" << kThreadCounts[i];
    EXPECT_TRUE(a.audit.empty()) << "N=" << kThreadCounts[i];
    EXPECT_EQ(a.detsan_violations, 0u) << "N=" << kThreadCounts[i];
  }
}

TEST(ParallelDigest, PoolNegotiatorByteIdenticalAcrossThreadCounts) {
  expect_pool_storm_identical(6);
}

// More user hosts than the metrics registry's 64-series label cap, so most
// Schedds' per-host gauges are past it, and Schedds on different islands
// change job status in the same window. Under TSan this is the race check
// for per-host gauges beyond the cap.
TEST(ParallelDigest, ScheddsPastTheLabelCapByteIdenticalAcrossThreadCounts) {
  expect_pool_storm_identical(72);
}

struct GlideInArtifacts {
  std::uint64_t digest = 0;
  std::uint64_t dispatched = 0;
  std::string job_table;
  std::size_t completed = 0;
  std::uint64_t submitted = 0;
  std::uint64_t started = 0;
  std::uint64_t exited = 0;
  std::size_t live = 0;
  std::size_t evictions = 0;
  std::size_t claims_lost = 0;
  std::size_t detsan_violations = 0;
};

/// The glidein_pool example in miniature: two sites glide Startds in (after
/// fetching the binaries from a repository host), checkpointable vanilla
/// jobs outlive one two-hour allocation and migrate, then idle daemons
/// drain. Manager, node-side starters and Startds sit on different islands.
/// With `crash_cluster`, pbs's cluster host goes down for 60 s mid-job: its
/// restarted starter answers MISSING, and the Shadows there requeue.
GlideInArtifacts run_glidein_pool(unsigned threads,
                                  bool crash_cluster = false) {
  sim::World::ScopedParallelOverride force(static_cast<int>(threads));
  det::take_violations();
  det::set_enabled(true);

  cw::GridTestbed testbed(/*seed=*/99);
  for (const char* name : {"pbs.anl.gov", "condor.wisc.edu"}) {
    cw::SiteSpec spec;
    spec.name = name;
    spec.cpus = 4;
    testbed.add_site(spec);
  }
  testbed.add_submit_host("desktop.wisc.edu");
  condorg::gass::FileService repo(testbed.world().add_host("repo.wisc.edu"),
                                  testbed.world().net(), "gridftp");
  repo.store().put("condor/startd-bundle", "CONDOR-BINARIES", 25 << 20);

  core::CondorGAgent agent(testbed.world(), "desktop.wisc.edu");
  core::GlideInOptions options;
  options.walltime = 2 * 3600.0;
  options.idle_timeout = 1200.0;
  options.checkpoint_interval = 300.0;
  options.tick_interval = 120.0;
  options.binary_repository = repo.address();
  auto& glideins = agent.enable_glideins(options);
  for (std::size_t i = 0; i < testbed.sites().size(); ++i) {
    glideins.add_site(core::GlideInSite{testbed.site(i).spec.name,
                                        testbed.site(i).gatekeeper_address(),
                                        testbed.site(i).cluster, 3, 1});
  }
  agent.start();
  for (int i = 0; i < 8; ++i) {
    core::JobDescription job;
    job.universe = core::Universe::kVanilla;
    job.runtime_seconds = 6000.0 + 300.0 * i;
    agent.submit(job);
  }
  sim::Simulation& s = testbed.world().sim();
  if (crash_cluster) {
    s.run_until(3000.0);
    testbed.site(0).cluster->crash_for(60.0);
  }
  while (!agent.schedd().all_terminal() && testbed.world().now() < 86400.0) {
    s.run_until(testbed.world().now() + 600.0);
  }
  s.run_until(testbed.world().now() + 4 * 3600.0);  // idle daemons drain

  GlideInArtifacts out;
  out.digest = s.trace_digest();
  out.dispatched = s.dispatched();
  for (const auto& [id, job] : agent.schedd().jobs()) {
    if (job.status == core::JobStatus::kCompleted) ++out.completed;
    out.job_table += std::to_string(id) + " " + core::to_string(job.status) +
                     " " + std::to_string(job.submit_time) + " " +
                     std::to_string(job.first_execute_time) + " " +
                     std::to_string(job.completion_time) + "\n";
  }
  out.submitted = glideins.glideins_submitted();
  out.started = glideins.glideins_started();
  out.exited = glideins.glideins_exited();
  out.live = glideins.live_glideins();
  out.evictions = agent.log().count(core::LogEventKind::kEvicted);
  for (const auto& event : agent.log().events()) {
    if (event.kind == core::LogEventKind::kEvicted &&
        event.detail == "claim lost") {
      ++out.claims_lost;
    }
  }
  out.detsan_violations = det::take_violations().size();
  det::set_enabled(false);
  return out;
}

TEST(ParallelDigest, GlideInByteIdenticalAcrossThreadCounts) {
  const GlideInArtifacts base = run_glidein_pool(kThreadCounts[0]);
  EXPECT_EQ(base.completed, 8u);
  EXPECT_GE(base.started, 1u);
  EXPECT_EQ(base.exited, base.started);
  EXPECT_EQ(base.live, 0u);
  EXPECT_GE(base.evictions, 1u);  // allocations expired mid-job
  EXPECT_EQ(base.detsan_violations, 0u);
  for (std::size_t i = 1; i < std::size(kThreadCounts); ++i) {
    const GlideInArtifacts a = run_glidein_pool(kThreadCounts[i]);
    EXPECT_EQ(a.digest, base.digest) << "N=" << kThreadCounts[i];
    EXPECT_EQ(a.dispatched, base.dispatched) << "N=" << kThreadCounts[i];
    EXPECT_EQ(a.job_table, base.job_table) << "N=" << kThreadCounts[i];
    EXPECT_EQ(a.submitted, base.submitted) << "N=" << kThreadCounts[i];
    EXPECT_EQ(a.started, base.started) << "N=" << kThreadCounts[i];
    EXPECT_EQ(a.exited, base.exited) << "N=" << kThreadCounts[i];
    EXPECT_EQ(a.live, base.live) << "N=" << kThreadCounts[i];
    EXPECT_EQ(a.evictions, base.evictions) << "N=" << kThreadCounts[i];
    EXPECT_EQ(a.detsan_violations, 0u) << "N=" << kThreadCounts[i];
  }
}

TEST(ParallelDigest, GlideInClusterCrashByteIdenticalAcrossThreadCounts) {
  const GlideInArtifacts base = run_glidein_pool(kThreadCounts[0], true);
  EXPECT_EQ(base.completed, 8u);
  EXPECT_GE(base.claims_lost, 1u);  // the restarted starter said MISSING
  EXPECT_EQ(base.detsan_violations, 0u);
  for (std::size_t i = 1; i < std::size(kThreadCounts); ++i) {
    const GlideInArtifacts a = run_glidein_pool(kThreadCounts[i], true);
    EXPECT_EQ(a.digest, base.digest) << "N=" << kThreadCounts[i];
    EXPECT_EQ(a.dispatched, base.dispatched) << "N=" << kThreadCounts[i];
    EXPECT_EQ(a.job_table, base.job_table) << "N=" << kThreadCounts[i];
    EXPECT_EQ(a.claims_lost, base.claims_lost) << "N=" << kThreadCounts[i];
    EXPECT_EQ(a.detsan_violations, 0u) << "N=" << kThreadCounts[i];
  }
}

// Lineage, pinned: each runner above at one worker, against a checked-in
// table of kernel digest and dispatched-event count. The tests above
// compare worker counts with each other, so a change that moves every
// count alike passes them; it fails this one. A change meant to move
// lineage re-records the table and says so in CHANGES.md. At 48 users on
// six slots, starvation promotion shapes the fair-share order.
struct PinnedLineage {
  const char* run;
  std::uint64_t digest;
  std::uint64_t dispatched;
};

constexpr PinnedLineage kPinnedLineage[] = {
    {"quickstart", 0x2ce2908b2ff33c38ull, 348},
    {"fault_drill", 0x1324d72ea6e0c3c3ull, 420},
    {"pool_storm/6", 0xa9363ec4de522b03ull, 5867},
    {"pool_storm/48", 0x42be55d88c4e851bull, 15442},
    {"glidein_pool", 0x4b3ce9a47935fde8ull, 3365},
    {"glidein_pool/cluster_crash", 0x103ff02794e1ae5bull, 3638},
};

TEST(ParallelDigest, PinnedLineageAtOneWorker) {
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> measured;
  const RunArtifacts quickstart = run_quickstart(1, /*trace=*/false);
  measured["quickstart"] = {quickstart.digest, quickstart.dispatched};
  const RunArtifacts drill = run_fault_drill(1);
  measured["fault_drill"] = {drill.digest, drill.dispatched};
  const PoolArtifacts pool = run_pool_storm(1, 6);
  measured["pool_storm/6"] = {pool.digest, pool.dispatched};
  const PoolArtifacts many = run_pool_storm(1, 48);
  measured["pool_storm/48"] = {many.digest, many.dispatched};
  const GlideInArtifacts glidein = run_glidein_pool(1);
  measured["glidein_pool"] = {glidein.digest, glidein.dispatched};
  const GlideInArtifacts crash = run_glidein_pool(1, /*crash_cluster=*/true);
  measured["glidein_pool/cluster_crash"] = {crash.digest, crash.dispatched};
  for (const PinnedLineage& pinned : kPinnedLineage) {
    const auto [digest, dispatched] = measured.at(pinned.run);
    EXPECT_EQ(digest, pinned.digest)
        << pinned.run << ": digest 0x" << std::hex << digest;
    EXPECT_EQ(dispatched, pinned.dispatched) << pinned.run;
  }
}

struct IdleArtifacts {
  std::uint64_t digest = 0;
  std::uint64_t dispatched = 0;
  std::string outcome;
};

/// Two chatty hosts beside 240 idle ones, each idle host holding one
/// far-future timer, so a window has work on a few islands out of hundreds
/// and the kernel's front index decides which. The run drives every path
/// that changes an island's front from outside its own window: a control
/// event posts onto an idle host and cancels an event there (and the front
/// event of another idle host, due before the run ends, so only the cancel
/// can move that island's key), a control event schedules onto the control
/// queue, a message lands on a host idle since the start, a control event
/// adds a host, and a delivery handler calls stop().
IdleArtifacts run_idle_hosts(unsigned threads, bool strict) {
  sim::World::ScopedParallelOverride force(static_cast<int>(threads));
  sim::World world(/*seed=*/1818);
  sim::Simulation& s = world.sim();
  if (strict) s.tracer().set_enabled(true);  // arms the strict executor

  constexpr int kIdle = 240;
  constexpr std::int64_t kPokeHop = 110;  // about t = 7 s
  constexpr std::int64_t kStopHop = 150;  // about t = 9 s
  constexpr std::int64_t kLastHop = 400;
  // One note per host (idle hosts first, then chat0, chat1, late), each
  // written only by that host's events; `control` only by control events.
  std::vector<std::string> notes(kIdle + 3);
  std::string control;
  const auto at = [&s] { return std::to_string(s.now()); };
  const auto send = [&world](sim::Host& from, const std::string& to,
                             const std::string& service, std::int64_t hop) {
    sim::Message m;
    m.from = sim::Address{from.name(), service};
    m.to = sim::Address{to, service};
    m.type = service;
    m.body.set_int("hop", hop);
    world.net().send(std::move(m));
  };

  std::vector<sim::Host*> idle;
  std::vector<sim::EventId> timers;
  for (int i = 0; i < kIdle; ++i) {
    sim::Host& host = world.add_host("idle" + std::to_string(i) + ".example");
    idle.push_back(&host);
    std::string& note = notes[static_cast<std::size_t>(i)];
    host.register_service("poke", [&note, at](const sim::Message& m) {
      note += "poke" + m.body.get("hop") + "@" + at() + " ";
    });
    timers.push_back(host.post(5000.0 + i, [&note, at] {
      note += "timer@" + at() + " ";
    }));
  }
  const sim::EventId soon = idle[12]->post(5.0, [&note = notes[12], at] {
    note += "soon@" + at() + " ";
  });
  sim::Host& chat0 = world.add_host("chat0.example");
  sim::Host& chat1 = world.add_host("chat1.example");
  const auto echo = [&](sim::Host* self, std::string peer, std::string* note) {
    self->register_service("echo", [&, self, peer, note](const sim::Message& m) {
      const std::int64_t hop = m.body.get_int("hop");
      *note += std::to_string(hop) + "@" + at() + " ";
      if (hop == kPokeHop) send(*self, "idle7.example", "poke", hop);
      if (hop == kStopHop) s.stop();
      if (hop < kLastHop) send(*self, peer, "echo", hop + 1);
    });
    self->register_service("sink", [note, at](const sim::Message&) {
      *note += "sink@" + at() + " ";
    });
  };
  echo(&chat0, "chat1.example", &notes[kIdle]);
  echo(&chat1, "chat0.example", &notes[kIdle + 1]);
  // chat1 also ticks on its own, so the window a stop ends in has work on
  // another island to finish.
  int ticks = 0;
  std::function<void()> tick = [&] {
    ++ticks;
    if (s.now() < 30.0) chat1.post(0.02, tick);
  };
  chat1.post(0.02, tick);

  s.schedule_at(1.0, [&] { send(chat0, "chat1.example", "echo", 1); });
  s.schedule_at(3.0, [&] {
    idle[11]->post(0.25, [&note = notes[11], at] {
      note += "posted@" + at() + " ";
    });
    control += "cancel=" + std::to_string(s.cancel(timers[11])) + " ";
    control += "cancel=" + std::to_string(s.cancel(soon)) + " ";
  });
  s.schedule_at(4.0, [&] {
    s.schedule_at(4.5, [&] { control += "control@" + at() + " "; });
  });
  s.schedule_at(7.0, [&] {
    sim::Host* late = &world.add_host("late.example");
    late->post(0.5, [&, late] {
      notes[kIdle + 2] += "late@" + at() + " ";
      send(*late, "chat1.example", "sink", 0);
    });
  });

  s.run_until(2.0);
  s.run();  // returns at the stop
  control += "stopped@" + at() + " ticks=" + std::to_string(ticks) + " ";
  s.run_until(40.0);
  s.run();  // drains every idle timer

  IdleArtifacts out;
  out.digest = s.trace_digest();
  out.dispatched = s.dispatched();
  out.outcome = control + "ticks=" + std::to_string(ticks) + "\n";
  for (const std::string& note : notes) out.outcome += note + "\n";
  return out;
}

TEST(ParallelDigest, IdleIslandsByteIdenticalAcrossThreadCounts) {
  const IdleArtifacts strict = run_idle_hosts(4, /*strict=*/true);
  const std::string& o = strict.outcome;
  EXPECT_NE(o.find("cancel=1 cancel=1 "), std::string::npos);
  EXPECT_EQ(o.find("soon@"), std::string::npos);
  EXPECT_NE(o.find("posted@3.250000 "), std::string::npos);
  EXPECT_NE(o.find("control@4.500000 "), std::string::npos);
  EXPECT_NE(o.find("poke110@"), std::string::npos);
  EXPECT_NE(o.find("late@7.500000 "), std::string::npos);
  EXPECT_NE(o.find("sink@"), std::string::npos);
  EXPECT_NE(o.find("400@"), std::string::npos);  // the chatter ran out
  EXPECT_NE(o.find("stopped@9."), std::string::npos);
  std::size_t fired = 0;
  for (std::size_t p = o.find("timer@"); p != std::string::npos;
       p = o.find("timer@", p + 1)) {
    ++fired;
  }
  EXPECT_EQ(fired, 239u);  // every idle timer but idle11's
  for (const unsigned n : kThreadCounts) {
    const IdleArtifacts a = run_idle_hosts(n, /*strict=*/false);
    EXPECT_EQ(a.digest, strict.digest) << "N=" << n;
    EXPECT_EQ(a.dispatched, strict.dispatched) << "N=" << n;
    EXPECT_EQ(a.outcome, strict.outcome) << "N=" << n;
  }
}

struct ExploreArtifacts {
  std::size_t runs = 0;
  std::size_t distinct = 0;
  bool violation_found = false;
  std::string counterexample;
  std::vector<std::string> violations;
  std::uint64_t replay_digest = 0;
};

/// Explore the mutated quickstart scenario (broken gatekeeper dedup) under
/// an ambient CONDORG_PARALLEL override, then replay the counterexample.
/// A controller serializes execution whatever the worker budget, so
/// nothing here may vary with `threads`.
ExploreArtifacts explore_mutated_quickstart(unsigned threads) {
  sim::World::ScopedParallelOverride ambient(static_cast<int>(threads));
  ::setenv("CONDORG_MUTATE_DEDUP", "1", 1);
  sim::Explorer::Config config;
  config.oracle.max_choice_points = 12;
  config.max_schedules = 400;
  sim::Explorer explorer("quickstart",
                         cw::make_explore_scenario("quickstart"), config);
  const sim::Explorer::Result result = explorer.explore();
  ExploreArtifacts out;
  out.runs = result.runs;
  out.distinct = result.distinct_schedules;
  out.violation_found = result.violation_found;
  out.violations = result.violations;
  if (result.violation_found) {
    out.counterexample = result.counterexample.serialize();
    out.replay_digest = explorer.replay(result.counterexample).trace_digest;
  }
  ::unsetenv("CONDORG_MUTATE_DEDUP");
  return out;
}

TEST(ParallelDigest, ExplorerCounterexampleStableUnderParallelEnv) {
  const ExploreArtifacts base = explore_mutated_quickstart(1);
  ASSERT_TRUE(base.violation_found);
  const ExploreArtifacts wide = explore_mutated_quickstart(8);
  EXPECT_EQ(wide.runs, base.runs);
  EXPECT_EQ(wide.distinct, base.distinct);
  EXPECT_EQ(wide.counterexample, base.counterexample);
  EXPECT_EQ(wide.violations, base.violations);
  EXPECT_EQ(wide.replay_digest, base.replay_digest);
}

}  // namespace
