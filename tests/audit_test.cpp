// Invariant auditor over live campaigns: the standard check set must stay
// silent through a healthy run, through the §4.2 failure drills, and through
// a credential expiry cycle — and must fire when state is deliberately
// corrupted. Also pins the kernel's determinism self-check: one seed, one
// event-trace digest.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "condorg/core/agent.h"
#include "condorg/core/audit.h"
#include "condorg/core/broker.h"
#include "condorg/gsi/credential.h"
#include "condorg/sim/tracer.h"
#include "condorg/util/rng.h"
#include "condorg/workloads/grid_builder.h"

namespace core = condorg::core;
namespace cw = condorg::workloads;
namespace cs = condorg::sim;
namespace gsi = condorg::gsi;

namespace {

/// Two-site grid + one agent with a StandardAuditor attached to everything,
/// auditing every 32 dispatched events.
struct AuditedCampaign {
  explicit AuditedCampaign(std::uint64_t seed) : testbed(seed) {
    cw::SiteSpec pbs;
    pbs.name = "pbs.anl.gov";
    pbs.kind = cw::SiteKind::kPbs;
    pbs.cpus = 8;
    testbed.add_site(pbs);
    cw::SiteSpec lsf;
    lsf.name = "lsf.ncsa.edu";
    lsf.kind = cw::SiteKind::kLsf;
    lsf.cpus = 8;
    testbed.add_site(lsf);
    testbed.add_submit_host("submit.wisc.edu");
    agent = std::make_unique<core::CondorGAgent>(testbed.world(),
                                                 "submit.wisc.edu");
    agent->set_site_chooser(core::make_static_chooser(testbed.gatekeepers()));
    agent->start();
    auditor = std::make_unique<core::StandardAuditor>(testbed.world().sim(),
                                                      /*period=*/32);
    auditor->attach_agent(*agent);
    for (const auto& site : testbed.sites()) {
      auditor->attach_gatekeeper(*site->gatekeeper);
    }
  }

  core::JobDescription grid_job(double runtime = 300.0) {
    core::JobDescription desc;
    desc.universe = core::Universe::kGrid;
    desc.runtime_seconds = runtime;
    desc.output_size = 2048;
    return desc;
  }

  void run_to_completion(double deadline) {
    while (!agent->schedd().all_terminal() &&
           testbed.world().now() < deadline) {
      if (!testbed.world().sim().run_until(testbed.world().now() + 50.0)) {
        break;
      }
    }
  }

  cw::GridTestbed testbed;
  std::unique_ptr<core::CondorGAgent> agent;
  std::unique_ptr<core::StandardAuditor> auditor;
};

}  // namespace

TEST(StandardAuditor, SilentOnHealthyCampaign) {
  AuditedCampaign rig(42);
  for (int i = 0; i < 12; ++i) rig.agent->submit(rig.grid_job(600.0 + 30 * i));
  rig.run_to_completion(86400.0);
  EXPECT_TRUE(rig.agent->schedd().all_terminal());
  EXPECT_GT(rig.auditor->auditor().audits_run(), 0u);
  EXPECT_TRUE(rig.auditor->ok()) << rig.auditor->report();
}

TEST(StandardAuditor, SilentThroughFaultDrill) {
  AuditedCampaign rig(7);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 12; ++i) {
    ids.push_back(rig.agent->submit(rig.grid_job(2 * 3600.0)));
  }
  auto& world = rig.testbed.world();
  world.sim().run_until(1800.0);

  // F1: kill every JobManager process at site 0.
  for (const auto& [id, job] : rig.agent->schedd().jobs()) {
    if (job.gram_site == "pbs.anl.gov" && !job.gram_contact.empty()) {
      rig.testbed.site(0).gatekeeper->kill_jobmanager(job.gram_contact);
    }
  }
  world.sim().run_until(3600.0);
  // F2: crash the other site's front-end.
  rig.testbed.site(1).frontend->crash_for(1200.0);
  world.sim().run_until(6000.0);
  // F4: partition the submit machine from site 0.
  world.net().set_partitioned("submit.wisc.edu", "pbs.anl.gov", true);
  world.sim().schedule_at(world.now() + 900.0, [&world] {
    world.net().set_partitioned("submit.wisc.edu", "pbs.anl.gov", false);
  });
  world.sim().run_until(8000.0);
  // F3: crash the submit machine itself.
  rig.agent->host().crash_for(600.0);

  rig.run_to_completion(4 * 86400.0);
  EXPECT_TRUE(rig.agent->schedd().all_terminal());
  for (const auto id : ids) {
    EXPECT_EQ(rig.agent->query(id)->status, core::JobStatus::kCompleted);
  }
  EXPECT_TRUE(rig.auditor->ok()) << rig.auditor->report();
}

TEST(StandardAuditor, SilentThroughCredentialExpiry) {
  AuditedCampaign rig(99);
  gsi::Pki pki((condorg::util::Rng(9)));
  gsi::CertificateAuthority ca(pki, "/CN=CA");
  const gsi::Credential user =
      ca.issue(pki, "/O=UW/CN=jfrey", 0.0, 30 * 86400.0);
  rig.agent->credentials().set_credential(user.delegate(pki, 0.0, 3600.0));
  for (int i = 0; i < 6; ++i) {
    rig.agent->submit(rig.grid_job(3 * 3600.0));
  }
  // Proxy (1h) dies long before the jobs (3h): the manager must hold every
  // grid job, and held jobs satisfy the expired-proxy invariant.
  auto& world = rig.testbed.world();
  world.sim().run_until(4 * 3600.0);
  EXPECT_GE(rig.agent->credentials().holds_issued(), 1u);
  EXPECT_TRUE(rig.auditor->ok()) << rig.auditor->report();
  // The user reappears with a fresh proxy; the campaign finishes audited.
  rig.agent->credentials().set_credential(
      user.delegate(pki, world.now(), 86400.0));
  rig.run_to_completion(3 * 86400.0);
  EXPECT_TRUE(rig.agent->schedd().all_terminal());
  EXPECT_TRUE(rig.auditor->ok()) << rig.auditor->report();
}

// attach_agent covers the personal pool too: the negotiator's periodic
// sweep re-runs its restricted match pass unrestricted, and a disagreement
// would be a violation. The glide-in site's Gatekeeper is audited as well:
// four glide-ins share it, and each must count as its own job.
TEST(StandardAuditor, SilentThroughGlideInPool) {
  cw::GridTestbed testbed(17);
  cw::SiteSpec site;
  site.name = "pool.wisc.edu";
  site.cpus = 4;
  testbed.add_site(site);
  testbed.add_submit_host("submit.wisc.edu");
  core::CondorGAgent agent(testbed.world(), "submit.wisc.edu");
  core::GlideInOptions glidein;
  glidein.tick_interval = 60.0;
  agent.enable_glideins(glidein).add_site(core::GlideInSite{
      "pool.wisc.edu", testbed.site(0).gatekeeper_address(),
      testbed.site(0).cluster, 4, 1});
  agent.start();
  core::StandardAuditor auditor(testbed.world().sim(), /*period=*/32);
  auditor.attach_agent(agent);
  auditor.attach_gatekeeper(*testbed.site(0).gatekeeper);
  for (int i = 0; i < 12; ++i) {
    core::JobDescription desc;
    desc.universe = core::Universe::kVanilla;
    desc.runtime_seconds = 1800.0;
    agent.submit(desc);
  }
  cs::Simulation& sim = testbed.world().sim();
  while (!agent.schedd().all_terminal() && sim.now() < 86400.0) {
    sim.run_until(sim.now() + 60.0);
  }
  EXPECT_TRUE(agent.schedd().all_terminal());
  EXPECT_EQ(agent.schedd().count(core::JobStatus::kCompleted), 12u);
  EXPECT_TRUE(auditor.ok()) << auditor.report();
  EXPECT_GT(agent.vanilla().negotiator().sweeps(), 0u);
  EXPECT_EQ(agent.vanilla().negotiator().divergences(), 0u);
}

TEST(StandardAuditor, FiresOnCorruptedHoldReason) {
  cs::World world;
  cs::Host& host = world.add_host("submit");
  core::Schedd schedd(host);
  core::StandardAuditor auditor(world.sim(), /*period=*/1);
  auditor.attach_schedd(schedd);
  const auto id = schedd.submit(core::JobDescription{});
  schedd.hold(id, "some reason");
  // Corrupt the queue: a held job must always carry its reason.
  schedd.with_job(id, [](core::Job& job) { job.hold_reason.clear(); });
  world.sim().schedule_at(1.0, [] {});
  world.sim().run();
  EXPECT_FALSE(auditor.ok());
  EXPECT_NE(auditor.report().find("held with no reason"), std::string::npos);
}

TEST(StandardAuditor, FiresOnNonMonotonicSequenceNumber) {
  AuditedCampaign rig(5);
  const auto id = rig.agent->submit(rig.grid_job(3600.0));
  auto& world = rig.testbed.world();
  while (rig.agent->query(id)->gram_seq == 0 && world.now() < 3600.0) {
    world.sim().run_until(world.now() + 50.0);
  }
  ASSERT_NE(rig.agent->query(id)->gram_seq, 0u);
  // Corrupt the queue: a sequence number the client allocator never issued.
  rig.agent->schedd().with_job(
      id, [](core::Job& job) { job.gram_seq = 999999; });
  // The auditor runs every 32 dispatched events; running to the job's
  // completion guarantees a pass after the corruption.
  rig.run_to_completion(86400.0);
  ASSERT_EQ(rig.agent->query(id)->status, core::JobStatus::kCompleted);
  EXPECT_FALSE(rig.auditor->ok());
  EXPECT_NE(rig.auditor->report().find("allocator"), std::string::npos);
}

TEST(StandardAuditor, TraceRootsSilentOnTracedCampaign) {
  AuditedCampaign rig(41);
  rig.testbed.world().sim().tracer().set_enabled(true);
  for (int i = 0; i < 8; ++i) rig.agent->submit(rig.grid_job(600.0 + 45 * i));
  rig.run_to_completion(86400.0);
  EXPECT_TRUE(rig.agent->schedd().all_terminal());
  EXPECT_TRUE(rig.auditor->ok()) << rig.auditor->report();
  // Every root the campaign opened is closed exactly once.
  for (const auto& [host, job_id, state] :
       rig.testbed.world().sim().tracer().root_states()) {
    EXPECT_EQ(state, cs::Tracer::RootState::kClosed)
        << "job " << job_id << " on " << host;
  }
}

TEST(StandardAuditor, FiresOnOrphanRootSpan) {
  cs::World world;
  cs::Host& host = world.add_host("submit");
  world.sim().tracer().set_enabled(true);
  core::Schedd schedd(host);
  core::StandardAuditor auditor(world.sim(), /*period=*/1);
  auditor.attach_schedd(schedd);
  schedd.submit(core::JobDescription{});
  // A root span for a job the Schedd has never heard of.
  world.sim().tracer().begin_job(999, "submit", host.epoch());
  world.sim().schedule_at(1.0, [] {});
  world.sim().run();
  EXPECT_FALSE(auditor.ok());
  EXPECT_NE(auditor.report().find("orphan root span"), std::string::npos);
}

TEST(StandardAuditor, FiresOnDuplicatedRootSpan) {
  cs::World world;
  cs::Host& host = world.add_host("submit");
  world.sim().tracer().set_enabled(true);
  core::Schedd schedd(host);
  core::StandardAuditor auditor(world.sim(), /*period=*/1);
  auditor.attach_schedd(schedd);
  const auto id = schedd.submit(core::JobDescription{});
  // Corrupt the trace: a second begin for an id that already has a root.
  world.sim().tracer().begin_job(id, "submit", host.epoch());
  world.sim().schedule_at(1.0, [] {});
  world.sim().run();
  EXPECT_FALSE(auditor.ok());
  EXPECT_NE(auditor.report().find("duplicated root span"), std::string::npos);
}

// ---------- determinism self-check ----------

namespace {

std::uint64_t campaign_digest(std::uint64_t seed) {
  AuditedCampaign rig(seed);
  for (int i = 0; i < 8; ++i) rig.agent->submit(rig.grid_job(900.0 + 60 * i));
  rig.run_to_completion(86400.0);
  EXPECT_TRUE(rig.agent->schedd().all_terminal());
  EXPECT_TRUE(rig.auditor->ok()) << rig.auditor->report();
  return rig.testbed.world().sim().trace_digest();
}

}  // namespace

TEST(Determinism, SameSeedSameTraceDigest) {
  const std::uint64_t first = campaign_digest(2001);
  const std::uint64_t second = campaign_digest(2001);
  EXPECT_EQ(first, second);
  EXPECT_NE(first, campaign_digest(2002));
}
