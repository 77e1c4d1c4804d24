#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "condorg/core/agent.h"
#include "condorg/core/broker.h"
#include "condorg/gsi/myproxy.h"
#include "condorg/util/strings.h"
#include "condorg/workloads/grid_builder.h"

namespace core = condorg::core;
namespace cw = condorg::workloads;
namespace cs = condorg::sim;
namespace gsi = condorg::gsi;

namespace {

/// Two-site grid + one agent, the standard rig for these tests.
struct AgentFixture : public ::testing::Test {
  AgentFixture() : testbed(42) {
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
  }

  core::JobDescription grid_job(double runtime = 300.0) {
    core::JobDescription desc;
    desc.universe = core::Universe::kGrid;
    desc.runtime_seconds = runtime;
    desc.output_size = 2048;
    return desc;
  }

  /// Run until all queue entries are terminal or sim time passes deadline.
  void run_to_completion(double deadline) {
    while (!agent->schedd().all_terminal() &&
           testbed.world().now() < deadline) {
      if (!testbed.world().sim().run_until(testbed.world().now() + 50.0)) {
        break;
      }
    }
  }

  /// Submits one brokered job while submit.wisc.edu <-> pbs.anl.gov is
  /// partitioned, so its first submit allocates a persisted seq that never
  /// reaches pbs. The submit host crashes at 100 s and restarts at 200 s,
  /// when recovery re-drives that seq one second later; the partition
  /// heals at 300 s. Returns with the clock at 200.5 s.
  std::uint64_t submit_across_reboot() {
    cs::Simulation& sim = testbed.world().sim();
    cs::Network& net = testbed.world().net();
    net.set_partitioned("submit.wisc.edu", "pbs.anl.gov", true);
    const auto id = agent->submit(grid_job());
    sim.run_until(100.0);
    const auto job = agent->query(id);
    EXPECT_NE(job->gram_seq, 0u);
    EXPECT_EQ(job->gram_site, "pbs.anl.gov");
    EXPECT_TRUE(job->gram_contact.empty());
    agent->host().crash();
    sim.schedule_at(200.0, [this] { agent->host().restart(); });
    sim.schedule_at(300.0, [&net] {
      net.set_partitioned("submit.wisc.edu", "pbs.anl.gov", false);
    });
    sim.run_until(200.5);
    return id;
  }

  /// Rebuilds pbs's Gatekeeper, before it sees any traffic, to require
  /// GSI: it trusts `ca` and maps only /O=UW/CN=jfrey.
  void require_gsi_at_pbs(const gsi::Pki& pki,
                          const gsi::CertificateAuthority& ca) {
    cw::Site& pbs = testbed.site(0);
    condorg::gram::GatekeeperOptions options = pbs.gatekeeper->options();
    options.auth.pki = &pki;
    options.auth.anchors[ca.name()] = ca.public_key();
    options.auth.gridmap.add("/O=UW/CN=jfrey", "jfrey");
    options.auth.require_auth = true;
    pbs.gatekeeper.reset();  // unregister before the replacement registers
    pbs.gatekeeper = std::make_unique<condorg::gram::Gatekeeper>(
        *pbs.frontend, testbed.world().net(), *pbs.scheduler, options);
  }

  std::size_t total_site_executions() const {
    std::size_t n = 0;
    for (const auto& site : testbed.sites()) {
      for (const auto& record : site->scheduler->history()) {
        if (record.state == condorg::batch::JobState::kCompleted) ++n;
      }
    }
    return n;
  }

  cw::GridTestbed testbed;
  std::unique_ptr<core::CondorGAgent> agent;
};

}  // namespace

// ---------- Schedd ----------

TEST(Schedd, SubmitQueryAndLog) {
  cs::World world;
  cs::Host& host = world.add_host("submit");
  core::Schedd schedd(host);
  core::JobDescription desc;
  desc.owner = "miron";
  const auto id = schedd.submit(desc);
  ASSERT_TRUE(schedd.query(id).has_value());
  EXPECT_EQ(schedd.query(id)->status, core::JobStatus::kIdle);
  EXPECT_EQ(schedd.query(id)->desc.owner, "miron");
  EXPECT_EQ(schedd.log().count(core::LogEventKind::kSubmit), 1u);
  EXPECT_FALSE(schedd.query(999).has_value());
}

TEST(Schedd, QueueSurvivesCrash) {
  cs::World world;
  cs::Host& host = world.add_host("submit");
  core::Schedd schedd(host);
  const auto id = schedd.submit({});
  schedd.mark_grid_submitted(id, 7, "site", "site:1");
  host.crash();
  host.restart();
  const auto job = schedd.query(id);
  ASSERT_TRUE(job);
  EXPECT_EQ(job->gram_seq, 7u);
  EXPECT_EQ(job->gram_contact, "site:1");
  EXPECT_EQ(job->status, core::JobStatus::kRunning);
  // Fresh submissions after recovery get new ids (persisted counter).
  EXPECT_GT(schedd.submit({}), id);
}

namespace {

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

void expect_same_job(const core::Job& back, const core::Job& job) {
  EXPECT_EQ(back.id, job.id);
  EXPECT_EQ(back.desc.universe, job.desc.universe);
  EXPECT_EQ(back.desc.owner, job.desc.owner);
  EXPECT_EQ(back.desc.executable, job.desc.executable);
  EXPECT_EQ(back.desc.output, job.desc.output);
  EXPECT_EQ(bits(back.desc.runtime_seconds), bits(job.desc.runtime_seconds));
  EXPECT_EQ(back.desc.cpus, job.desc.cpus);
  EXPECT_EQ(bits(back.desc.walltime_limit), bits(job.desc.walltime_limit));
  EXPECT_EQ(back.desc.output_size, job.desc.output_size);
  EXPECT_EQ(back.desc.executable_size, job.desc.executable_size);
  EXPECT_EQ(back.desc.grid_site, job.desc.grid_site);
  EXPECT_EQ(back.desc.ad.unparse(), job.desc.ad.unparse());
  EXPECT_EQ(back.desc.max_attempts, job.desc.max_attempts);
  EXPECT_EQ(back.desc.notify_email, job.desc.notify_email);
  EXPECT_EQ(back.desc.tag, job.desc.tag);
  EXPECT_EQ(back.status, job.status);
  EXPECT_EQ(back.hold_reason, job.hold_reason);
  EXPECT_EQ(back.attempts, job.attempts);
  EXPECT_EQ(back.gram_seq, job.gram_seq);
  EXPECT_EQ(back.gram_contact, job.gram_contact);
  EXPECT_EQ(back.gram_site, job.gram_site);
  EXPECT_EQ(back.remote_state, job.remote_state);
  EXPECT_EQ(bits(back.checkpointed_work), bits(job.checkpointed_work));
  EXPECT_EQ(bits(back.submit_time), bits(job.submit_time));
  EXPECT_EQ(bits(back.first_execute_time), bits(job.first_execute_time));
  EXPECT_EQ(bits(back.completion_time), bits(job.completion_time));
}

}  // namespace

// A job's description record is written once, at submit, and its state
// record on every transition. After each transition a crash must rebuild
// the job exactly as it was, doubles to the bit.
TEST(Schedd, EveryTransitionSurvivesCrashFieldByField) {
  cs::World world;
  cs::Host& host = world.add_host("submit");
  core::Schedd schedd(host);
  world.sim().run_until(0.1);
  core::JobDescription desc;
  desc.owner = "miron";
  desc.executable = "worker";
  desc.output = "out/worker.out";
  desc.runtime_seconds = 1000.0 / 3.0;
  desc.walltime_limit = 7200.125;
  desc.cpus = 3;
  desc.output_size = 4096;
  desc.executable_size = 5000;
  desc.grid_site = "pbs.anl.gov";
  desc.ad.insert_expr("Requirements",
                      "other.Memory > 64 && other.Arch == \"X86_64\"");
  desc.ad.insert_real("Weight", 0.1);
  desc.max_attempts = 4;
  desc.notify_email = false;
  desc.tag = "unit-9";
  const auto id = schedd.submit(desc);

  int step = 0;
  const auto crash_and_compare = [&] {
    SCOPED_TRACE("after step " + std::to_string(++step));
    const core::Job before = *schedd.find(id);
    host.crash();
    host.restart();
    ASSERT_NE(schedd.find(id), nullptr);
    expect_same_job(*schedd.find(id), before);
    // Two records per job, plus the id allocator.
    EXPECT_EQ(host.disk().keys_with_prefix("schedd/").size(), 3u);
    world.sim().run_until(world.now() + 10.0 / 3.0);
  };
  crash_and_compare();  // submitted
  schedd.mark_grid_submitted(id, 17, "pbs.anl.gov", "pbs.anl.gov:3");
  crash_and_compare();
  schedd.mark_executing(id, "pbs.anl.gov");
  crash_and_compare();
  ASSERT_TRUE(schedd.hold(id, "credential expired or expiring"));
  crash_and_compare();
  ASSERT_TRUE(schedd.release(id));
  crash_and_compare();
  schedd.mark_evicted(id, 2000.0 / 7.0, "claim lost");
  crash_and_compare();
  schedd.mark_idle_again(id, core::LogEventKind::kResubmitted, "site down");
  crash_and_compare();
  schedd.mark_completed(id);
  crash_and_compare();
  const core::Job done = *schedd.find(id);
  EXPECT_EQ(done.status, core::JobStatus::kCompleted);
  EXPECT_EQ(done.attempts, 1);
  EXPECT_EQ(bits(done.checkpointed_work), bits(2000.0 / 7.0));
  EXPECT_GT(done.first_execute_time, done.submit_time);
  EXPECT_GT(done.completion_time, done.first_execute_time);
}

// Per-host Schedd gauges stay host-owned: past the registry's label cap a
// host gets no series, never the family's shared `other` gauge, which
// Schedds on different islands would write unsynchronized.
TEST(Schedd, GaugesPastTheLabelCapMintNoOtherSeries) {
  cs::World world;
  std::vector<std::unique_ptr<core::Schedd>> schedds;
  for (int i = 0; i < 70; ++i) {
    schedds.push_back(std::make_unique<core::Schedd>(
        world.add_host("submit" + std::to_string(i))));
    schedds.back()->submit({});
  }
  const auto& metrics = world.sim().metrics();
  EXPECT_NE(metrics.find_gauge("schedd_index_size{host=submit0}"), nullptr);
  EXPECT_EQ(metrics.find_gauge("schedd_index_size{host=other}"), nullptr);
  EXPECT_EQ(metrics.find_gauge("schedd.queue_depth{host=other,status=other}"),
            nullptr);
}

TEST(Schedd, HoldReleaseRemoveLifecycle) {
  cs::World world;
  core::Schedd schedd(world.add_host("submit"));
  const auto id = schedd.submit({});
  EXPECT_TRUE(schedd.hold(id, "why"));
  EXPECT_EQ(schedd.query(id)->status, core::JobStatus::kHeld);
  EXPECT_EQ(schedd.query(id)->hold_reason, "why");
  EXPECT_FALSE(schedd.release(999));
  EXPECT_TRUE(schedd.release(id));
  EXPECT_EQ(schedd.query(id)->status, core::JobStatus::kIdle);
  EXPECT_TRUE(schedd.remove(id));
  EXPECT_EQ(schedd.query(id)->status, core::JobStatus::kRemoved);
  EXPECT_FALSE(schedd.remove(id));  // already removed
  EXPECT_TRUE(schedd.all_terminal());
}

TEST(Schedd, CompletionSendsEmail) {
  cs::World world;
  core::Schedd schedd(world.add_host("submit"));
  core::JobDescription desc;
  desc.notify_email = true;
  const auto id = schedd.submit(desc);
  schedd.mark_completed(id);
  ASSERT_EQ(schedd.log().emails().size(), 1u);
  EXPECT_NE(schedd.log().emails()[0].subject.find("completed"),
            std::string::npos);
  // Idempotent: duplicate DONE must not double-notify.
  schedd.mark_completed(id);
  EXPECT_EQ(schedd.log().emails().size(), 1u);
}

// ---------- GridManager end-to-end ----------

TEST_F(AgentFixture, RunsBatchOfGridJobsExactlyOnce) {
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 20; ++i) ids.push_back(agent->submit(grid_job()));
  run_to_completion(40000.0);
  for (const auto id : ids) {
    EXPECT_EQ(agent->query(id)->status, core::JobStatus::kCompleted)
        << "job " << id;
  }
  // Exactly-once: 20 completed site executions, not more.
  EXPECT_EQ(total_site_executions(), 20u);
  // Output staged back for every job.
  for (const auto id : ids) {
    EXPECT_TRUE(agent->gridmanager().gass().store().contains(
        "out/" + std::to_string(id) + ".out"));
  }
  EXPECT_EQ(agent->log().count(core::LogEventKind::kTerminated), 20u);
}

TEST_F(AgentFixture, FixedSiteJobGoesToThatSite) {
  core::JobDescription desc = grid_job(100.0);
  desc.grid_site = "lsf.ncsa.edu";
  const auto id = agent->submit(desc);
  run_to_completion(10000.0);
  EXPECT_EQ(agent->query(id)->status, core::JobStatus::kCompleted);
  EXPECT_EQ(agent->query(id)->gram_site, "lsf.ncsa.edu");
  EXPECT_EQ(testbed.site(1).scheduler->history().size(), 1u);
  EXPECT_TRUE(testbed.site(0).scheduler->history().empty());
}

TEST_F(AgentFixture, RemoveCancelsRemoteJob) {
  const auto id = agent->submit(grid_job(100000.0));
  testbed.world().sim().run_until(2000.0);
  ASSERT_EQ(agent->query(id)->status, core::JobStatus::kRunning);
  agent->remove(id);
  testbed.world().sim().run_until(4000.0);
  EXPECT_EQ(agent->query(id)->status, core::JobStatus::kRemoved);
}

// ---------- failure recovery (the §4.2 matrix, agent level) ----------

TEST_F(AgentFixture, F1JobManagerKillRecoveredByProbing) {
  const auto id = agent->submit(grid_job(3000.0));
  testbed.world().sim().run_until(1500.0);
  ASSERT_EQ(agent->query(id)->status, core::JobStatus::kRunning);
  const std::string contact = agent->query(id)->gram_contact;
  ASSERT_FALSE(contact.empty());
  // Kill the JobManager process only.
  const auto site_index = agent->query(id)->gram_site == "pbs.anl.gov" ? 0 : 1;
  ASSERT_TRUE(testbed.site(site_index).gatekeeper->kill_jobmanager(contact));
  run_to_completion(40000.0);
  EXPECT_EQ(agent->query(id)->status, core::JobStatus::kCompleted);
  EXPECT_GE(agent->gridmanager().jobmanager_restarts(), 1u);
  EXPECT_GE(agent->log().count(core::LogEventKind::kJobManagerLost), 1u);
  EXPECT_EQ(total_site_executions(), 1u);  // never duplicated
}

TEST_F(AgentFixture, F2SiteFrontEndCrashRecovered) {
  core::JobDescription desc = grid_job(3000.0);
  desc.grid_site = "pbs.anl.gov";
  const auto id = agent->submit(desc);
  testbed.world().sim().run_until(1500.0);
  ASSERT_EQ(agent->query(id)->status, core::JobStatus::kRunning);
  testbed.site(0).frontend->crash();
  testbed.world().sim().schedule_at(6000.0,
                                    [&] { testbed.site(0).frontend->restart(); });
  run_to_completion(60000.0);
  EXPECT_EQ(agent->query(id)->status, core::JobStatus::kCompleted);
  EXPECT_EQ(total_site_executions(), 1u);
}

TEST_F(AgentFixture, F3SubmitMachineCrashRecovered) {
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 8; ++i) ids.push_back(agent->submit(grid_job(3000.0)));
  testbed.world().sim().run_until(1500.0);
  // Crash the whole submit machine mid-campaign; stable queue survives.
  agent->host().crash();
  testbed.world().sim().schedule_at(2500.0, [&] { agent->host().restart(); });
  run_to_completion(80000.0);
  for (const auto id : ids) {
    EXPECT_EQ(agent->query(id)->status, core::JobStatus::kCompleted)
        << "job " << id;
  }
  // Exactly-once even across the crash: re-driven submissions deduped.
  EXPECT_EQ(total_site_executions(), 8u);
}

TEST_F(AgentFixture, RemovedDuringRecoveryRedriveIsNeverSent) {
  const auto id = submit_across_reboot();
  ASSERT_TRUE(agent->remove(id));
  testbed.world().sim().run_until(5000.0);
  EXPECT_EQ(agent->query(id)->status, core::JobStatus::kRemoved);
  EXPECT_EQ(total_site_executions(), 0u);
}

TEST_F(AgentFixture, HeldDuringRecoveryRedriveIsNeverSent) {
  const auto id = submit_across_reboot();
  ASSERT_TRUE(agent->hold(id, "held by user"));
  testbed.world().sim().run_until(5000.0);
  EXPECT_EQ(agent->query(id)->status, core::JobStatus::kHeld);
  EXPECT_EQ(total_site_executions(), 0u);
}

TEST_F(AgentFixture, ReleasedJobResendsItsSeqToItsFirstSite) {
  // The round-robin broker already chose pbs once, so it would choose lsf
  // next; the persisted seq must still go only to pbs.
  const auto id = submit_across_reboot();
  const std::uint64_t seq = agent->query(id)->gram_seq;
  ASSERT_TRUE(agent->hold(id, "held by user"));
  testbed.world().sim().run_until(1000.0);
  ASSERT_TRUE(agent->release(id));
  run_to_completion(40000.0);
  const auto job = agent->query(id);
  EXPECT_EQ(job->status, core::JobStatus::kCompleted);
  EXPECT_EQ(job->gram_site, "pbs.anl.gov");
  EXPECT_EQ(job->gram_seq, seq);
  EXPECT_EQ(testbed.site(0).scheduler->history().size(), 1u);
  EXPECT_TRUE(testbed.site(1).scheduler->history().empty());
  EXPECT_EQ(total_site_executions(), 1u);
}

TEST_F(AgentFixture, F4PartitionRiddenOut) {
  core::JobDescription desc = grid_job(3000.0);
  desc.grid_site = "pbs.anl.gov";
  const auto id = agent->submit(desc);
  testbed.world().sim().run_until(1500.0);
  ASSERT_EQ(agent->query(id)->status, core::JobStatus::kRunning);
  testbed.world().net().set_partitioned("submit.wisc.edu", "pbs.anl.gov",
                                        true);
  testbed.world().sim().schedule_at(8000.0, [&] {
    testbed.world().net().set_partitioned("submit.wisc.edu", "pbs.anl.gov",
                                          false);
  });
  run_to_completion(60000.0);
  EXPECT_EQ(agent->query(id)->status, core::JobStatus::kCompleted);
  EXPECT_EQ(total_site_executions(), 1u);
}

TEST_F(AgentFixture, DeadSiteJobResubmittedElsewhere) {
  // pbs dies permanently before the job is submitted; round-robin sends
  // job 1 there, the submit times out, and the job lands on lsf instead.
  testbed.site(0).frontend->crash();
  const auto id = agent->submit(grid_job(300.0));
  run_to_completion(80000.0);
  EXPECT_EQ(agent->query(id)->status, core::JobStatus::kCompleted);
  EXPECT_EQ(agent->query(id)->gram_site, "lsf.ncsa.edu");
  EXPECT_GE(agent->gridmanager().resubmissions(), 0u);
}

TEST_F(AgentFixture, RepeatedRemoteFailureEndsInHold) {
  core::JobDescription desc = grid_job(10000.0);
  desc.grid_site = "pbs.anl.gov";
  desc.walltime_limit = 10000.0;
  desc.max_attempts = 2;
  // Site policy kills anything above 600s: the job can never finish there.
  cw::SiteSpec strict;
  strict.name = "strict.site.gov";
  strict.cpus = 4;
  strict.max_walltime = 600.0;
  testbed.add_site(strict);
  desc.grid_site = "strict.site.gov";
  const auto id = agent->submit(desc);
  run_to_completion(120000.0);
  EXPECT_EQ(agent->query(id)->status, core::JobStatus::kHeld);
  EXPECT_EQ(agent->query(id)->attempts, 2);
  EXPECT_GE(agent->log().count(core::LogEventKind::kResubmitted), 1u);
}

// ---------- the site probe (one gram.status_all per site) ----------

TEST_F(AgentFixture, SiteProbeIsOnePerSitePerInterval) {
  std::size_t status_all = 0;
  testbed.world().net().set_delivery_tap([&](const cs::Message& m) {
    if (m.type == "gram.status_all") ++status_all;
  });
  core::JobDescription desc = grid_job(3000.0);
  desc.grid_site = "pbs.anl.gov";
  for (int i = 0; i < 20; ++i) agent->submit(desc);
  testbed.world().sim().run_until(1200.0);
  EXPECT_EQ(agent->schedd().count(core::JobStatus::kRunning), 20u);
  // The first probe follows the first contact by one 120 s interval, then
  // one per interval: 9 by 1,200 s, where per-job probes would be ~180.
  EXPECT_EQ(agent->gridmanager().probes_sent(), 9u);
  EXPECT_EQ(status_all, agent->gridmanager().probes_sent());
}

TEST_F(AgentFixture, ActiveReportLeavesAHeldJobHeld) {
  // 30 x 600 s jobs fill pbs's 8 CPUs; the 31st is held while PENDING.
  core::JobDescription desc = grid_job(600.0);
  desc.grid_site = "pbs.anl.gov";
  for (int i = 0; i < 30; ++i) agent->submit(desc);
  const auto id = agent->submit(desc);
  cs::Simulation& sim = testbed.world().sim();
  sim.run_until(100.0);
  ASSERT_EQ(agent->query(id)->remote_state, "PENDING");
  ASSERT_TRUE(agent->hold(id, "held by user"));
  while (agent->query(id)->remote_state != "ACTIVE" && sim.now() < 3000.0) {
    sim.run_until(sim.now() + 10.0);
  }
  // The site started its copy; only a release may make the job Running.
  ASSERT_EQ(agent->query(id)->remote_state, "ACTIVE");
  EXPECT_EQ(agent->query(id)->status, core::JobStatus::kHeld);
  EXPECT_EQ(agent->query(id)->hold_reason, "held by user");
  // A DONE report still completes it (DESIGN.md §12).
  run_to_completion(6000.0);
  EXPECT_EQ(agent->query(id)->status, core::JobStatus::kCompleted);
}

TEST_F(AgentFixture, SiteProbeRestartsAKilledJobManagerOnce) {
  core::JobDescription desc = grid_job(3000.0);
  desc.grid_site = "pbs.anl.gov";
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 4; ++i) ids.push_back(agent->submit(desc));
  testbed.world().sim().run_until(1500.0);
  ASSERT_TRUE(testbed.site(0).gatekeeper->kill_jobmanager(
      agent->query(ids[1])->gram_contact));
  run_to_completion(40000.0);
  for (const auto id : ids) {
    EXPECT_EQ(agent->query(id)->status, core::JobStatus::kCompleted);
  }
  EXPECT_EQ(agent->gridmanager().jobmanager_restarts(), 1u);
  EXPECT_EQ(agent->log().count(core::LogEventKind::kJobManagerLost), 1u);
  EXPECT_EQ(testbed.site(0).gatekeeper->jobmanagers_started(), 5u);
  EXPECT_EQ(agent->log().count(core::LogEventKind::kTerminated), 4u);
  EXPECT_EQ(total_site_executions(), 4u);
}

TEST_F(AgentFixture, SiteProbeCompletesAJobWhoseDoneCallbackWasLost) {
  core::JobDescription desc = grid_job(300.0);
  desc.grid_site = "pbs.anl.gov";
  const auto id = agent->submit(desc);
  cs::Simulation& sim = testbed.world().sim();
  while (agent->query(id)->remote_state != "ACTIVE" && sim.now() < 1000.0) {
    sim.run_until(sim.now() + 5.0);
  }
  ASSERT_EQ(agent->query(id)->remote_state, "ACTIVE");
  // Take the GridManager's callback service away while the job finishes,
  // so its DONE callback finds no one.
  cs::Host& submit = agent->host();
  const cs::Host::Handler callbacks = *submit.find_service("gridmanager.user");
  submit.unregister_service("gridmanager.user");
  const std::string contact = agent->query(id)->gram_contact;
  const auto site_state = [&] {
    return testbed.site(0).gatekeeper->find_jobmanager(contact)->state();
  };
  while (site_state() != condorg::gram::GramJobState::kDone &&
         sim.now() < 1000.0) {
    sim.run_until(sim.now() + 5.0);
  }
  ASSERT_EQ(site_state(), condorg::gram::GramJobState::kDone);
  sim.run_until(sim.now() + 5.0);
  ASSERT_EQ(agent->query(id)->status, core::JobStatus::kRunning);
  const double restored = sim.now();
  submit.register_service("gridmanager.user", callbacks);
  run_to_completion(2000.0);
  EXPECT_EQ(agent->query(id)->status, core::JobStatus::kCompleted);
  EXPECT_GT(agent->query(id)->completion_time, restored);
  EXPECT_EQ(agent->log().count(core::LogEventKind::kTerminated), 1u);
  EXPECT_EQ(total_site_executions(), 1u);
}

TEST_F(AgentFixture, SiteProbeRidesOutAPartitionWithoutRestarts) {
  cs::Tracer& tracer = testbed.world().sim().tracer();
  tracer.set_enabled(true);
  core::JobDescription desc = grid_job(3000.0);
  desc.grid_site = "pbs.anl.gov";
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 4; ++i) ids.push_back(agent->submit(desc));
  cs::Network& net = testbed.world().net();
  testbed.world().sim().run_until(1500.0);
  net.set_partitioned("submit.wisc.edu", "pbs.anl.gov", true);
  testbed.world().sim().run_until(2500.0);
  net.set_partitioned("submit.wisc.edu", "pbs.anl.gov", false);
  run_to_completion(40000.0);
  std::map<std::uint64_t, std::vector<double>> begins;
  std::map<std::uint64_t, std::vector<double>> ends;
  for (const cs::TraceRecord& record : tracer.records()) {
    if (record.name == "recovery.begin") begins[record.job].push_back(record.t);
    if (record.name == "recovery.end") ends[record.job].push_back(record.t);
  }
  for (const auto id : ids) {
    EXPECT_EQ(agent->query(id)->status, core::JobStatus::kCompleted);
    // One window per job: opened by a silent probe during the partition,
    // closed by the first probe the healed site answers.
    ASSERT_EQ(begins[id].size(), 1u) << "job " << id;
    ASSERT_EQ(ends[id].size(), 1u) << "job " << id;
    EXPECT_GT(begins[id][0], 1500.0);
    EXPECT_LT(begins[id][0], 2500.0);
    EXPECT_GT(ends[id][0], 2500.0);
    EXPECT_LT(ends[id][0], 2500.0 + 2 * 120.0);
  }
  EXPECT_EQ(agent->gridmanager().jobmanager_restarts(), 0u);
  EXPECT_EQ(agent->log().count(core::LogEventKind::kJobManagerLost), 0u);
  EXPECT_EQ(total_site_executions(), 4u);
}

TEST_F(AgentFixture, RefusedSiteProbeHoldsItsJobsWithoutRecovery) {
  gsi::Pki pki(condorg::util::Rng(9));
  gsi::CertificateAuthority ca(pki, "/CN=CA");
  require_gsi_at_pbs(pki, ca);
  agent->credentials().set_credential(
      ca.issue(pki, "/O=UW/CN=jfrey", 0.0, 30 * 86400.0)
          .delegate(pki, 0.0, 30 * 86400.0));
  cs::Simulation& sim = testbed.world().sim();
  sim.tracer().set_enabled(true);
  core::JobDescription desc = grid_job(3000.0);
  desc.grid_site = "pbs.anl.gov";
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 4; ++i) ids.push_back(agent->submit(desc));
  sim.run_until(1500.0);
  for (const auto id : ids) {
    ASSERT_EQ(agent->query(id)->remote_state, "ACTIVE") << "job " << id;
  }
  // Swap in a credential from a CA pbs does not trust: pbs answers its
  // next probe with a refusal, which is no outage.
  gsi::CertificateAuthority stranger(pki, "/CN=Stranger CA");
  agent->credentials().set_credential(
      stranger.issue(pki, "/O=UW/CN=jfrey", 0.0, 30 * 86400.0)
          .delegate(pki, sim.now(), 30 * 86400.0));
  sim.run_until(1500.0 + 120.0);
  for (const auto id : ids) {
    EXPECT_EQ(agent->query(id)->status, core::JobStatus::kHeld) << id;
    EXPECT_EQ(agent->query(id)->hold_reason,
              "site pbs.anl.gov refused: credential verification failed");
  }
  // The held jobs left the watch: pbs is not probed again.
  const std::uint64_t probes = agent->gridmanager().probes_sent();
  sim.run_until(2500.0);
  EXPECT_EQ(agent->gridmanager().probes_sent(), probes);
  // The site copies still finish, and each completes its job (DESIGN.md
  // §12).
  run_to_completion(10000.0);
  for (const auto id : ids) {
    EXPECT_EQ(agent->query(id)->status, core::JobStatus::kCompleted) << id;
  }
  for (const cs::TraceRecord& record : sim.tracer().records()) {
    EXPECT_NE(record.name, "recovery.begin") << "job " << record.job;
  }
  EXPECT_EQ(agent->gridmanager().jobmanager_restarts(), 0u);
  EXPECT_EQ(total_site_executions(), 4u);
}

TEST_F(AgentFixture, RefusedFirstSubmitHoldsTheJob) {
  gsi::Pki pki(condorg::util::Rng(9));
  gsi::CertificateAuthority ca(pki, "/CN=CA");
  require_gsi_at_pbs(pki, ca);
  // A credential pbs trusts, for an identity its gridmap does not map.
  agent->credentials().set_credential(
      ca.issue(pki, "/O=UW/CN=eve", 0.0, 30 * 86400.0)
          .delegate(pki, 0.0, 30 * 86400.0));
  core::JobDescription desc = grid_job(300.0);
  desc.grid_site = "pbs.anl.gov";
  const auto id = agent->submit(desc);
  testbed.world().sim().run_until(1000.0);
  EXPECT_EQ(agent->query(id)->status, core::JobStatus::kHeld);
  EXPECT_EQ(agent->query(id)->hold_reason,
            "site pbs.anl.gov refused: identity not authorized: /O=UW/CN=eve");
  // One submit: not sent again, not re-brokered, not a resubmission.
  EXPECT_EQ(agent->gridmanager().submissions(), 1u);
  EXPECT_EQ(agent->gridmanager().gram().submits_sent(), 1u);
  EXPECT_EQ(agent->gridmanager().resubmissions(), 0u);
  EXPECT_EQ(total_site_executions(), 0u);
}

TEST_F(AgentFixture, SubmitHostRebootResendsGassToEveryContact) {
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 6; ++i) ids.push_back(agent->submit(grid_job(3000.0)));
  cs::Simulation& sim = testbed.world().sim();
  sim.run_until(1500.0);
  std::set<std::string> contacts;
  for (const auto id : ids) contacts.insert(agent->query(id)->gram_contact);
  ASSERT_EQ(contacts.size(), 6u);
  std::map<std::string, int> gass_updates;  // JobManager service -> count
  testbed.world().net().set_delivery_tap([&](const cs::Message& m) {
    if (m.type == "jm.update_gass") ++gass_updates[m.to.service];
  });
  const std::string lost = agent->query(ids[0])->gram_contact;
  const std::size_t lost_site =
      agent->query(ids[0])->gram_site == "pbs.anl.gov" ? 0 : 1;
  agent->host().crash();
  sim.schedule_at(2500.0, [&] { agent->host().restart(); });
  // One JobManager dies during the outage: it gets the address once the
  // site probe has it restarted.
  sim.run_until(2000.0);
  ASSERT_TRUE(testbed.site(lost_site).gatekeeper->kill_jobmanager(lost));
  run_to_completion(40000.0);
  for (const auto id : ids) {
    EXPECT_EQ(agent->query(id)->status, core::JobStatus::kCompleted);
  }
  EXPECT_EQ(gass_updates.size(), 6u);
  for (const auto& contact : contacts) {
    EXPECT_EQ(gass_updates[condorg::gram::jobmanager_service(contact)], 1)
        << contact;
  }
  EXPECT_EQ(agent->gridmanager().jobmanager_restarts(), 1u);
  EXPECT_EQ(total_site_executions(), 6u);
}

// ---------- CredentialManager ----------

namespace {

struct CredentialFixture : public AgentFixture {
  CredentialFixture()
      : pki(condorg::util::Rng(9)),
        ca(pki, "/CN=CA"),
        user(ca.issue(pki, "/O=UW/CN=jfrey", 0.0, 30 * 86400.0)) {}
  gsi::Pki pki;
  gsi::CertificateAuthority ca;
  gsi::Credential user;
};

}  // namespace

TEST_F(CredentialFixture, ExpiryHoldsJobsAndEmails) {
  // Short proxy, long job: with no MyProxy the agent must hold + e-mail.
  agent->credentials().set_credential(user.delegate(pki, 0.0, 3600.0));
  const auto id = agent->submit(grid_job(100000.0));
  testbed.world().sim().run_until(2 * 3600.0);
  EXPECT_EQ(agent->query(id)->status, core::JobStatus::kHeld);
  EXPECT_EQ(agent->query(id)->hold_reason,
            core::CredentialManager::kHoldReason);
  EXPECT_GE(agent->credentials().holds_issued(), 1u);
  bool email_found = false;
  for (const auto& mail : agent->log().emails()) {
    if (mail.subject.find("credential") != std::string::npos) {
      email_found = true;
    }
  }
  EXPECT_TRUE(email_found);
}

TEST_F(CredentialFixture, AlarmEmailBeforeExpiry) {
  agent->credentials().set_credential(user.delegate(pki, 0.0, 4 * 3600.0));
  agent->submit(grid_job(100000.0));
  testbed.world().sim().run_until(3 * 3600.0);
  EXPECT_GE(agent->credentials().alarms_sent(), 1u);
}

TEST_F(CredentialFixture, ManualRefreshReleasesHeldJobs) {
  agent->credentials().set_credential(user.delegate(pki, 0.0, 3600.0));
  const auto id = agent->submit(grid_job(10000.0));
  testbed.world().sim().run_until(2 * 3600.0);
  ASSERT_EQ(agent->query(id)->status, core::JobStatus::kHeld);
  // grid-proxy-init again:
  agent->credentials().set_credential(
      user.delegate(pki, testbed.world().now(), 12 * 3600.0));
  run_to_completion(testbed.world().now() + 20000.0);
  EXPECT_EQ(agent->query(id)->status, core::JobStatus::kCompleted);
  EXPECT_GE(agent->log().count(core::LogEventKind::kReleased), 1u);
}

TEST_F(CredentialFixture, MyProxyAutoRefreshKeepsJobsRunning) {
  // Store a week-long credential in MyProxy; the agent refreshes short
  // proxies from it automatically, so a long campaign never holds.
  gsi::MyProxyServer myproxy(testbed.world().add_host("myproxy.ncsa.edu"),
                             testbed.world().net(), pki);
  {
    gsi::MyProxyClient boot(agent->host(), testbed.world().net(),
                            "test.myproxy.boot");
    boot.store(myproxy.address(), "jfrey", "pw",
               user.delegate(pki, 0.0, 7 * 86400.0), [](bool) {});
    testbed.world().sim().run_until(10.0);
  }

  core::AgentOptions options;
  options.user = "jfrey2";
  options.credentials.use_myproxy = true;
  options.credentials.myproxy_server = myproxy.address();
  options.credentials.myproxy_user = "jfrey";
  options.credentials.myproxy_passphrase = "pw";
  options.credentials.scan_interval = 300.0;
  options.credentials.refresh_threshold = 1800.0;
  options.credentials.refresh_lifetime = 3600.0;
  testbed.add_submit_host("submit2.wisc.edu");
  core::CondorGAgent agent2(testbed.world(), "submit2.wisc.edu", options);
  agent2.set_site_chooser(core::make_static_chooser(testbed.gatekeepers()));
  agent2.start();
  agent2.credentials().set_credential(
      user.delegate(pki, testbed.world().now(), 3600.0));

  // 20 hours of work: far beyond any single proxy's lifetime.
  const auto id = agent2.submit([&] {
    core::JobDescription d;
    d.universe = core::Universe::kGrid;
    d.runtime_seconds = 20 * 3600.0;
    return d;
  }());
  while (!agent2.schedd().all_terminal() &&
         testbed.world().now() < 40 * 3600.0) {
    if (!testbed.world().sim().run_until(testbed.world().now() + 600.0)) {
      break;
    }
  }
  EXPECT_EQ(agent2.query(id)->status, core::JobStatus::kCompleted);
  EXPECT_GE(agent2.credentials().refreshes(), 10u);
  EXPECT_EQ(agent2.credentials().holds_issued(), 0u);
  EXPECT_GE(myproxy.proxies_issued(), 10u);
}

// ---------- brokers ----------

TEST(Broker, StaticChooserRoundRobins) {
  auto chooser = core::make_static_chooser(
      {{"a", "gk"}, {"b", "gk"}, {"c", "gk"}});
  std::vector<std::string> picks;
  core::Job job;
  for (int i = 0; i < 6; ++i) {
    chooser(job, [&](std::optional<cs::Address> addr) {
      picks.push_back(addr->host);
    });
  }
  EXPECT_EQ(picks, (std::vector<std::string>{"a", "b", "c", "a", "b", "c"}));
}

TEST(Broker, EmptyStaticChooserRefuses) {
  auto chooser = core::make_static_chooser({});
  bool got = true;
  chooser(core::Job{}, [&](std::optional<cs::Address> addr) {
    got = addr.has_value();
  });
  EXPECT_FALSE(got);
}

TEST(Broker, RandomChooserCoversAllSites) {
  auto chooser = core::make_random_chooser(
      {{"a", "gk"}, {"b", "gk"}, {"c", "gk"}}, condorg::util::Rng(3));
  std::set<std::string> seen;
  for (int i = 0; i < 60; ++i) {
    chooser(core::Job{}, [&](std::optional<cs::Address> addr) {
      seen.insert(addr->host);
    });
  }
  EXPECT_EQ(seen.size(), 3u);
}

TEST(Broker, MdsBrokerRanksAndFilters) {
  cw::GridTestbed testbed(11);
  cw::SiteSpec small;
  small.name = "small.site";
  small.cpus = 2;
  testbed.add_site(small);
  cw::SiteSpec big;
  big.name = "big.site";
  big.cpus = 64;
  testbed.add_site(big);
  testbed.enable_mds("giis.grid.org");
  cs::Host& submit = testbed.add_submit_host("submit");
  testbed.world().sim().run_until(10.0);  // ads registered

  core::MdsBroker broker(submit, testbed.world().net(),
                         {"giis.grid.org", condorg::mds::GiisServer::kService});
  core::Job job;
  job.desc.ad.insert_expr("Requirements", "other.FreeCpus >= 1");
  job.desc.ad.insert_expr("Rank", "other.FreeCpus");
  std::optional<cs::Address> choice;
  broker.chooser()(job, [&](std::optional<cs::Address> addr) { choice = addr; });
  testbed.world().sim().run_until(20.0);
  ASSERT_TRUE(choice.has_value());
  EXPECT_EQ(choice->host, "big.site");

  // A job nothing satisfies is refused.
  core::Job picky;
  picky.desc.ad.insert_expr("Requirements", "other.FreeCpus > 1000");
  bool refused = false;
  broker.chooser()(picky, [&](std::optional<cs::Address> addr) {
    refused = !addr.has_value();
  });
  testbed.world().sim().run_until(30.0);
  EXPECT_TRUE(refused);
  EXPECT_GE(broker.queries_sent(), 1u);
}

// ---------- GlideIn + vanilla universe ----------

TEST(GlideIn, VanillaJobsRunOnGlidedInSlots) {
  cw::GridTestbed testbed(13);
  cw::SiteSpec site;
  site.name = "pool.wisc.edu";
  site.cpus = 16;
  testbed.add_site(site);
  testbed.add_submit_host("submit");
  core::CondorGAgent agent(testbed.world(), "submit");
  core::GlideInOptions glidein_options;
  glidein_options.walltime = 6 * 3600.0;
  glidein_options.idle_timeout = 1200.0;
  glidein_options.tick_interval = 60.0;
  auto& glideins = agent.enable_glideins(glidein_options);
  glideins.add_site(core::GlideInSite{"pool.wisc.edu",
                                      testbed.site(0).gatekeeper_address(),
                                      testbed.site(0).cluster, 8, 1});
  agent.start();

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 12; ++i) {
    core::JobDescription desc;
    desc.universe = core::Universe::kVanilla;
    desc.runtime_seconds = 1800.0;
    ids.push_back(agent.submit(desc));
  }
  while (!agent.schedd().all_terminal() &&
         testbed.world().now() < 12 * 3600.0) {
    if (!testbed.world().sim().run_until(testbed.world().now() + 120.0)) {
      break;
    }
  }
  for (const auto id : ids) {
    EXPECT_EQ(agent.query(id)->status, core::JobStatus::kCompleted)
        << "job " << id;
  }
  EXPECT_GE(glideins.glideins_started(), 1u);
  EXPECT_LE(glideins.glideins_submitted(), 8u);  // bounded by site cap

  // After the queue drains, idle daemons shut themselves down and the
  // site's batch slots are released.
  testbed.world().sim().run_until(testbed.world().now() + 4 * 3600.0);
  EXPECT_EQ(glideins.live_glideins(), 0u);
  EXPECT_GE(glideins.glideins_exited(), glideins.glideins_started());
}

// A cluster-host crash kills the glided-in daemons without an exit notice,
// and glide-ins that go ACTIVE while the node is down never start. The
// manager must still release every one it counts as live — on the GRAM
// job's terminal callback — or the site's cap stays full and the jobs idle
// forever.
TEST(GlideIn, ClusterCrashMidJobStillCompletes) {
  cw::GridTestbed testbed(29);
  cw::SiteSpec site;
  site.name = "pool.wisc.edu";
  site.cpus = 4;
  testbed.add_site(site);
  testbed.add_submit_host("submit");
  core::CondorGAgent agent(testbed.world(), "submit");
  core::GlideInOptions options;
  options.tick_interval = 60.0;
  auto& glideins = agent.enable_glideins(options);
  glideins.add_site(core::GlideInSite{"pool.wisc.edu",
                                      testbed.site(0).gatekeeper_address(),
                                      testbed.site(0).cluster, 4, 1});
  agent.start();

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 4; ++i) {
    core::JobDescription desc;
    desc.universe = core::Universe::kVanilla;
    desc.runtime_seconds = 3600.0;
    ids.push_back(agent.submit(desc));
  }
  testbed.world().sim().run_until(1800.0);
  testbed.site(0).cluster->crash_for(600.0);
  testbed.world().sim().run_until(24 * 3600.0);

  for (const auto id : ids) {
    EXPECT_EQ(agent.query(id)->status, core::JobStatus::kCompleted)
        << "job " << id;
  }
  EXPECT_EQ(glideins.live_glideins(), 0u);
  EXPECT_EQ(glideins.glideins_exited(), glideins.glideins_started());
}

TEST(GlideIn, BinaryRepositoryFetchPrecedesStartd) {
  cw::GridTestbed testbed(17);
  cw::SiteSpec site;
  site.name = "site.a";
  site.cpus = 4;
  testbed.add_site(site);
  testbed.add_submit_host("submit");
  // Central repository with the condor binaries.
  condorg::gass::FileService repo(testbed.world().add_host("repo.wisc.edu"),
                                  testbed.world().net(), "gridftp");
  repo.store().put("condor/startd-bundle", "BINARIES", 20 << 20);

  core::CondorGAgent agent(testbed.world(), "submit");
  core::GlideInOptions options;
  options.binary_repository = repo.address();
  options.tick_interval = 60.0;
  auto& glideins = agent.enable_glideins(options);
  glideins.add_site(core::GlideInSite{"site.a",
                                      testbed.site(0).gatekeeper_address(),
                                      testbed.site(0).cluster, 4, 1});
  agent.start();

  core::JobDescription desc;
  desc.universe = core::Universe::kVanilla;
  desc.runtime_seconds = 600.0;
  const auto id = agent.submit(desc);
  while (!agent.schedd().all_terminal() &&
         testbed.world().now() < 4 * 3600.0) {
    if (!testbed.world().sim().run_until(testbed.world().now() + 60.0)) break;
  }
  EXPECT_EQ(agent.query(id)->status, core::JobStatus::kCompleted);
  EXPECT_GE(repo.gets_served(), 1u);  // binaries really were fetched
}

// ---------- DAGMan ----------

namespace {

core::JobDescription quick_grid_job(double runtime = 120.0) {
  core::JobDescription desc;
  desc.universe = core::Universe::kGrid;
  desc.runtime_seconds = runtime;
  return desc;
}

}  // namespace

TEST_F(AgentFixture, DagRunsInDependencyOrder) {
  core::Dag dag;
  std::vector<std::string> order;
  for (const char* name : {"a", "b", "c", "d"}) {
    core::DagNode node;
    node.name = name;
    node.job = quick_grid_job();
    node.post = [&order, name] { order.emplace_back(name); };
    dag.add_node(std::move(node));
  }
  // diamond: a -> {b, c} -> d
  dag.add_edge("a", "b");
  dag.add_edge("a", "c");
  dag.add_edge("b", "d");
  dag.add_edge("c", "d");
  auto dagman = agent->make_dagman(std::move(dag));
  bool success = false;
  dagman->on_finished([&](bool ok) { success = ok; });
  dagman->start();
  run_to_completion(40000.0);
  ASSERT_TRUE(dagman->complete());
  EXPECT_TRUE(success);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order.front(), "a");
  EXPECT_EQ(order.back(), "d");
  EXPECT_EQ(dagman->nodes_done(), 4u);
}

TEST_F(AgentFixture, DagThrottleLimitsInFlightJobs) {
  core::Dag dag;
  for (int i = 0; i < 10; ++i) {
    core::DagNode node;
    node.name = "n" + std::to_string(i);
    node.job = quick_grid_job(600.0);
    dag.add_node(std::move(node));
  }
  core::DagManOptions options;
  options.max_jobs_in_flight = 3;
  auto dagman = agent->make_dagman(std::move(dag), options);
  dagman->start();
  // At no instant may more than 3 node jobs be non-terminal.
  std::size_t max_active = 0;
  while (!dagman->complete() && testbed.world().now() < 80000.0) {
    testbed.world().sim().run_until(testbed.world().now() + 60.0);
    max_active = std::max(max_active, agent->schedd().active_count());
  }
  EXPECT_TRUE(dagman->complete());
  EXPECT_LE(max_active, 3u);
}

TEST(Dag, CycleDetected) {
  cs::World world;
  core::Schedd schedd(world.add_host("submit"));
  core::Dag dag;
  for (const char* name : {"x", "y"}) {
    core::DagNode node;
    node.name = name;
    dag.add_node(std::move(node));
  }
  dag.add_edge("x", "y");
  dag.add_edge("y", "x");
  core::DagMan dagman(schedd, std::move(dag));
  EXPECT_THROW(dagman.start(), std::invalid_argument);
}

TEST(Dag, BadEdgesAndDuplicatesRejected) {
  core::Dag dag;
  core::DagNode node;
  node.name = "a";
  dag.add_node(node);
  EXPECT_THROW(dag.add_node(node), std::invalid_argument);
  EXPECT_THROW(dag.add_edge("a", "nope"), std::invalid_argument);
}

// ---------- queued-job migration (§4.4 enhancement) ----------

TEST(Migration, PendingTooLongMovesToFreeSite) {
  // Site A is fully occupied by an endless local job; site B is idle. With
  // max_pending_seconds set, a job parked in A's queue is cancelled there
  // and re-brokered to B.
  cw::GridTestbed testbed(55);
  cw::SiteSpec a;
  a.name = "busy.site";
  a.cpus = 2;
  testbed.add_site(a);
  cw::SiteSpec b;
  b.name = "idle.site";
  b.cpus = 2;
  testbed.add_site(b);
  // Occupy site A completely for a very long time.
  condorg::batch::JobRequest hog;
  hog.owner = "local";
  hog.cpus = 2;
  hog.runtime_seconds = 1e7;
  testbed.site(0).scheduler->submit(hog);

  core::AgentOptions options;
  options.gridmanager.max_pending_seconds = 1800.0;
  options.gridmanager.probe_interval = 300.0;
  core::CondorGAgent agent(testbed.world(), "submit", [&] {
    testbed.add_submit_host("submit");
    return options;
  }());
  // Force the first choice to the busy site, then round-robin.
  agent.set_site_chooser(core::make_static_chooser(
      {testbed.site(0).gatekeeper_address(),
       testbed.site(1).gatekeeper_address()}));
  agent.start();

  core::JobDescription job;
  job.universe = core::Universe::kGrid;
  job.runtime_seconds = 600.0;
  const auto id = agent.submit(job);

  while (!agent.schedd().all_terminal() &&
         testbed.world().now() < 86400.0) {
    testbed.world().sim().run_until(testbed.world().now() + 300.0);
  }
  EXPECT_EQ(agent.query(id)->status, core::JobStatus::kCompleted);
  EXPECT_EQ(agent.query(id)->gram_site, "idle.site");
  EXPECT_GE(agent.gridmanager().queued_migrations(), 1u);
  // The abandoned copy at the busy site was cancelled, never run.
  for (const auto& record : testbed.site(0).scheduler->history()) {
    if (record.request.owner == "gram") {
      EXPECT_NE(record.state, condorg::batch::JobState::kCompleted);
    }
  }
}

TEST(Migration, DisabledByDefault) {
  cw::GridTestbed testbed(56);
  cw::SiteSpec a;
  a.name = "busy.site";
  a.cpus = 1;
  testbed.add_site(a);
  condorg::batch::JobRequest hog;
  hog.owner = "local";
  hog.runtime_seconds = 7200.0;
  testbed.site(0).scheduler->submit(hog);
  testbed.add_submit_host("submit");
  core::CondorGAgent agent(testbed.world(), "submit");
  agent.set_site_chooser(
      core::make_static_chooser({testbed.site(0).gatekeeper_address()}));
  agent.start();
  core::JobDescription job;
  job.universe = core::Universe::kGrid;
  job.runtime_seconds = 600.0;
  const auto id = agent.submit(job);
  testbed.world().sim().run_until(3600.0);
  // Still queued at the busy site: no migration machinery fired.
  EXPECT_EQ(agent.gridmanager().queued_migrations(), 0u);
  EXPECT_EQ(agent.query(id)->remote_state, "PENDING");
}

// ---------- preemptible glide-in slots ----------

TEST(GlideIn, PreemptibleSlotsEvictAndJobsStillFinish) {
  cw::GridTestbed testbed(61);
  cw::SiteSpec site;
  site.name = "pool.site.edu";
  site.cpus = 16;
  testbed.add_site(site);
  testbed.add_submit_host("submit");
  core::CondorGAgent agent(testbed.world(), "submit");
  core::GlideInOptions options;
  options.walltime = 24 * 3600.0;
  options.idle_timeout = 1800.0;
  options.tick_interval = 120.0;
  options.checkpoint_interval = 300.0;
  // Aggressive reclaim: slots available ~1h, reclaimed ~30min.
  options.mean_slot_available_seconds = 3600.0;
  options.mean_slot_reclaimed_seconds = 1800.0;
  auto& glideins = agent.enable_glideins(options);
  glideins.add_site(core::GlideInSite{"pool.site.edu",
                                      testbed.site(0).gatekeeper_address(),
                                      testbed.site(0).cluster, 8, 1});
  agent.start();

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 8; ++i) {
    core::JobDescription job;
    job.universe = core::Universe::kVanilla;
    job.runtime_seconds = 2 * 3600.0;  // longer than mean availability
    ids.push_back(agent.submit(job));
  }
  while (!agent.schedd().all_terminal() &&
         testbed.world().now() < 4 * 86400.0) {
    testbed.world().sim().run_until(testbed.world().now() + 300.0);
  }
  for (const auto id : ids) {
    EXPECT_EQ(agent.query(id)->status, core::JobStatus::kCompleted)
        << "job " << id;
  }
  // Preemption definitely happened, and checkpoints carried work across it.
  EXPECT_GE(agent.log().count(core::LogEventKind::kEvicted), 1u);
}

// ---------- Schedd secondary indexes ----------

namespace {

/// Brute-force (universe, status) id sets from a full queue scan, the
/// oracle the secondary indexes must always agree with.
void expect_index_matches_scan(const core::Schedd& schedd) {
  for (const core::Universe universe :
       {core::Universe::kGrid, core::Universe::kVanilla}) {
    for (const core::JobStatus status :
         {core::JobStatus::kIdle, core::JobStatus::kRunning,
          core::JobStatus::kCompleted, core::JobStatus::kHeld,
          core::JobStatus::kRemoved}) {
      std::vector<std::uint64_t> brute;
      for (const auto& [id, job] : schedd.jobs()) {
        if (job.desc.universe == universe && job.status == status) {
          brute.push_back(id);
        }
      }
      EXPECT_EQ(schedd.count(universe, status), brute.size());
      if (status == core::JobStatus::kIdle) {
        EXPECT_EQ(schedd.idle_jobs(universe), brute);
      }
    }
  }
  for (const core::JobStatus status :
       {core::JobStatus::kIdle, core::JobStatus::kRunning,
        core::JobStatus::kCompleted, core::JobStatus::kHeld,
        core::JobStatus::kRemoved}) {
    std::vector<std::uint64_t> brute;
    for (const auto& [id, job] : schedd.jobs()) {
      if (job.status == status) brute.push_back(id);
    }
    EXPECT_EQ(schedd.jobs_with_status(status), brute);
    EXPECT_EQ(schedd.count(status), brute.size());
  }
}

}  // namespace

TEST(ScheddIndex, RandomizedTransitionsMatchBruteForceScan) {
  cs::World world;
  cs::Host& host = world.add_host("submit");
  core::Schedd schedd(host);
  condorg::util::Rng rng(77);
  const core::JobStatus kStatuses[] = {
      core::JobStatus::kIdle, core::JobStatus::kRunning,
      core::JobStatus::kCompleted, core::JobStatus::kHeld,
      core::JobStatus::kRemoved};

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 120; ++i) {
    core::JobDescription desc;
    desc.universe = rng.below(2) == 0 ? core::Universe::kGrid
                                      : core::Universe::kVanilla;
    ids.push_back(schedd.submit(desc));
  }
  for (int step = 0; step < 2000; ++step) {
    const std::uint64_t id = ids[rng.below(ids.size())];
    const core::JobStatus next = kStatuses[rng.below(5)];
    schedd.with_job(id, [next](core::Job& job) {
      job.status = next;
      if (next == core::JobStatus::kHeld) job.hold_reason = "test";
    });
    if (step % 250 == 0) expect_index_matches_scan(schedd);
  }
  expect_index_matches_scan(schedd);
  std::vector<std::string> problems;
  schedd.audit(problems);
  for (const std::string& problem : problems) {
    EXPECT_TRUE(problem.find("index") == std::string::npos &&
                problem.find("count cache") == std::string::npos)
        << problem;
  }
  // The index-size gauge tracks the queue size.
  EXPECT_EQ(host.metrics()
                .gauge("schedd_index_size", {{"host", "submit"}})
                .value(),
            static_cast<double>(ids.size()));
}

TEST(ScheddIndex, ReloadAfterCrashRebuildsIndexes) {
  cs::World world;
  cs::Host& host = world.add_host("submit");
  core::Schedd schedd(host);
  core::JobDescription vanilla;
  vanilla.universe = core::Universe::kVanilla;
  const auto a = schedd.submit(vanilla);
  core::JobDescription grid;
  grid.universe = core::Universe::kGrid;
  const auto b = schedd.submit(grid);
  const auto c = schedd.submit(grid);
  schedd.mark_grid_submitted(b, 1, "site", "site:1");
  schedd.mark_completed(b);
  schedd.hold(c, "why");
  host.crash();
  host.restart();
  expect_index_matches_scan(schedd);
  EXPECT_EQ(schedd.idle_jobs(core::Universe::kGrid).size(), 0u);
  EXPECT_EQ(schedd.count(core::Universe::kGrid, core::JobStatus::kCompleted),
            1u);
  EXPECT_EQ(schedd.count(core::Universe::kGrid, core::JobStatus::kHeld), 1u);
  (void)a;
}

// ---------- pipelined submission ----------

namespace {

/// One 8-cpu site + an agent with a tight per-site pipeline cap.
struct PipelineFixture : public ::testing::Test {
  static constexpr std::size_t kCap = 4;

  PipelineFixture() : testbed(42) {
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
    core::AgentOptions options;
    options.gridmanager.max_pending_per_site = kCap;
    agent = std::make_unique<core::CondorGAgent>(testbed.world(),
                                                 "submit.wisc.edu", options);
    agent->set_site_chooser(core::make_static_chooser(testbed.gatekeepers()));
    agent->start();
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

  std::size_t total_site_executions() const {
    std::size_t n = 0;
    for (const auto& site : testbed.sites()) {
      for (const auto& record : site->scheduler->history()) {
        if (record.state == condorg::batch::JobState::kCompleted) ++n;
      }
    }
    return n;
  }

  cw::GridTestbed testbed;
  std::unique_ptr<core::CondorGAgent> agent;
};

}  // namespace

TEST_F(PipelineFixture, StormRespectsPerSiteDepthCapAndCompletes) {
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 40; ++i) ids.push_back(agent->submit(grid_job()));
  run_to_completion(120000.0);
  for (const auto id : ids) {
    EXPECT_EQ(agent->query(id)->status, core::JobStatus::kCompleted)
        << "job " << id;
  }
  EXPECT_EQ(total_site_executions(), 40u);
  // The depth gauge never exceeded the configured cap at either site.
  for (const char* site : {"pbs.anl.gov", "lsf.ncsa.edu"}) {
    EXPECT_LE(agent->host()
                  .metrics()
                  .gauge("submit_pipeline_depth",
                         {{"user", "user"}, {"site", site}})
                  .peak(),
              static_cast<double>(kCap))
        << site;
    EXPECT_EQ(agent->gridmanager().pipeline_depth(site), 0u) << site;
  }
  // The PENDING-at-site watch drained along with the queue (no leak).
  EXPECT_EQ(agent->gridmanager().pending_watch_size(), 0u);
}

TEST_F(PipelineFixture, SharedExecutableStagesOncePerSite) {
  // 24 jobs, one executable: the per-site cache must coalesce staging to
  // one wire transfer per site.
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 24; ++i) {
    core::JobDescription desc = grid_job();
    desc.executable = "sweep.bin";
    ids.push_back(agent->submit(desc));
  }
  run_to_completion(120000.0);
  for (const auto id : ids) {
    ASSERT_EQ(agent->query(id)->status, core::JobStatus::kCompleted)
        << "job " << id;
  }
  EXPECT_EQ(agent->gridmanager().gass().gets_served(), 2u);  // one per site

  // A different executable is a different artifact: staged afresh.
  core::JobDescription changed = grid_job();
  changed.executable = "sweep-v2.bin";
  changed.grid_site = "pbs.anl.gov";
  const auto id = agent->submit(changed);
  run_to_completion(240000.0);
  EXPECT_EQ(agent->query(id)->status, core::JobStatus::kCompleted);
  EXPECT_EQ(agent->gridmanager().gass().gets_served(), 3u);
  // Cache metrics surfaced per site.
  std::uint64_t hits = 0;
  for (const char* site : {"pbs.anl.gov", "lsf.ncsa.edu"}) {
    hits += testbed.world()
                .sim()
                .metrics()
                .counter_value("staging_cache_hits{site=" +
                               std::string(site) + "}");
  }
  EXPECT_EQ(hits, 22u);  // 25 stage-ins, 3 wire transfers
}

TEST_F(PipelineFixture, SubmitMachineCrashMidStormStaysExactlyOnce) {
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 12; ++i) ids.push_back(agent->submit(grid_job(600.0)));
  // Crash while the first pipeline of submits is still in flight, before
  // most acks landed; the persisted seqs must re-drive without duplicates.
  testbed.world().sim().schedule_at(60.5, [&] { agent->host().crash(); });
  testbed.world().sim().schedule_at(100.0, [&] { agent->host().restart(); });
  run_to_completion(240000.0);
  for (const auto id : ids) {
    EXPECT_EQ(agent->query(id)->status, core::JobStatus::kCompleted)
        << "job " << id;
  }
  EXPECT_EQ(total_site_executions(), 12u);
  EXPECT_EQ(agent->gridmanager().pending_watch_size(), 0u);
}

// ---------- per-host liveness probe of glide-in claims ----------

namespace {

/// A one-site personal pool whose glide-ins all land on pool.wisc.edu's
/// cluster host; the runner's Shadows use the default 120 s probe.
struct GlideInPool {
  GlideInPool(int slots, double checkpoint_interval) : testbed(31) {
    cw::SiteSpec site;
    site.name = "pool.wisc.edu";
    site.cpus = slots;
    testbed.add_site(site);
    testbed.add_submit_host("submit");
    agent = std::make_unique<core::CondorGAgent>(testbed.world(), "submit");
    core::GlideInOptions options;
    options.tick_interval = 60.0;
    options.checkpoint_interval = checkpoint_interval;
    auto& glideins = agent->enable_glideins(options);
    glideins.add_site(core::GlideInSite{"pool.wisc.edu",
                                        testbed.site(0).gatekeeper_address(),
                                        testbed.site(0).cluster, slots, 1});
    agent->start();
  }

  /// Submit `n` vanilla jobs and step until every one of them runs.
  std::vector<std::uint64_t> submit_and_run(int n, double runtime) {
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < n; ++i) {
      core::JobDescription desc;
      desc.universe = core::Universe::kVanilla;
      desc.runtime_seconds = runtime;
      ids.push_back(agent->submit(desc));
    }
    const auto running = [&] {
      return std::all_of(ids.begin(), ids.end(), [&](std::uint64_t id) {
        return agent->query(id)->status == core::JobStatus::kRunning;
      });
    };
    while (!running() && testbed.world().now() < 3 * 3600.0) {
      testbed.world().sim().run_until(testbed.world().now() + 10.0);
    }
    EXPECT_TRUE(running());
    return ids;
  }

  cs::Host& cluster() { return *testbed.site(0).cluster; }

  /// The job ids of the job ads in the agent's Collector.
  std::set<std::uint64_t> job_ad_ids() {
    std::set<std::uint64_t> ids;
    for (const auto& [name, entry] : agent->collector().live_ads()) {
      if (!entry.ad->contains("JobUniverse")) continue;
      ids.insert(static_cast<std::uint64_t>(*entry.ad->eval_int("JobId")));
    }
    return ids;
  }

  cw::GridTestbed testbed;
  std::unique_ptr<core::CondorGAgent> agent;
};

}  // namespace

TEST(GlideInProbe, ClaimsOnOneClusterHostShareOneProbePerInterval) {
  GlideInPool pool(8, 600.0);
  pool.submit_and_run(8, 3600.0);
  std::size_t probes = 0;
  std::size_t widest = 0;
  std::set<std::string> responders;
  pool.testbed.world().net().set_delivery_tap([&](const cs::Message& m) {
    if (m.type == "startd.status_all") {
      ++probes;
      responders.insert(m.to.str());
      widest = std::max(
          widest, condorg::util::split(m.body.get("startds"), ',').size());
    }
    EXPECT_NE(m.type, "startd.status");
  });
  cs::Simulation& sim = pool.testbed.world().sim();
  sim.run_until(sim.now() + 1200.0);
  // One probe per 120 s interval (plus its round trip) for all 8 claims,
  // where per-claim polls would be 80.
  EXPECT_GE(probes, 9u);
  EXPECT_LE(probes, 10u);
  EXPECT_EQ(widest, 8u);
  EXPECT_EQ(responders,
            std::set<std::string>{pool.cluster().name() + "/glidein.starter"});
}

TEST(GlideInProbe, RestartedStarterAnswersMissingAndTheClaimIsLost) {
  GlideInPool pool(2, 600.0);
  const auto ids = pool.submit_and_run(2, 3600.0);
  cs::Simulation& sim = pool.testbed.world().sim();
  // Crash the node just after a probe was answered, so every probe until
  // the requeue reaches the restarted starter.
  double answered_at = -1.0;
  std::size_t missing = 0;
  pool.testbed.world().net().set_delivery_tap([&](const cs::Message& m) {
    if (m.type != "startd.status_all.reply") return;
    answered_at = sim.now();
    for (const std::string& state :
         condorg::util::split(m.body.get("states"), ',')) {
      if (state == "MISSING") ++missing;
    }
  });
  const double since = sim.now();
  while (answered_at < since) sim.run_until(sim.now() + 1.0);
  const double crashed_at = sim.now();
  pool.cluster().crash_for(10.0);
  while (pool.agent->log().count(core::LogEventKind::kEvicted) < 2 &&
         sim.now() < crashed_at + 1800.0) {
    sim.run_until(sim.now() + 10.0);
  }
  // Three MISSING answers per claim (kMaxMissedPolls), one per interval.
  EXPECT_EQ(missing, 6u);
  EXPECT_LE(sim.now(), crashed_at + 3 * 121.0 + 20.0);
  std::set<std::uint64_t> lost;
  for (const auto& event : pool.agent->log().events()) {
    if (event.kind != core::LogEventKind::kEvicted) continue;
    EXPECT_EQ(event.detail, "claim lost");
    lost.insert(event.job_id);
  }
  EXPECT_EQ(lost, std::set<std::uint64_t>(ids.begin(), ids.end()));
}

TEST(GlideInProbe, NodeCrashRequeuesFromTheLastProbedProgress) {
  // No periodic checkpoints: the probe's work_done is the only progress
  // the submit side learns before the node dies.
  GlideInPool pool(1, 0.0);
  const auto ids = pool.submit_and_run(1, 3600.0);
  cs::Simulation& sim = pool.testbed.world().sim();
  double last_work = 0.0;
  pool.testbed.world().net().set_delivery_tap([&](const cs::Message& m) {
    if (m.type != "startd.status_all.reply") return;
    last_work = std::max(last_work,
                         std::strtod(m.body.get("work").c_str(), nullptr));
  });
  sim.run_until(sim.now() + 1000.0);
  ASSERT_GT(last_work, 0.0);
  const double probed = last_work;
  pool.cluster().crash();
  while (pool.agent->log().count(core::LogEventKind::kEvicted) == 0 &&
         sim.now() < 20000.0) {
    sim.run_until(sim.now() + 10.0);
  }
  EXPECT_GE(pool.agent->query(ids[0])->checkpointed_work, probed);
  for (const auto& event : pool.agent->log().events()) {
    if (event.kind != core::LogEventKind::kEvicted) continue;
    EXPECT_EQ(event.detail, "execution machine lost");
    break;
  }
}

// A submit-host crash kills every Shadow, and the Collector loses the job
// ads with it. The first cycle after the restart writes one job ad for each
// Idle vanilla job and no other, and every job still terminates once.
TEST(GlideIn, SubmitHostCrashRequeuesVanillaJobsOnce) {
  GlideInPool pool(8, 600.0);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 12; ++i) {
    core::JobDescription desc;
    desc.universe = core::Universe::kVanilla;
    desc.runtime_seconds = 3600.0;
    ids.push_back(pool.agent->submit(desc));
  }
  cs::Simulation& sim = pool.testbed.world().sim();
  core::Schedd& schedd = pool.agent->schedd();
  sim.run_until(1500.0);
  ASSERT_EQ(schedd.count(core::Universe::kVanilla, core::JobStatus::kRunning),
            8u);
  ASSERT_EQ(schedd.count(core::Universe::kVanilla, core::JobStatus::kIdle),
            4u);

  condorg::condor::Negotiator& negotiator = pool.agent->vanilla().negotiator();
  const std::uint64_t cycles = negotiator.cycles();
  pool.agent->host().crash_for(120.0);
  while (negotiator.cycles() == cycles && sim.now() < 2000.0) {
    sim.run_until(sim.now() + 1.0);
  }
  const std::vector<std::uint64_t> idle =
      schedd.idle_jobs(core::Universe::kVanilla);
  EXPECT_EQ(idle.size(), 12u);
  EXPECT_EQ(pool.job_ad_ids(),
            std::set<std::uint64_t>(idle.begin(), idle.end()));

  while (!schedd.all_terminal() && sim.now() < 6 * 3600.0) {
    sim.run_until(sim.now() + 60.0);
  }
  std::map<std::uint64_t, int> terminated;
  for (const auto& event : pool.agent->log().events()) {
    if (event.kind == core::LogEventKind::kTerminated) {
      ++terminated[event.job_id];
    }
  }
  for (const std::uint64_t id : ids) {
    EXPECT_EQ(pool.agent->query(id)->status, core::JobStatus::kCompleted)
        << "job " << id;
    EXPECT_EQ(terminated[id], 1) << "job " << id;
  }
}
