#include <gtest/gtest.h>

#include <memory>

#include "condorg/classad/parser.h"
#include "condorg/condor/collector.h"
#include "condorg/condor/matcher.h"
#include "condorg/condor/pool_negotiator.h"
#include "condorg/condor/shadow.h"
#include "condorg/condor/shadow_monitor.h"
#include "condorg/condor/startd.h"
#include "condorg/sim/world.h"

namespace cc = condorg::condor;
namespace cs = condorg::sim;
namespace ca = condorg::classad;

namespace {

struct PoolFixture : public ::testing::Test {
  PoolFixture()
      : submit(world.add_host("submit.wisc.edu")),
        node1(world.add_host("node1")),
        node2(world.add_host("node2")),
        collector(submit, world.net()),
        monitor(submit, world.net(), shadow_options()) {}

  /// The Shadows' options: each execute host is probed every 30 s.
  static cc::ShadowOptions shadow_options() {
    cc::ShadowOptions options;
    options.poll_interval = 30.0;
    return options;
  }

  cc::StartdOptions slot_options(double advertise = 60.0) {
    cc::StartdOptions options;
    options.collector = collector.address();
    options.advertise_period = advertise;
    options.checkpoint_interval = 100.0;
    options.base_ad = ca::parse_ad("[Arch = \"X86_64\"; Memory = 512]");
    return options;
  }

  /// Run a shadow for a job on `startd`; returns the shadow for inspection.
  std::unique_ptr<cc::Shadow> run_shadow(
      const std::string& job_id, double work, double checkpoint,
      const cs::Address& startd, std::string* done = nullptr,
      std::string* requeue_reason = nullptr, double* requeue_ckpt = nullptr) {
    cc::ShadowJob job;
    job.job_id = job_id;
    job.total_work_seconds = work;
    job.checkpointed_work = checkpoint;
    auto shadow = std::make_unique<cc::Shadow>(
        monitor, job, startd, startd, job_id + ".claim1",
        [done](const std::string& id) {
          if (done) *done = id;
        },
        [requeue_reason, requeue_ckpt](const std::string&, double ckpt,
                                       const std::string& reason) {
          if (requeue_reason) *requeue_reason = reason;
          if (requeue_ckpt) *requeue_ckpt = ckpt;
        });
    shadow->start();
    return shadow;
  }

  cs::World world;
  cs::Host& submit;
  cs::Host& node1;
  cs::Host& node2;
  cc::Collector collector;
  /// Probes the execute hosts for every Shadow the test runs.
  cc::ShadowMonitor monitor;
};

}  // namespace

// ---------- Collector ----------

TEST_F(PoolFixture, StartdAdvertisesToCollector) {
  cc::Startd startd(node1, world.net(), "slot1@node1", slot_options());
  world.sim().run_until(5.0);
  EXPECT_EQ(collector.live_count(), 1u);
  const auto ads = collector.query();
  ASSERT_EQ(ads.size(), 1u);
  EXPECT_EQ(ads[0]->eval_string("Name"), "slot1@node1");
  EXPECT_EQ(ads[0]->eval_string("State"), "Unclaimed");
  EXPECT_EQ(ads[0]->eval_string("Arch"), "X86_64");
}

TEST_F(PoolFixture, DeadStartdAgesOut) {
  auto startd = std::make_unique<cc::Startd>(node1, world.net(),
                                             "slot1@node1", slot_options());
  world.sim().run_until(5.0);
  EXPECT_EQ(collector.live_count(), 1u);
  node1.crash();
  // TTL = 60 * 3 = 180s after the last ad.
  world.sim().run_until(400.0);
  EXPECT_EQ(collector.live_count(), 0u);
}

TEST_F(PoolFixture, CollectorQueryWithConstraint) {
  cc::Startd s1(node1, world.net(), "slot1@node1", slot_options());
  auto big = slot_options();
  big.base_ad = ca::parse_ad("[Arch = \"X86_64\"; Memory = 4096]");
  cc::Startd s2(node2, world.net(), "slot1@node2", big);
  world.sim().run_until(5.0);
  const auto ads = collector.query(ca::parse_expr("Memory > 1024"));
  ASSERT_EQ(ads.size(), 1u);
  EXPECT_EQ(ads[0]->eval_string("Name"), "slot1@node2");
}

TEST_F(PoolFixture, ReAdvertiseExtendsTtl) {
  // Repeated advertisements keep pushing the deadline; the collector's
  // expiry heap must discard the superseded (earlier) deadline nodes rather
  // than evict a live entry.
  cc::Startd startd(node1, world.net(), "slot1@node1", slot_options());
  world.sim().run_until(400.0);  // well past the first ad's 180s TTL
  EXPECT_EQ(collector.live_count(), 1u);
}

TEST_F(PoolFixture, InvalidateRemovesDespitePendingDeadline) {
  cc::Startd startd(node1, world.net(), "slot1@node1", slot_options());
  world.sim().run_until(5.0);
  ASSERT_EQ(collector.live_count(), 1u);
  node1.crash();  // stop further advertisements
  collector.invalidate("slot1@node1");
  EXPECT_EQ(collector.live_count(), 0u);
  // The orphaned deadline node must age out harmlessly.
  world.sim().run_until(400.0);
  EXPECT_EQ(collector.live_count(), 0u);
}

TEST_F(PoolFixture, QueryConstraintAgreesWithPerAdEvaluation) {
  cc::Startd s1(node1, world.net(), "slot1@node1", slot_options());
  auto big = slot_options();
  big.base_ad = ca::parse_ad("[Arch = \"X86_64\"; Memory = 4096]");
  cc::Startd s2(node2, world.net(), "slot1@node2", big);
  world.sim().run_until(5.0);
  const auto constraint = ca::parse_expr("Memory > 1024");
  const auto all = collector.query();
  const auto filtered = collector.query(constraint);
  std::vector<std::string> expected;
  for (const auto& ad : all) {
    const ca::Value v = constraint->evaluate(ad.get(), nullptr);
    if (v.is_bool() && v.as_bool()) expected.push_back(*ad->eval_string("Name"));
  }
  std::vector<std::string> got;
  for (const auto& ad : filtered) got.push_back(*ad->eval_string("Name"));
  EXPECT_EQ(got, expected);
  // Name-ordered results: the map key order is the query contract.
  EXPECT_EQ(all.size(), 2u);
  EXPECT_EQ(*all[0]->eval_string("Name"), "slot1@node1");
  EXPECT_EQ(*all[1]->eval_string("Name"), "slot1@node2");
}

// ---------- claim / activate / complete ----------

TEST_F(PoolFixture, JobRunsToCompletion) {
  cc::Startd startd(node1, world.net(), "slot1@node1", slot_options());
  std::string done;
  auto shadow = run_shadow("job1", 500.0, 0.0, startd.address(), &done);
  world.sim().run_until(600.0);
  EXPECT_EQ(done, "job1");
  EXPECT_EQ(shadow->outcome(), cc::Shadow::Outcome::kDone);
  EXPECT_EQ(startd.jobs_completed(), 1u);
  EXPECT_EQ(startd.state(), cc::Startd::State::kUnclaimed);
  EXPECT_DOUBLE_EQ(shadow->last_checkpoint(), 500.0);
}

TEST_F(PoolFixture, SecondClaimOnClaimedSlotFails) {
  cc::Startd startd(node1, world.net(), "slot1@node1", slot_options());
  std::string done1;
  auto shadow1 = run_shadow("job1", 500.0, 0.0, startd.address(), &done1);
  world.sim().run_until(10.0);
  ASSERT_EQ(startd.state(), cc::Startd::State::kRunning);
  std::string reason;
  auto shadow2 = run_shadow("job2", 500.0, 0.0, startd.address(), nullptr,
                            &reason);
  world.sim().run_until(50.0);
  EXPECT_EQ(shadow2->outcome(), cc::Shadow::Outcome::kRequeued);
  EXPECT_EQ(reason, "claim failed");
  world.sim().run_until(600.0);
  EXPECT_EQ(done1, "job1");  // original job unaffected
}

TEST_F(PoolFixture, CheckpointsFlowToShadow) {
  cc::Startd startd(node1, world.net(), "slot1@node1", slot_options());
  std::string done;
  auto shadow = run_shadow("job1", 450.0, 0.0, startd.address(), &done);
  world.sim().run_until(250.0);
  // checkpoint_interval = 100: at least two periodic checkpoints by now.
  EXPECT_GE(shadow->checkpoints_received(), 2u);
  EXPECT_GT(shadow->last_checkpoint(), 100.0);
  world.sim().run_until(600.0);
  EXPECT_EQ(done, "job1");
}

TEST_F(PoolFixture, ResumeFromCheckpointRunsOnlyRemainder) {
  cc::Startd startd(node1, world.net(), "slot1@node1", slot_options());
  std::string done;
  // 1000s of total work, 800 already checkpointed elsewhere.
  auto shadow = run_shadow("job1", 1000.0, 800.0, startd.address(), &done);
  world.sim().run_until(300.0);  // 200s of work + protocol overhead
  EXPECT_EQ(done, "job1");
}

// ---------- eviction & migration ----------

TEST_F(PoolFixture, AllocationExpiryEvictsWithCheckpointAndExits) {
  auto options = slot_options();
  options.allocation_expires_at = 300.0;  // glide-in batch slot ends
  cc::Startd startd(node1, world.net(), "glidein1@node1", options);
  std::string reason;
  double ckpt = -1;
  auto shadow =
      run_shadow("job1", 10000.0, 0.0, startd.address(), nullptr, &reason,
                 &ckpt);
  world.sim().run_until(400.0);
  EXPECT_EQ(reason, "allocation expired");
  // Eviction checkpoint captured nearly all the work done (~300s minus
  // claim/activate protocol time).
  EXPECT_GT(ckpt, 290.0);
  EXPECT_LT(ckpt, 301.0);
  EXPECT_TRUE(startd.exited());
  EXPECT_EQ(startd.evictions(), 1u);
  world.sim().run_until(1000.0);
  EXPECT_EQ(collector.live_count(), 0u);  // explicit invalidation
}

TEST_F(PoolFixture, MigrationConservesWork) {
  // Run on node1 until eviction, then resume on node2 from the checkpoint;
  // total computation must equal the job's demand, not more.
  auto options1 = slot_options();
  options1.allocation_expires_at = 300.0;
  cc::Startd startd1(node1, world.net(), "s1@node1", options1);

  std::string reason;
  double ckpt = 0;
  auto shadow1 =
      run_shadow("job1", 600.0, 0.0, startd1.address(), nullptr, &reason,
                 &ckpt);
  world.sim().run_until(400.0);
  ASSERT_EQ(reason, "allocation expired");
  ASSERT_GT(ckpt, 0.0);

  cc::Startd startd2(node2, world.net(), "s2@node2", slot_options());
  std::string done;
  double done_at = -1;
  const double resumed_at = world.now();
  cc::ShadowJob job;
  job.job_id = "job1";
  job.total_work_seconds = 600.0;
  job.checkpointed_work = ckpt;
  auto shadow3 = std::make_unique<cc::Shadow>(
      monitor, job, startd2.address(), startd2.address(), "job1.claim2",
      [&](const std::string& id) {
        done = id;
        done_at = world.now();
      },
      nullptr);
  shadow3->start();
  world.sim().run_until(world.now() + 700.0);
  EXPECT_EQ(done, "job1");
  // Only the remaining 600 - ckpt (~300s) of work ran on node2, not the
  // full 600: migration conserved the checkpointed work.
  ASSERT_GT(done_at, 0.0);
  EXPECT_LT(done_at - resumed_at, (600.0 - ckpt) + 60.0);
  EXPECT_GT(done_at - resumed_at, (600.0 - ckpt) - 10.0);
}

TEST_F(PoolFixture, OwnerReturnEvictsJob) {
  auto options = slot_options();
  options.owner_activity = true;
  options.mean_owner_away_seconds = 200.0;
  options.mean_owner_busy_seconds = 100.0;
  cc::Startd startd(node1, world.net(), "desktop@node1", options);
  std::string reason;
  auto shadow = run_shadow("job1", 1e6, 0.0, startd.address(), nullptr,
                           &reason);
  world.sim().run_until(5000.0);
  EXPECT_EQ(reason, "owner returned");
  EXPECT_GE(startd.evictions(), 1u);
}

TEST_F(PoolFixture, NodeCrashDetectedByPolling) {
  cc::Startd startd(node1, world.net(), "slot1@node1", slot_options());
  std::string reason;
  double ckpt = -1;
  auto shadow = run_shadow("job1", 10000.0, 0.0, startd.address(), nullptr,
                           &reason, &ckpt);
  world.sim().run_until(350.0);
  node1.crash();  // no eviction notice, no checkpoint message
  world.sim().run_until(1000.0);
  EXPECT_EQ(reason, "execution machine lost");
  // Progress bounded by the last checkpoint/poll before the crash.
  EXPECT_GE(ckpt, 200.0);
  EXPECT_LE(ckpt, 350.0);
}

// ---------- glide-in lifecycle ----------

TEST_F(PoolFixture, IdleGlideInShutsDownGracefully) {
  auto options = slot_options();
  options.idle_timeout = 600.0;
  bool exited = false;
  cc::Startd startd(node1, world.net(), "glidein@node1", options,
                    [&] { exited = true; });
  world.sim().run_until(1000.0);
  EXPECT_TRUE(exited);
  EXPECT_TRUE(startd.exited());
  EXPECT_EQ(collector.live_count(), 0u);
}

TEST_F(PoolFixture, BusyGlideInDoesNotIdleOut) {
  auto options = slot_options();
  options.idle_timeout = 600.0;
  cc::Startd startd(node1, world.net(), "glidein@node1", options);
  std::string done;
  auto shadow = run_shadow("job1", 2000.0, 0.0, startd.address(), &done);
  world.sim().run_until(2200.0);
  EXPECT_EQ(done, "job1");  // survived past the idle timeout while busy
}

// ---------- remote syscalls ----------

TEST_F(PoolFixture, RemoteIoFlowsToShadow) {
  auto options = slot_options();
  options.io_interval = 50.0;
  options.io_bytes_per_op = 1 << 20;
  cc::Startd startd(node1, world.net(), "slot1@node1", options);
  std::string done;
  auto shadow = run_shadow("job1", 500.0, 0.0, startd.address(), &done);
  world.sim().run_until(700.0);
  EXPECT_EQ(done, "job1");
  EXPECT_GE(shadow->io_ops(), 8u);
  EXPECT_EQ(shadow->io_bytes(), shadow->io_ops() * (1u << 20));
}

// ---------- negotiator ----------

TEST_F(PoolFixture, MatchJobsToSlotsRespectsRequirementsAndRank) {
  std::vector<cc::IdleJob> jobs;
  jobs.push_back(
      {"j1", ca::parse_ad("[Requirements = other.Memory >= 1024; Rank = "
                          "other.Memory]")});
  jobs.push_back({"j2", ca::parse_ad("[Requirements = true]")});
  std::vector<ca::ClassAd> slots;
  slots.push_back(ca::parse_ad("[Name = \"small\"; Memory = 512]"));
  slots.push_back(ca::parse_ad("[Name = \"big\"; Memory = 4096]"));
  slots.push_back(ca::parse_ad("[Name = \"huge\"; Memory = 8192]"));
  const auto matches = cc::match_jobs_to_slots(jobs, slots);
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0].job_id, "j1");
  EXPECT_EQ(matches[0].slot_ad.eval_string("Name"), "huge");  // rank
  EXPECT_EQ(matches[1].job_id, "j2");  // takes any remaining slot
}

TEST_F(PoolFixture, MatchDoesNotReuseSlots) {
  std::vector<cc::IdleJob> jobs = {{"a", ca::ClassAd{}},
                                   {"b", ca::ClassAd{}},
                                   {"c", ca::ClassAd{}}};
  std::vector<ca::ClassAd> slots = {ca::parse_ad("[Name = \"one\"]"),
                                    ca::parse_ad("[Name = \"two\"]")};
  const auto matches = cc::match_jobs_to_slots(jobs, slots);
  EXPECT_EQ(matches.size(), 2u);
  EXPECT_NE(matches[0].slot_ad.eval_string("Name"),
            matches[1].slot_ad.eval_string("Name"));
}

TEST_F(PoolFixture, NegotiatorCyclesMatchIdleJobs) {
  cc::Startd s1(node1, world.net(), "s1@node1", slot_options());
  cc::Startd s2(node2, world.net(), "s2@node2", slot_options());

  const auto job = std::make_shared<const ca::ClassAd>(ca::parse_ad(
      "[JobUniverse = \"Vanilla\"; User = \"u\"; "
      "Requirements = other.Arch == \"X86_64\"]"));
  // The sync hook runs before the cycle reads the Collector, so the job
  // ads it writes are matched in that same cycle.
  int syncs = 0;
  std::vector<std::string> matched;
  cc::PoolNegotiator negotiator(
      submit, collector,
      [&] {
        if (syncs++ > 0) return;
        collector.put_local("j1", job);
        collector.put_local("j2", job);
      },
      [&](const cc::Match& m, const cc::Collector::Entry& entry) {
        EXPECT_EQ(collector.user_name(entry.user), "u");
        matched.push_back(m.job_id);
      });
  world.sim().run_until(5.0);  // let the slot ads arrive
  EXPECT_EQ(negotiator.negotiate_once(), 2u);
  EXPECT_EQ(matched, (std::vector<std::string>{"j1", "j2"}));
  EXPECT_EQ(negotiator.matches_made(), 2u);
  // Both sides are held until the claims show up: no second match.
  EXPECT_EQ(negotiator.negotiate_once(), 0u);
  EXPECT_EQ(syncs, 2);
}

TEST_F(PoolFixture, NegotiatorSkipsClaimedSlots) {
  cc::Startd startd(node1, world.net(), "s1@node1", slot_options());
  std::string done;
  auto shadow = run_shadow("running", 1000.0, 0.0, startd.address(), &done);
  world.sim().run_until(70.0);  // job running; fresh ad says "Running"
  collector.put_local("idle", std::make_shared<const ca::ClassAd>(
                                  ca::parse_ad("[JobUniverse = \"Vanilla\"]")));
  std::vector<cc::Match> matched;
  cc::PoolNegotiator negotiator(
      submit, collector, nullptr,
      [&](const cc::Match& m, const cc::Collector::Entry&) {
        matched.push_back(m);
      });
  negotiator.negotiate_once();
  EXPECT_TRUE(matched.empty());
}

// A job ad written in place has no lease and is no advertisement: it
// outlives every TTL, ads_received() does not count it, and it changes the
// sequence like any other content change.
TEST_F(PoolFixture, LocalAdHasNoLeaseAndIsNotCounted) {
  const std::uint64_t seq = collector.change_seq();
  collector.put_local("job", std::make_shared<const ca::ClassAd>(
                                 ca::parse_ad("[JobUniverse = \"Vanilla\"]")));
  EXPECT_EQ(collector.change_seq(), seq + 1);
  world.sim().run_until(10 * 3600.0);
  ASSERT_EQ(collector.live_count(), 1u);
  EXPECT_EQ(collector.live_ads().at("job").seq, seq + 1);
  EXPECT_EQ(collector.ads_received(), 0u);
  collector.invalidate("job");
  EXPECT_EQ(collector.live_count(), 0u);
  EXPECT_EQ(collector.change_seq(), seq + 2);
}

// ---------- explicit shutdown request ----------

TEST_F(PoolFixture, ShutdownMessageEvictsAndExits) {
  cc::Startd startd(node1, world.net(), "slot1@node1", slot_options());
  std::string reason;
  double ckpt = -1;
  auto shadow = run_shadow("job1", 10000.0, 0.0, startd.address(), nullptr,
                           &reason, &ckpt);
  world.sim().run_until(500.0);
  ASSERT_EQ(startd.state(), cc::Startd::State::kRunning);
  // Remote shutdown request (what a pool drain would send).
  cs::RpcClient admin(submit, world.net(), "admin.rpc");
  bool acked = false;
  admin.call(startd.address(), "startd.shutdown", {}, 30.0,
             [&](cs::RpcOutcome outcome, const cs::Payload&) {
               acked = outcome == cs::RpcOutcome::kAnswered;
             });
  world.sim().run_until(700.0);
  EXPECT_TRUE(acked);
  EXPECT_TRUE(startd.exited());
  EXPECT_EQ(reason, "requested");
  EXPECT_GT(ckpt, 400.0);  // job left with a checkpoint
}

TEST_F(PoolFixture, ActivateWithWrongClaimRejected) {
  cc::Startd startd(node1, world.net(), "slot1@node1", slot_options());
  cs::RpcClient rogue(submit, world.net(), "rogue.rpc");
  cs::Payload claim;
  claim.set("claim_id", "legit");
  claim.set("job_id", "j");
  claim.set("shadow", "submit.wisc.edu/nowhere");
  bool claimed = false;
  rogue.call(startd.address(), "startd.claim", std::move(claim), 30.0,
             [&](cs::RpcOutcome outcome, const cs::Payload&) {
               claimed = outcome == cs::RpcOutcome::kAnswered;
             });
  world.sim().run_until(10.0);
  ASSERT_TRUE(claimed);
  cs::Payload activate;
  activate.set("claim_id", "FORGED");
  activate.set_double("total_work", 100);
  bool activated = true;
  rogue.call(startd.address(), "startd.activate", std::move(activate), 30.0,
             [&](cs::RpcOutcome outcome, const cs::Payload&) {
               activated = outcome == cs::RpcOutcome::kAnswered;
             });
  world.sim().run_until(20.0);
  EXPECT_FALSE(activated);
  EXPECT_EQ(startd.state(), cc::Startd::State::kClaimed);
}
