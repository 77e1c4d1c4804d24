// Portal front-end: batched admission, backpressure, exactly-once.
//
// The portal persists every admission before acknowledging and the runner
// persists a delivery marker before acknowledging, so a lost ack on either
// hop is retried and absorbed — no schedule of crashes may ever admit a
// user's batch into their Schedd twice (explore.portal_storm model-checks
// the same property across systematic crash injection).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "condorg/classad/parser.h"
#include "condorg/condor/collector.h"
#include "condorg/core/pool_runner.h"
#include "condorg/core/portal.h"
#include "condorg/core/portal_client.h"
#include "condorg/core/schedd.h"
#include "condorg/sim/world.h"

namespace ca = condorg::classad;
namespace cc = condorg::condor;
namespace co = condorg::core;
namespace cs = condorg::sim;

namespace {

struct PortalFixture : public ::testing::Test {
  struct User {
    std::unique_ptr<co::Schedd> schedd;
    std::unique_ptr<co::PoolRunner> runner;
    std::unique_ptr<co::PortalClient> client;
  };

  PortalFixture()
      : central(world.add_host("portal.grid")),
        feeder(world.add_host("feeder.grid")),
        collector(central, world.net()) {}

  void make_portal(co::PortalOptions options = {}) {
    portal = std::make_unique<co::Portal>(central, world.net(), options);
    portal->start();
  }

  User& add_user(const std::string& name, std::uint64_t total_jobs,
                 std::uint64_t batch_size = 2) {
    auto user = std::make_unique<User>();
    cs::Host& host = world.add_host(name + ".grid");
    user->schedd = std::make_unique<co::Schedd>(host);

    co::PoolRunnerOptions ropt;
    ropt.collector = collector.address();
    ropt.advertise_period = 30.0;
    user->runner =
        std::make_unique<co::PoolRunner>(*user->schedd, world.net(), ropt);
    user->runner->start();

    co::PortalClientOptions copt;
    copt.portal = portal->address();
    copt.deliver_to = user->runner->address();
    copt.user = name;
    copt.total_jobs = total_jobs;
    copt.batch_size = batch_size;
    copt.retry_backoff = 3.0;
    user->client =
        std::make_unique<co::PortalClient>(host, world.net(), copt);
    user->client->start();

    users.push_back(std::move(user));
    return *users.back();
  }

  /// Raw portal.submit, bypassing the client (for dup/busy paths). The
  /// reply routes to an unregistered service and is dropped.
  void raw_submit(const std::string& user, std::uint64_t seq,
                  std::uint64_t count, const std::string& deliver_to) {
    cs::Message message;
    message.from = {feeder.name(), "test"};
    message.to = portal->address();
    message.type = "portal.submit";
    message.body.set("user", user);
    message.body.set_uint("seq", seq);
    message.body.set_uint("count", count);
    message.body.set("deliver_to", deliver_to);
    message.body.set("rpc.reply_to", feeder.name() + "/test");
    message.body.set_uint("rpc.id", seq);
    world.net().send(std::move(message));
  }

  void run_for(double seconds) {
    world.sim().run_until(world.now() + seconds);
  }

  cs::World world{17};
  cs::Host& central;
  cs::Host& feeder;
  cc::Collector collector;
  std::unique_ptr<co::Portal> portal;
  std::vector<std::unique_ptr<User>> users;
};

TEST_F(PortalFixture, BatchesFlowIntoPerUserSchedds) {
  make_portal();
  User& ada = add_user("ada", 4);
  User& bob = add_user("bob", 3);
  run_for(120.0);

  EXPECT_TRUE(ada.client->drained());
  EXPECT_TRUE(bob.client->drained());
  EXPECT_EQ(ada.schedd->jobs().size(), 4u);
  EXPECT_EQ(bob.schedd->jobs().size(), 3u);
  EXPECT_EQ(portal->jobs_admitted(), 7u);
  EXPECT_EQ(portal->queue_depth(), 0u);  // everything delivered
  EXPECT_EQ(portal->deliveries_acked(), portal->batches_admitted());
  EXPECT_EQ(ada.runner->duplicate_deliveries(), 0u);
  // Each runner published its first idle job as an ad in the central pool.
  EXPECT_EQ(collector
                .query(ca::parse_expr(
                    "JobUniverse == \"Vanilla\" && JobStatus == \"Idle\""))
                .size(),
            2u);
}

TEST_F(PortalFixture, DuplicateSubmitIsAbsorbedByTheAdmissionRecord) {
  make_portal();
  raw_submit("ada", 1, 2, "nowhere.grid/pool_runner");
  run_for(2.0);
  EXPECT_EQ(portal->jobs_admitted(), 2u);

  // Client retry after a lost ack: same user, same seq.
  raw_submit("ada", 1, 2, "nowhere.grid/pool_runner");
  run_for(2.0);
  EXPECT_EQ(portal->duplicate_submits(), 1u);
  EXPECT_EQ(portal->jobs_admitted(), 2u) << "dup must not re-admit";
  EXPECT_EQ(portal->queue_depth(), 1u);
}

TEST_F(PortalFixture, FullQueueRejectsBusy) {
  co::PortalOptions options;
  options.max_queue_depth = 2;
  make_portal(options);

  // Deliveries to a host that does not exist keep the queue full.
  raw_submit("ada", 1, 1, "nowhere.grid/pool_runner");
  raw_submit("ada", 2, 1, "nowhere.grid/pool_runner");
  run_for(2.0);
  EXPECT_EQ(portal->queue_depth(), 2u);

  raw_submit("ada", 3, 1, "nowhere.grid/pool_runner");
  run_for(2.0);
  EXPECT_EQ(portal->busy_rejections(), 1u);
  EXPECT_EQ(portal->queue_depth(), 2u);
  EXPECT_EQ(portal->batches_admitted(), 2u);
}

TEST_F(PortalFixture, RunnerAtCapacityRejectsDeliveryUntilSpaceFrees) {
  make_portal();
  User& ada = add_user("ada", 6, /*batch_size=*/6);
  // max_active defaults to 8 >= 6, so one oversized batch fits; shrink it.
  // Rebuild the runner with a tight cap instead.
  co::PoolRunnerOptions ropt;
  ropt.collector = collector.address();
  ropt.max_active = 4;
  ada.runner = nullptr;  // unregister first (one service name per host)
  ada.runner = std::make_unique<co::PoolRunner>(*ada.schedd, world.net(),
                                                ropt);
  ada.runner->start();

  run_for(120.0);
  // The 6-job batch can never fit under max_active=4: it stays queued at
  // the portal and the runner keeps rejecting it busy.
  EXPECT_EQ(ada.schedd->jobs().size(), 0u);
  EXPECT_EQ(portal->queue_depth(), 1u);
  EXPECT_GT(ada.runner->busy_rejections(), 0u);
}

TEST_F(PortalFixture, PortalCrashNeverDuplicatesAdmission) {
  make_portal();
  User& ada = add_user("ada", 4, /*batch_size=*/1);
  User& bob = add_user("bob", 4, /*batch_size=*/1);

  // Crash the portal host twice mid-stream; the persisted admission +
  // pending records survive, the clients retry lost acks, the runner
  // markers absorb redeliveries.
  world.sim().schedule_at(3.0, [this] { central.crash_for(5.0); });
  world.sim().schedule_at(20.0, [this] { central.crash_for(5.0); });
  run_for(300.0);

  EXPECT_TRUE(ada.client->drained());
  EXPECT_TRUE(bob.client->drained());
  EXPECT_EQ(ada.schedd->jobs().size(), 4u) << "exactly once, no dups";
  EXPECT_EQ(bob.schedd->jobs().size(), 4u);
  EXPECT_EQ(portal->queue_depth(), 0u);
}

TEST_F(PortalFixture, SubmitHostCrashResumesWithoutDoubleSubmitting) {
  make_portal();
  User& ada = add_user("ada", 4, /*batch_size=*/1);

  world.sim().schedule_at(4.0, [this] {
    world.host("ada.grid").crash_for(6.0);
  });
  run_for(300.0);

  // The client's persisted progress and the runner's delivery markers mean
  // the rebooted submit host picks up where it left off.
  EXPECT_TRUE(ada.client->drained());
  EXPECT_EQ(ada.schedd->jobs().size(), 4u);
}

}  // namespace
