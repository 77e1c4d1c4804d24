// Portal front-end: batched admission, credit-based backpressure,
// exactly-once.
//
// The portal persists every admission before acknowledging and the runner
// persists a delivery marker before acknowledging, so a lost ack on either
// hop is retried and absorbed — no schedule of crashes may ever admit a
// user's batch into their Schedd twice (explore.portal_storm model-checks
// the same property across systematic crash injection). A runner at its
// cap turns a batch away once and owes the portal a durable credit; the
// portal delivers nothing to it until that credit arrives.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "condorg/classad/parser.h"
#include "condorg/condor/collector.h"
#include "condorg/condor/pool_negotiator.h"
#include "condorg/condor/startd.h"
#include "condorg/core/pool_runner.h"
#include "condorg/core/portal.h"
#include "condorg/core/portal_client.h"
#include "condorg/core/schedd.h"
#include "condorg/sim/rpc.h"
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

  /// A negotiator on the portal's host and `slots` Startds, so delivered
  /// jobs run, complete and free room under the runners' caps.
  void add_pool(int slots) {
    cc::PoolNegotiatorOptions nopt;
    nopt.cycle_period = 5.0;
    negotiator = std::make_unique<cc::PoolNegotiator>(central, world.net(),
                                                      collector, nopt);
    negotiator->start();
    for (int i = 0; i < slots; ++i) {
      cs::Host& node = world.add_host("node-" + std::to_string(i) + ".grid");
      cc::StartdOptions sopt;
      sopt.collector = collector.address();
      sopt.advertise_period = 30.0;
      sopt.base_ad = ca::parse_ad("[Arch = \"X86_64\"; Memory = 512]");
      startds.push_back(std::make_unique<cc::Startd>(
          node, world.net(), "slot" + std::to_string(i), sopt));
    }
  }

  User& add_user(const std::string& name, std::uint64_t total_jobs,
                 std::uint64_t batch_size = 2, std::size_t max_active = 8,
                 double runtime_seconds = 60.0) {
    auto user = std::make_unique<User>();
    cs::Host& host = world.add_host(name + ".grid");
    user->schedd = std::make_unique<co::Schedd>(host);

    co::PoolRunnerOptions ropt;
    ropt.collector = collector.address();
    ropt.advertise_period = 30.0;
    ropt.max_active = max_active;
    user->runner =
        std::make_unique<co::PoolRunner>(*user->schedd, world.net(), ropt);
    user->runner->start();

    co::PortalClientOptions copt;
    copt.portal = portal->address();
    copt.deliver_to = user->runner->address();
    copt.user = name;
    copt.total_jobs = total_jobs;
    copt.batch_size = batch_size;
    copt.runtime_seconds = runtime_seconds;
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

  /// Raw portal.credit from `runner`; the ack is dropped like raw_submit's.
  void raw_credit(const std::string& runner, std::uint64_t number) {
    cs::Message message;
    message.from = {feeder.name(), "test"};
    message.to = portal->address();
    message.type = "portal.credit";
    message.body.set("runner", runner);
    message.body.set_uint("credit", number);
    message.body.set("rpc.reply_to", feeder.name() + "/test");
    message.body.set_uint("rpc.id", 1000 + number);
    world.net().send(std::move(message));
  }

  void run_for(double seconds) {
    world.sim().run_until(world.now() + seconds);
  }

  cs::World world{17};
  cs::Host& central;
  cs::Host& feeder;
  cc::Collector collector;
  std::unique_ptr<cc::PoolNegotiator> negotiator;
  std::vector<std::unique_ptr<cc::Startd>> startds;
  std::unique_ptr<co::Portal> portal;
  std::vector<std::unique_ptr<User>> users;
};

/// A stand-in runner on the feeder host that answers every delivery
/// "busy" with the next credit number, unless told to accept. It counts
/// the deliveries it sees.
struct FakeRunner {
  FakeRunner(cs::World& in_world, cs::Host& on_host)
      : world(in_world), host(on_host) {
    host.register_service("fake_runner", [this](const cs::Message& m) {
      ++deliveries;
      cs::Payload reply;
      reply.set_uint("seq", m.body.get_uint("seq"));
      if (accept) {
        reply.set("status", "ok");
      } else {
        reply.set("status", "busy");
        reply.set_uint("credit", ++credit);
      }
      if (before_reply) before_reply(credit);
      if (reply_delay == 0.0) {
        cs::rpc_reply(this->world.net(), m, self(), std::move(reply));
        return;
      }
      this->host.post(reply_delay, [this, m, reply] {
        cs::rpc_reply(this->world.net(), m, self(), reply);
      });
    });
  }
  cs::Address self() const { return {host.name(), "fake_runner"}; }
  std::string address() const { return self().str(); }

  cs::World& world;
  cs::Host& host;
  bool accept = false;
  double reply_delay = 0.0;
  std::uint64_t credit = 0;
  int deliveries = 0;
  std::function<void(std::uint64_t)> before_reply;
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
  // The 6-job batch is larger than max_active=4, but the runner is empty:
  // it takes the whole batch at once, with no busy reply. Live jobs stay
  // bounded by the larger of the cap and the batch.
  EXPECT_EQ(ada.schedd->jobs().size(), 6u);
  EXPECT_EQ(portal->queue_depth(), 0u);
  EXPECT_EQ(ada.runner->busy_rejections(), 0u);
  EXPECT_EQ(portal->closed_runners(), 0u);
}

TEST_F(PortalFixture, OversizedBatchIsAdmittedByCreditOnceTheRunnerEmpties) {
  make_portal();
  add_pool(/*slots=*/2);
  User& ada = add_user("ada", 2, /*batch_size=*/2, /*max_active=*/4,
                       /*runtime_seconds=*/30.0);
  run_for(5.0);
  ASSERT_EQ(ada.schedd->jobs().size(), 2u);
  // Six more under a cap of four while two are live: turned away once.
  raw_submit("ada", /*seq=*/100, /*count=*/6, ada.runner->address().str());
  run_for(5.0);
  EXPECT_EQ(ada.schedd->jobs().size(), 2u);
  EXPECT_EQ(ada.runner->busy_rejections(), 1u);
  EXPECT_EQ(portal->closed_runners(), 1u);
  // The first two complete, the empty runner sends its credit, and the
  // whole batch goes in.
  run_for(600.0);
  EXPECT_EQ(ada.schedd->jobs().size(), 8u);
  EXPECT_TRUE(ada.schedd->all_terminal());
  EXPECT_EQ(ada.runner->busy_rejections(), 1u);
  EXPECT_EQ(portal->closed_runners(), 0u);
  EXPECT_EQ(portal->queue_depth(), 0u);
}

TEST_F(PortalFixture, CreditReopensRunnerOnceRoomFrees) {
  make_portal();
  add_pool(/*slots=*/2);
  User& ada = add_user("ada", 4, /*batch_size=*/2, /*max_active=*/2,
                       /*runtime_seconds=*/30.0);
  run_for(5.0);
  // The second batch was turned away once and waits, closed, at the portal.
  EXPECT_EQ(ada.schedd->jobs().size(), 2u);
  EXPECT_EQ(ada.runner->busy_rejections(), 1u);
  EXPECT_EQ(portal->closed_runners(), 1u);

  run_for(300.0);
  EXPECT_TRUE(ada.client->drained());
  EXPECT_EQ(ada.schedd->jobs().size(), 4u);
  EXPECT_TRUE(ada.schedd->all_terminal());
  EXPECT_EQ(ada.runner->busy_rejections(), 1u);
  EXPECT_EQ(portal->closed_runners(), 0u);
  EXPECT_EQ(portal->queue_depth(), 0u);
}

TEST_F(PortalFixture, RunnerCrashWhileOwingCreditStillReceivesTheBatch) {
  make_portal();
  add_pool(/*slots=*/2);
  User& ada = add_user("ada", 4, /*batch_size=*/2, /*max_active=*/2,
                       /*runtime_seconds=*/30.0);
  run_for(5.0);
  ASSERT_EQ(ada.runner->busy_rejections(), 1u);
  ASSERT_EQ(portal->closed_runners(), 1u);
  // The debt is on disk: the restarted runner reloads it and sends the
  // credit once its requeued jobs complete. A volatile debt would leave
  // the portal closed to this runner for good.
  world.host("ada.grid").crash_for(20.0);
  run_for(400.0);
  EXPECT_TRUE(ada.client->drained());
  EXPECT_EQ(ada.schedd->jobs().size(), 4u);
  EXPECT_TRUE(ada.schedd->all_terminal());
  EXPECT_EQ(portal->queue_depth(), 0u);
  EXPECT_EQ(portal->closed_runners(), 0u);
}

TEST_F(PortalFixture, CreditLostToPartitionIsResentAfterTheHeal) {
  make_portal();
  add_pool(/*slots=*/2);
  User& ada = add_user("ada", 4, /*batch_size=*/2, /*max_active=*/2,
                       /*runtime_seconds=*/30.0);
  run_for(20.0);  // both jobs of the first batch run on the slots
  ASSERT_EQ(portal->closed_runners(), 1u);
  world.net().set_partitioned("ada.grid", "portal.grid", true);
  run_for(100.0);  // the jobs complete; every credit sent is lost
  EXPECT_EQ(ada.schedd->jobs().size(), 2u);
  EXPECT_EQ(portal->closed_runners(), 1u);

  const double heal = world.now();
  world.net().set_partitioned("ada.grid", "portal.grid", false);
  while (ada.schedd->jobs().size() < 4 && world.now() < heal + 60.0) {
    run_for(0.25);
  }
  // The pending credit times out and is resent within one deliver timeout
  // (10 s) of the heal; the next flush tick (1 s) delivers.
  EXPECT_EQ(ada.schedd->jobs().size(), 4u);
  EXPECT_LE(world.now(), heal + 10.0 + 1.0 + 0.25);
}

TEST_F(PortalFixture, PortalCrashCostsAtMostOneBusyReplyPerRunner) {
  make_portal();
  add_pool(/*slots=*/2);
  User& ada = add_user("ada", 4, /*batch_size=*/2, /*max_active=*/2,
                       /*runtime_seconds=*/30.0);
  User& bob = add_user("bob", 4, /*batch_size=*/2, /*max_active=*/2,
                       /*runtime_seconds=*/30.0);
  run_for(5.0);
  ASSERT_EQ(portal->closed_runners(), 2u);
  // The crash forgets both closed marks; the reloaded queue is delivered
  // again, and each runner turns its batch away one more time.
  central.crash_for(5.0);
  run_for(600.0);
  for (const User* user : {&ada, &bob}) {
    EXPECT_TRUE(user->client->drained());
    EXPECT_EQ(user->schedd->jobs().size(), 4u) << "admitted twice";
    EXPECT_TRUE(user->schedd->all_terminal());
    EXPECT_EQ(user->runner->busy_rejections(), 2u);
  }
  EXPECT_EQ(portal->queue_depth(), 0u);
}

TEST_F(PortalFixture, CreditThatOvertakesItsBusyReplyReopensTheRunner) {
  make_portal();
  FakeRunner runner(world, feeder);
  // The credit leaves before the busy reply it answers and lands first.
  runner.before_reply = [&](std::uint64_t number) {
    if (number == 1) raw_credit(runner.address(), number);
  };
  runner.reply_delay = 0.05;  // past the link's 10 ms jitter
  raw_submit("ada", 1, 1, runner.address());
  run_for(1.5);
  EXPECT_EQ(runner.deliveries, 1);
  EXPECT_EQ(portal->closed_runners(), 0u);
  runner.accept = true;
  run_for(2.0);
  EXPECT_EQ(runner.deliveries, 2);
  EXPECT_EQ(portal->queue_depth(), 0u);
}

TEST_F(PortalFixture, ClosedRunnerReceivesNothingUntilItsCredit) {
  make_portal();
  FakeRunner runner(world, feeder);
  raw_submit("ada", 1, 1, runner.address());
  raw_submit("ada", 2, 1, runner.address());
  run_for(60.0);
  // Both batches went out in the first tick and were turned away; nothing
  // since.
  EXPECT_EQ(runner.deliveries, 2);
  EXPECT_EQ(portal->closed_runners(), 1u);

  raw_credit(runner.address(), 1);  // stale: answers the first reply only
  run_for(10.0);
  EXPECT_EQ(runner.deliveries, 2);
  EXPECT_EQ(portal->closed_runners(), 1u);

  raw_credit(runner.address(), 2);
  run_for(10.0);
  EXPECT_EQ(runner.deliveries, 4);  // both again, both turned away again
  EXPECT_EQ(portal->closed_runners(), 1u);
  raw_credit(runner.address(), 2);  // duplicate
  run_for(10.0);
  EXPECT_EQ(runner.deliveries, 4);

  runner.accept = true;
  raw_credit(runner.address(), 4);
  run_for(10.0);
  EXPECT_EQ(runner.deliveries, 6);
  EXPECT_EQ(portal->queue_depth(), 0u);
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
