// Collector delta subscription + incremental (delta) negotiation.
//
// The Collector half pins the delta-subscription contract: every content
// change appends to the bounded log under a monotone sequence, identical
// re-publishes are checksum no-ops, truncation and restarts force a resync.
// The PoolNegotiator half pins delta-negotiation *soundness*: with the
// anti-entropy sweep running every cycle, the restricted match pass must
// stay byte-equivalent to an unrestricted pass of the same matcher across
// randomized churn — zero recorded divergences.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "condorg/classad/parser.h"
#include "condorg/condor/collector.h"
#include "condorg/condor/pool_negotiator.h"
#include "condorg/sim/world.h"

namespace ca = condorg::classad;
namespace cc = condorg::condor;
namespace cs = condorg::sim;

namespace {

struct CentralFixture : public ::testing::Test {
  CentralFixture()
      : central(world.add_host("cm.grid")),
        feeder(world.add_host("feeder.grid")),
        collector(central, world.net()) {}

  void send(const std::string& type, cs::Payload body) {
    cs::Message message;
    message.from = {feeder.name(), "test"};
    message.to = collector.address();
    message.type = type;
    message.body = std::move(body);
    world.net().send(std::move(message));
  }

  void advertise(const std::string& name, const std::string& ad_text,
                 double ttl = 900.0) {
    cs::Payload body;
    body.set("name", name);
    body.set("ad", ad_text);
    body.set_double("ttl", ttl);
    send("collector.advertise", std::move(body));
  }

  void invalidate(const std::string& name) {
    cs::Payload body;
    body.set("name", name);
    send("collector.invalidate", std::move(body));
  }

  void settle() { world.sim().run_until(world.now() + 1.0); }

  static std::string machine_ad(const std::string& name, int memory,
                                const std::string& state = "Unclaimed") {
    return "[Name = \"" + name + "\"; MyAddress = \"node.grid/startd\"; " +
           "State = \"" + state + "\"; Memory = " + std::to_string(memory) +
           "]";
  }

  static std::string job_ad(const std::string& name, const std::string& user,
                            int image = 64) {
    return "[Name = \"" + name + "\"; JobUniverse = \"Vanilla\"; " +
           "JobStatus = \"Idle\"; User = \"" + user + "\"; " +
           "MyAddress = \"" + user + ".grid/pool_runner\"; " +
           "ImageSize = " + std::to_string(image) + "; " +
           "Requirements = other.State == \"Unclaimed\"]";
  }

  cs::World world{11};
  cs::Host& central;
  cs::Host& feeder;
  cc::Collector collector;
};

TEST_F(CentralFixture, DeltaLogReplaysChangesAndTombstones) {
  // Settle between sends: WAN jitter may reorder messages in flight, and
  // this test pins the exact log order.
  advertise("m1", machine_ad("m1", 512));
  settle();
  advertise("m2", machine_ad("m2", 256));
  settle();
  invalidate("m1");
  settle();

  EXPECT_EQ(collector.change_seq(), 3u);
  std::vector<cc::Collector::Delta> deltas;
  ASSERT_TRUE(collector.query_delta(0, deltas));
  ASSERT_EQ(deltas.size(), 3u);
  EXPECT_EQ(deltas[0].name, "m1");
  EXPECT_EQ(deltas[0].seq, 1u);
  ASSERT_NE(deltas[0].ad, nullptr);
  EXPECT_NE(deltas[0].checksum, 0u);
  EXPECT_EQ(deltas[2].name, "m1");
  EXPECT_EQ(deltas[2].ad, nullptr);  // tombstone
  EXPECT_EQ(deltas[2].checksum, 0u);

  // Caught-up subscriber: true, nothing to replay.
  deltas.clear();
  EXPECT_TRUE(collector.query_delta(collector.change_seq(), deltas));
  EXPECT_TRUE(deltas.empty());

  // Partial replay from the middle.
  deltas.clear();
  ASSERT_TRUE(collector.query_delta(1, deltas));
  ASSERT_EQ(deltas.size(), 2u);
  EXPECT_EQ(deltas[0].name, "m2");
}

TEST_F(CentralFixture, IdenticalRepublishIsANoopButRefreshesTtl) {
  advertise("m1", machine_ad("m1", 512), /*ttl=*/100.0);
  settle();
  const std::uint64_t seq = collector.change_seq();

  world.sim().run_until(50.0);
  advertise("m1", machine_ad("m1", 512), /*ttl=*/100.0);
  settle();

  EXPECT_EQ(collector.change_seq(), seq) << "no-op must not bump the seq";
  EXPECT_EQ(collector.noop_updates(), 1u);

  // Alive past the original deadline (lease was refreshed)...
  world.sim().run_until(120.0);
  EXPECT_EQ(collector.live_count(), 1u);
  // ...gone after the refreshed one, with a tombstone delta.
  world.sim().run_until(200.0);
  EXPECT_EQ(collector.live_count(), 0u);
  std::vector<cc::Collector::Delta> deltas;
  ASSERT_TRUE(collector.query_delta(seq, deltas));
  ASSERT_EQ(deltas.size(), 1u);
  EXPECT_EQ(deltas[0].ad, nullptr);
}

TEST_F(CentralFixture, TruncatedLogForcesResync) {
  // Blast enough content-distinct changes through one name to overflow the
  // bounded log; a subscriber still at the beginning can no longer be
  // served and must fall back to a full read.
  for (int i = 0; i < 9000; ++i) {
    advertise("m1", machine_ad("m1", i + 1));
  }
  settle();
  EXPECT_EQ(collector.change_seq(), 9000u);

  std::vector<cc::Collector::Delta> deltas;
  EXPECT_FALSE(collector.query_delta(0, deltas));
  EXPECT_TRUE(deltas.empty());
  // The recent tail is still servable.
  EXPECT_TRUE(collector.query_delta(collector.change_seq() - 1, deltas));
  ASSERT_EQ(deltas.size(), 1u);
  EXPECT_EQ(deltas[0].seq, 9000u);
}

TEST_F(CentralFixture, RestartResetsTheSequence) {
  advertise("m1", machine_ad("m1", 512));
  advertise("m2", machine_ad("m2", 256));
  settle();
  const std::uint64_t old_seq = collector.change_seq();
  ASSERT_EQ(old_seq, 2u);

  central.crash_for(10.0);
  world.sim().run_until(world.now() + 20.0);

  // Ads and log died with the host; the sequence restarted from zero, so a
  // subscriber holding a pre-crash sequence learns it must resync.
  EXPECT_EQ(collector.change_seq(), 0u);
  EXPECT_EQ(collector.live_count(), 0u);
  std::vector<cc::Collector::Delta> deltas;
  EXPECT_FALSE(collector.query_delta(old_seq, deltas));
  EXPECT_TRUE(collector.query_delta(0, deltas));
}

struct NegotiatorFixture : public CentralFixture {
  NegotiatorFixture() : negotiator(central, world.net(), collector, opts()) {}

  static cc::PoolNegotiatorOptions opts() {
    cc::PoolNegotiatorOptions options;
    options.full_sweep_every = 1;  // audit every single cycle
    options.hold_timeout = 30.0;
    return options;
  }

  cc::PoolNegotiator negotiator;
};

TEST_F(NegotiatorFixture, MatchesJobToSlotAndHoldsBothSides) {
  advertise("m1", machine_ad("m1", 512));
  advertise("ada#job1", job_ad("ada#job1", "ada"));
  settle();

  EXPECT_EQ(negotiator.negotiate_once(), 1u);
  EXPECT_EQ(negotiator.mirror_size(), 2u);
  EXPECT_EQ(negotiator.matches_made(), 1u);
  EXPECT_EQ(negotiator.matched_by_user().at("ada"), 1u);
  EXPECT_EQ(negotiator.divergences(), 0u);

  // Both sides are on hold: an immediate re-negotiation matches nothing.
  EXPECT_EQ(negotiator.negotiate_once(), 0u);
  EXPECT_EQ(negotiator.divergences(), 0u);
}

TEST_F(CentralFixture, QuiescentCyclesAreSkipped) {
  cc::PoolNegotiatorOptions options;
  options.full_sweep_every = 0;  // no sweeps: pure delta path
  cc::PoolNegotiator quiet(central, world.net(), collector, options);

  advertise("m1", machine_ad("m1", 512));
  settle();
  EXPECT_EQ(quiet.negotiate_once(), 0u);
  EXPECT_EQ(quiet.skipped_cycles(), 0u);  // the advertise was a change

  // Nothing moved since: the cycle is a constant-time skip.
  EXPECT_EQ(quiet.negotiate_once(), 0u);
  EXPECT_EQ(quiet.negotiate_once(), 0u);
  EXPECT_EQ(quiet.skipped_cycles(), 2u);
}

// A pool negotiator destroyed while the central host lives must leave no
// cycle timer behind, across a host crash and restart too.
TEST_F(CentralFixture, DestroyedPoolNegotiatorLeavesNoCycleTimer) {
  {
    cc::PoolNegotiator gone(central, world.net(), collector);
    gone.start();  // first cycle now, the next at t = 60
  }
  world.sim().run_until(200.0);
  central.crash_for(10.0);
  world.sim().run_until(300.0);
  EXPECT_EQ(central.metrics()
                .counter("pool_negotiator.cycles", {{"host", central.name()}})
                .value(),
            1u);
}

TEST_F(NegotiatorFixture, LapsedHoldReentersNegotiation) {
  advertise("m1", machine_ad("m1", 512));
  advertise("ada#job1", job_ad("ada#job1", "ada"));
  settle();
  EXPECT_EQ(negotiator.negotiate_once(), 1u);

  // No claim ever lands (there is no runner in this world); once the hold
  // lapses both sides re-enter as changed and match again.
  world.sim().run_until(world.now() + 60.0);
  EXPECT_EQ(negotiator.negotiate_once(), 1u);
  EXPECT_EQ(negotiator.matches_made(), 2u);
  EXPECT_EQ(negotiator.divergences(), 0u);
}

TEST_F(NegotiatorFixture, FairShareRotatesUsersAcrossRounds) {
  advertise("m1", machine_ad("m1", 512));
  advertise("ada#job1", job_ad("ada#job1", "ada"));
  advertise("bob#job1", job_ad("bob#job1", "bob"));
  settle();

  // One slot, two users: equal usage, so the name tie-break gives ada the
  // first round and the charge hands bob the second.
  EXPECT_EQ(negotiator.negotiate_once(), 1u);
  EXPECT_EQ(negotiator.matched_by_user().at("ada"), 1u);

  world.sim().run_until(world.now() + 60.0);  // lapse the holds
  EXPECT_EQ(negotiator.negotiate_once(), 1u);
  EXPECT_EQ(negotiator.matched_by_user().at("bob"), 1u);
  EXPECT_EQ(negotiator.divergences(), 0u);
  std::vector<std::string> audit;
  negotiator.audit(audit);
  EXPECT_TRUE(audit.empty());
}

TEST_F(NegotiatorFixture, TruncationTriggersFullResync) {
  advertise("m1", machine_ad("m1", 512));
  settle();
  EXPECT_EQ(negotiator.negotiate_once(), 0u);
  EXPECT_EQ(negotiator.full_resyncs(), 0u);  // the log serves from zero

  for (int i = 0; i < 9000; ++i) {
    advertise("hot", machine_ad("hot", i + 1));
  }
  settle();
  EXPECT_EQ(negotiator.negotiate_once(), 0u);
  EXPECT_EQ(negotiator.full_resyncs(), 1u);
  EXPECT_EQ(negotiator.mirror_size(), 2u);
  EXPECT_EQ(negotiator.divergences(), 0u);
}

// The soundness gate: randomized churn (ads appearing, mutating, dying;
// jobs and machines mixed; holds lapsing mid-stream) with the anti-entropy
// sweep auditing *every* cycle. Any divergence between the restricted and
// the unrestricted match pass — or between the mirror and a full collector
// read — fails the test.
TEST_F(NegotiatorFixture, RandomizedChurnNeverDiverges) {
  std::mt19937 rng(2001);
  const char* users[] = {"ada", "bob", "eve"};
  for (int round = 0; round < 40; ++round) {
    const int churn = 1 + static_cast<int>(rng() % 4);
    for (int i = 0; i < churn; ++i) {
      const int entity = static_cast<int>(rng() % 6);
      if (entity < 3) {  // machine m0..m2
        const std::string name = "m" + std::to_string(entity);
        if (rng() % 4 == 0) {
          invalidate(name);
        } else {
          advertise(name, machine_ad(name, 128 << (rng() % 4),
                                     rng() % 3 ? "Unclaimed" : "Claimed"));
        }
      } else {  // job ad for one of three users
        const std::string user = users[entity - 3];
        const std::string name = user + "#job1";
        if (rng() % 5 == 0) {
          invalidate(name);
        } else {
          advertise(name,
                    job_ad(name, user, 32 << (rng() % 3)));
        }
      }
    }
    settle();
    negotiator.negotiate_once();
    ASSERT_EQ(negotiator.divergences(), 0u) << "round " << round;
    // Let some holds lapse between rounds.
    world.sim().run_until(world.now() + (rng() % 2 ? 40.0 : 5.0));
  }
  EXPECT_GT(negotiator.matches_made(), 0u);
  EXPECT_EQ(negotiator.sweeps(), 40u);
  std::vector<std::string> audit;
  negotiator.audit(audit);
  EXPECT_TRUE(audit.empty());
}

}  // namespace
