// Collector change sequence + incremental (delta) negotiation.
//
// The Collector half pins the change-sequence contract: every content
// change bumps a monotone sequence that the changed ad records, identical
// re-publishes are checksum no-ops, a restart resets the sequence, and a
// replaced or removed ad version is freed. It also pins the classification
// stored with each new content and the lease rules of the one expiry node
// per name. The PoolNegotiator half pins the
// cycle rules and delta-negotiation *soundness*: with the sweep running
// every cycle, the restricted match pass must stay byte-equivalent to an
// unrestricted pass of the same matcher across randomized churn — zero
// recorded divergences.
#include <gtest/gtest.h>

#include <memory>
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

TEST_F(CentralFixture, ChangesBumpTheSequence) {
  advertise("m1", machine_ad("m1", 512));
  advertise("m2", machine_ad("m2", 256));
  settle();
  EXPECT_EQ(collector.change_seq(), 2u);

  // A content change bumps the sequence, and the ad records it.
  advertise("m1", machine_ad("m1", 1024));
  settle();
  EXPECT_EQ(collector.change_seq(), 3u);
  EXPECT_EQ(collector.live_ads().at("m1").seq, 3u);
  EXPECT_LT(collector.live_ads().at("m2").seq, 3u);

  // So does an invalidation; a second one of the same name changes nothing.
  invalidate("m2");
  settle();
  EXPECT_EQ(collector.change_seq(), 4u);
  invalidate("m2");
  settle();
  EXPECT_EQ(collector.change_seq(), 4u);
  ASSERT_EQ(collector.live_ads().size(), 1u);
  EXPECT_EQ(collector.live_ads().begin()->first, "m1");
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
  // ...gone after the refreshed one, and the expiry is a change.
  world.sim().run_until(200.0);
  EXPECT_EQ(collector.live_count(), 0u);
  EXPECT_EQ(collector.change_seq(), seq + 1);
}

TEST_F(CentralFixture, ManyChangesToOneAdLeaveOneEntry) {
  // Content-distinct changes through one name: each bumps the sequence, and
  // the entry holds only the last version, stored at the last sequence.
  // (The last one goes alone: WAN jitter may reorder messages in flight.)
  for (int i = 0; i < 8999; ++i) {
    advertise("m1", machine_ad("m1", i + 1));
  }
  settle();
  advertise("m1", machine_ad("m1", 9000));
  settle();
  EXPECT_EQ(collector.change_seq(), 9000u);
  ASSERT_EQ(collector.live_ads().size(), 1u);
  const cc::Collector::Entry& entry = collector.live_ads().at("m1");
  EXPECT_EQ(entry.seq, 9000u);
  EXPECT_EQ(entry.ad->eval_int("Memory"), 9000);
}

TEST_F(CentralFixture, RestartResetsTheSequence) {
  advertise("m1", machine_ad("m1", 512));
  advertise("m2", machine_ad("m2", 256));
  settle();
  ASSERT_EQ(collector.change_seq(), 2u);

  central.crash_for(10.0);
  world.sim().run_until(world.now() + 20.0);

  // Ads died with the host and the sequence restarted from zero, as the
  // colocated PoolNegotiator's last-seen sequence does in the same crash.
  EXPECT_EQ(collector.change_seq(), 0u);
  EXPECT_EQ(collector.live_count(), 0u);
  advertise("m1", machine_ad("m1", 512));
  settle();
  EXPECT_EQ(collector.change_seq(), 1u);
  EXPECT_EQ(collector.live_ads().at("m1").seq, 1u);
}

// The Collector holds only the current version of each ad: once it is
// replaced or removed, the last outside reference frees it.
TEST_F(CentralFixture, ReplacedAdVersionIsFreed) {
  advertise("m1", machine_ad("m1", 512));
  settle();
  std::weak_ptr<const ca::ClassAd> old_version = collector.query().at(0);
  EXPECT_FALSE(old_version.expired());

  advertise("m1", machine_ad("m1", 1024));
  settle();
  EXPECT_TRUE(old_version.expired());
}

TEST_F(CentralFixture, InvalidatedAdIsFreed) {
  advertise("m1", machine_ad("m1", 512));
  settle();
  std::weak_ptr<const ca::ClassAd> old_version = collector.query().at(0);
  EXPECT_FALSE(old_version.expired());

  invalidate("m1");
  settle();
  EXPECT_TRUE(old_version.expired());
}

// The Collector classifies an ad once, when it stores new content: a job
// ad (it carries JobUniverse) under its user's id, a negotiable slot (it
// passes the slot constraint), or neither. WAN jitter may reorder
// messages in flight, so the tests name users, not ids.
TEST_F(CentralFixture, AdvertiseClassifiesNewContent) {
  advertise("m1", machine_ad("m1", 512));
  advertise("m2", machine_ad("m2", 512, "Claimed"));
  advertise("ada#job1", job_ad("ada#job1", "ada"));
  advertise("bob#job1", job_ad("bob#job1", "bob"));
  advertise("anon#job1", "[JobUniverse = \"Vanilla\"]");
  settle();
  const auto& ads = collector.live_ads();
  EXPECT_EQ(ads.at("m1").kind, cc::Collector::Kind::kSlot);
  EXPECT_EQ(ads.at("m2").kind, cc::Collector::Kind::kOther);
  ASSERT_EQ(ads.at("ada#job1").kind, cc::Collector::Kind::kJob);
  EXPECT_EQ(collector.user_name(ads.at("ada#job1").user), "ada");
  EXPECT_EQ(collector.user_name(ads.at("bob#job1").user), "bob");
  // A job ad without User is filed under "unknown".
  ASSERT_EQ(ads.at("anon#job1").kind, cc::Collector::Kind::kJob);
  EXPECT_EQ(collector.user_name(ads.at("anon#job1").user), "unknown");
  EXPECT_EQ(collector.user_count(), 3u);
}

TEST_F(CentralFixture, PutLocalClassifies) {
  collector.put_local("job", std::make_shared<const ca::ClassAd>(ca::parse_ad(
                                 "[JobUniverse = \"Vanilla\"]")));
  collector.put_local("slot", std::make_shared<const ca::ClassAd>(
                                  ca::parse_ad(machine_ad("slot", 512))));
  const auto& ads = collector.live_ads();
  ASSERT_EQ(ads.at("job").kind, cc::Collector::Kind::kJob);
  EXPECT_EQ(collector.user_name(ads.at("job").user), "unknown");
  EXPECT_EQ(ads.at("slot").kind, cc::Collector::Kind::kSlot);

  // Written again with a user and a claimed state: classified again.
  collector.put_local("job", std::make_shared<const ca::ClassAd>(
                                 ca::parse_ad(job_ad("job", "ada"))));
  collector.put_local("slot", std::make_shared<const ca::ClassAd>(ca::parse_ad(
                                  machine_ad("slot", 512, "Claimed"))));
  EXPECT_EQ(collector.user_name(ads.at("job").user), "ada");
  EXPECT_EQ(ads.at("slot").kind, cc::Collector::Kind::kOther);
}

TEST_F(CentralFixture, ContentChangesReclassifyAndRefreshesDoNot) {
  advertise("m1", machine_ad("m1", 512));
  advertise("job", job_ad("job", "ada"));
  settle();
  ASSERT_EQ(collector.live_ads().at("m1").kind, cc::Collector::Kind::kSlot);

  // The slot is claimed and the job changes hands: both are reclassified.
  advertise("m1", machine_ad("m1", 512, "Claimed"));
  advertise("job", job_ad("job", "bob"));
  settle();
  const auto& ads = collector.live_ads();
  EXPECT_EQ(ads.at("m1").kind, cc::Collector::Kind::kOther);
  EXPECT_EQ(collector.user_name(ads.at("job").user), "bob");
  // The dictionary is append-only: "ada" keeps its id.
  EXPECT_EQ(collector.user_count(), 2u);

  // A content-identical refresh stores nothing: the same ad, verdict and
  // sequence.
  const ca::ClassAd* stored = ads.at("job").ad.get();
  const std::uint64_t seq = collector.change_seq();
  advertise("m1", machine_ad("m1", 512, "Claimed"));
  advertise("job", job_ad("job", "bob"));
  settle();
  EXPECT_EQ(collector.noop_updates(), 2u);
  EXPECT_EQ(collector.change_seq(), seq);
  EXPECT_EQ(ads.at("job").ad.get(), stored);
  EXPECT_EQ(collector.user_name(ads.at("job").user), "bob");
  EXPECT_EQ(ads.at("m1").kind, cc::Collector::Kind::kOther);
}

// One expiry node per name: a refresh moves only the lease, so the three
// ways a name's deadline can move earlier must still expire it on time.
TEST_F(CentralFixture, IdenticalRefreshWithShorterTtlExpiresAtItsDeadline) {
  advertise("m1", machine_ad("m1", 512), /*ttl=*/900.0);
  settle();
  advertise("m1", machine_ad("m1", 512), /*ttl=*/100.0);
  settle();
  ASSERT_EQ(collector.noop_updates(), 1u);
  world.sim().run_until(150.0);
  EXPECT_EQ(collector.live_count(), 0u);
}

TEST_F(CentralFixture, ChangedAdWithShorterTtlExpiresAtItsDeadline) {
  advertise("m1", machine_ad("m1", 512), /*ttl=*/900.0);
  settle();
  advertise("m1", machine_ad("m1", 1024), /*ttl=*/100.0);
  settle();
  world.sim().run_until(150.0);
  EXPECT_EQ(collector.live_count(), 0u);
}

TEST_F(CentralFixture, ReadvertisedAdOutlivesItsOrphanedDeadline) {
  advertise("m1", machine_ad("m1", 512), /*ttl=*/100.0);
  settle();
  invalidate("m1");
  settle();
  advertise("m1", machine_ad("m1", 512), /*ttl=*/900.0);
  settle();
  world.sim().run_until(150.0);  // past the first lease's deadline
  EXPECT_EQ(collector.live_count(), 1u);
  world.sim().run_until(1000.0);
  EXPECT_EQ(collector.live_count(), 0u);
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
  EXPECT_EQ(collector.change_seq(), 2u);
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

TEST_F(NegotiatorFixture, ChangedAdsDropTheirHolds) {
  advertise("m1", machine_ad("m1", 512));
  advertise("ada#job1", job_ad("ada#job1", "ada"));
  settle();
  EXPECT_EQ(negotiator.negotiate_once(), 1u);

  // Well inside hold_timeout. The slot's new content ends its hold, but
  // the job is still held.
  advertise("m1", machine_ad("m1", 1024));
  settle();
  EXPECT_EQ(negotiator.negotiate_once(), 0u);

  // The job's new content ends its hold too, and the pair matches again.
  advertise("ada#job1", job_ad("ada#job1", "ada", 128));
  settle();
  EXPECT_EQ(negotiator.negotiate_once(), 1u);
  EXPECT_EQ(negotiator.matches_made(), 2u);
  EXPECT_EQ(negotiator.divergences(), 0u);
}

TEST_F(NegotiatorFixture, ReadvertisedAdsDropTheirHolds) {
  advertise("m1", machine_ad("m1", 512));
  advertise("ada#job1", job_ad("ada#job1", "ada"));
  settle();
  EXPECT_EQ(negotiator.negotiate_once(), 1u);

  // Invalidated, then advertised again with the same content: a new
  // version, so both holds end before hold_timeout.
  invalidate("m1");
  invalidate("ada#job1");
  settle();
  advertise("m1", machine_ad("m1", 512));
  advertise("ada#job1", job_ad("ada#job1", "ada"));
  settle();
  EXPECT_EQ(negotiator.negotiate_once(), 1u);
  EXPECT_EQ(negotiator.matches_made(), 2u);
  EXPECT_EQ(negotiator.divergences(), 0u);
}

TEST_F(NegotiatorFixture, ManyChangesBetweenCyclesAreOneChangedAd) {
  // The job only fits the last version of "hot". It fails against m1 in
  // the first cycle, so it is clean from then on and is tried only against
  // changed slots.
  advertise("m1", machine_ad("m1", 512));
  advertise("ada#job1",
            "[Name = \"ada#job1\"; JobUniverse = \"Vanilla\"; "
            "User = \"ada\"; MyAddress = \"ada.grid/pool_runner\"; "
            "Requirements = other.Memory == 9000]");
  settle();
  EXPECT_EQ(negotiator.negotiate_once(), 0u);
  const std::uint64_t seq = collector.change_seq();

  for (int i = 0; i < 8999; ++i) {
    advertise("hot", machine_ad("hot", i + 1));
  }
  settle();
  advertise("hot", machine_ad("hot", 9000));
  settle();
  std::size_t changed = 0;
  for (const auto& [name, entry] : collector.live_ads()) {
    if (entry.seq > seq) ++changed;
  }
  EXPECT_EQ(changed, 1u);
  EXPECT_EQ(negotiator.negotiate_once(), 1u);
  EXPECT_EQ(negotiator.divergences(), 0u);
}

// The soundness gate: randomized churn (ads appearing, mutating, dying;
// jobs and machines mixed; holds lapsing mid-stream) with the sweep
// auditing *every* cycle. Any divergence between the restricted and the
// unrestricted match pass fails the test.
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
