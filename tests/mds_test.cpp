#include <gtest/gtest.h>

#include "condorg/mds/client.h"
#include "condorg/mds/giis.h"
#include "condorg/mds/provider.h"
#include "condorg/sim/world.h"

namespace mds = condorg::mds;
namespace cs = condorg::sim;
namespace ca = condorg::classad;

namespace {

struct MdsFixture : public ::testing::Test {
  MdsFixture()
      : giis_host(world.add_host("giis.grid.org")),
        site_a(world.add_host("pbs.anl.gov")),
        site_b(world.add_host("lsf.ncsa.edu")),
        broker_host(world.add_host("submit.wisc.edu")),
        giis(giis_host, world.net()),
        client(broker_host, world.net(), "broker.mds") {}

  /// Make a provider advertising `free` CPUs under `name` on `host`.
  std::unique_ptr<mds::InfoProvider> make_provider(cs::Host& host,
                                                   const std::string& name,
                                                   int cpus, int* free) {
    mds::InfoProvider::Options opts;
    opts.period_seconds = 60.0;
    auto provider = std::make_unique<mds::InfoProvider>(
        host, world.net(), name,
        [name, cpus, free] {
          ca::ClassAd ad;
          ad.insert_string("Name", name);
          ad.insert_int("Cpus", cpus);
          ad.insert_int("FreeCpus", *free);
          ad.insert_string("Arch", "X86_64");
          return ad;
        },
        opts);
    provider->add_directory(giis.address());
    return provider;
  }

  cs::World world;
  cs::Host& giis_host;
  cs::Host& site_a;
  cs::Host& site_b;
  cs::Host& broker_host;
  mds::GiisServer giis;
  mds::MdsClient client;
};

}  // namespace

TEST_F(MdsFixture, RegisterAndLookup) {
  int free_a = 10;
  auto provider = make_provider(site_a, "pbs.anl.gov", 64, &free_a);
  provider->start();
  world.sim().run_until(10.0);
  EXPECT_EQ(giis.live_count(), 1u);

  std::optional<ca::ClassAd> ad;
  client.lookup(giis.address(), "pbs.anl.gov",
                [&](std::optional<ca::ClassAd> result) { ad = std::move(result); });
  world.sim().run_until(20.0);
  ASSERT_TRUE(ad);
  EXPECT_EQ(ad->eval_int("FreeCpus"), 10);
  EXPECT_EQ(ad->eval_string("Arch"), "X86_64");
}

TEST_F(MdsFixture, StopUnregistersImmediately) {
  int free_a = 10;
  auto provider = make_provider(site_a, "pbs.anl.gov", 64, &free_a);
  provider->start();
  world.sim().run_until(10.0);
  EXPECT_EQ(giis.live_count(), 1u);

  // stop() sends a courtesy grrp.unregister: the directory entry vanishes
  // well before the registration TTL (60s * 2.5) would age it out, and the
  // periodic re-register loop stays quiet afterwards.
  provider->stop();
  world.sim().run_until(20.0);
  EXPECT_EQ(giis.live_count(), 0u);
  world.sim().run_until(200.0);
  EXPECT_EQ(giis.live_count(), 0u);
}

TEST_F(MdsFixture, QueryWithConstraint) {
  int free_a = 10, free_b = 0;
  auto pa = make_provider(site_a, "pbs.anl.gov", 64, &free_a);
  auto pb = make_provider(site_b, "lsf.ncsa.edu", 128, &free_b);
  pa->start();
  pb->start();
  world.sim().run_until(10.0);
  EXPECT_EQ(giis.live_count(), 2u);

  std::optional<std::vector<mds::ResourceRecord>> records;
  client.query(giis.address(), "FreeCpus > 0",
               [&](auto result) { records = std::move(result); });
  world.sim().run_until(20.0);
  ASSERT_TRUE(records);
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].name, "pbs.anl.gov");
}

TEST_F(MdsFixture, EmptyConstraintReturnsAll) {
  int free_a = 1, free_b = 2;
  auto pa = make_provider(site_a, "a", 4, &free_a);
  auto pb = make_provider(site_b, "b", 8, &free_b);
  pa->start();
  pb->start();
  world.sim().run_until(5.0);
  std::optional<std::vector<mds::ResourceRecord>> records;
  client.query(giis.address(), "",
               [&](auto result) { records = std::move(result); });
  world.sim().run_until(10.0);
  ASSERT_TRUE(records);
  EXPECT_EQ(records->size(), 2u);
}

TEST_F(MdsFixture, BadConstraintFails) {
  std::optional<std::vector<mds::ResourceRecord>> records{
      std::vector<mds::ResourceRecord>{}};
  client.query(giis.address(), "FreeCpus >",
               [&](auto result) { records = std::move(result); });
  world.sim().run_until(10.0);
  EXPECT_FALSE(records.has_value());
}

TEST_F(MdsFixture, RefreshedAdReflectsNewState) {
  int free_a = 10;
  auto provider = make_provider(site_a, "pbs.anl.gov", 64, &free_a);
  provider->start();
  world.sim().run_until(10.0);
  free_a = 3;  // state changes between refreshes
  world.sim().run_until(70.0);  // one refresh period later

  std::optional<ca::ClassAd> ad;
  client.lookup(giis.address(), "pbs.anl.gov",
                [&](std::optional<ca::ClassAd> result) { ad = std::move(result); });
  world.sim().run_until(80.0);
  ASSERT_TRUE(ad);
  EXPECT_EQ(ad->eval_int("FreeCpus"), 3);
}

TEST_F(MdsFixture, CrashedSiteAgesOutOfDirectory) {
  int free_a = 10;
  auto provider = make_provider(site_a, "pbs.anl.gov", 64, &free_a);
  provider->start();
  world.sim().run_until(10.0);
  EXPECT_EQ(giis.live_count(), 1u);

  site_a.crash();  // provider stops re-registering
  // TTL = 60 * 2.5 = 150 s after the last registration (t=60).
  world.sim().run_until(100.0);
  EXPECT_EQ(giis.live_count(), 1u);  // still within TTL
  world.sim().run_until(400.0);
  EXPECT_EQ(giis.live_count(), 0u);  // aged out
}

TEST_F(MdsFixture, RestartedSiteReappears) {
  int free_a = 10;
  auto provider = make_provider(site_a, "pbs.anl.gov", 64, &free_a);
  provider->start();
  world.sim().run_until(10.0);
  site_a.crash();
  world.sim().run_until(500.0);
  EXPECT_EQ(giis.live_count(), 0u);
  site_a.restart();  // boot function resumes the registration loop
  world.sim().run_until(520.0);
  EXPECT_EQ(giis.live_count(), 1u);
}

TEST_F(MdsFixture, DirectoryCrashDropsSoftState) {
  int free_a = 10;
  auto provider = make_provider(site_a, "pbs.anl.gov", 64, &free_a);
  provider->start();
  world.sim().run_until(10.0);
  giis_host.crash();
  giis_host.restart();
  EXPECT_EQ(giis.live_count(), 0u);
  // Re-registration rebuilds the directory within one period.
  world.sim().run_until(130.0);
  EXPECT_EQ(giis.live_count(), 1u);
}

TEST_F(MdsFixture, UnregisterRemovesEntry) {
  int free_a = 10;
  auto provider = make_provider(site_a, "pbs.anl.gov", 64, &free_a);
  provider->start();
  world.sim().run_until(5.0);
  cs::RpcClient rpc(broker_host, world.net(), "unregister.rpc");
  cs::Payload payload;
  payload.set("name", "pbs.anl.gov");
  rpc.call(giis.address(), "grrp.unregister", std::move(payload), 30.0,
           [](cs::RpcOutcome, const cs::Payload&) {});
  world.sim().run_until(10.0);
  EXPECT_EQ(giis.live_count(), 0u);
}

TEST_F(MdsFixture, UnknownOperationRejected) {
  cs::RpcClient rpc(broker_host, world.net(), "bad.rpc");
  bool ok = true;
  rpc.call(giis.address(), "grip.bogus", {}, 30.0,
           [&](cs::RpcOutcome outcome, const cs::Payload&) {
             ok = outcome == cs::RpcOutcome::kAnswered;
           });
  world.sim().run_until(10.0);
  EXPECT_FALSE(ok);
}
