#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "condorg/gass/client.h"
#include "condorg/gass/file_service.h"
#include "condorg/gass/staging_cache.h"
#include "condorg/sim/world.h"

namespace cg = condorg::gass;
namespace cs = condorg::sim;
namespace gsi = condorg::gsi;

// ---------- FileStore ----------

TEST(FileStore, PutGetEraseList) {
  cg::FileStore store;
  store.put("job/stdin", "input data");
  store.put("job/exe", "binary", 1 << 20);
  EXPECT_TRUE(store.contains("job/stdin"));
  EXPECT_EQ(store.get("job/stdin")->content, "input data");
  EXPECT_EQ(store.get("job/stdin")->size(), 10u);
  EXPECT_EQ(store.get("job/exe")->size(), 1u << 20);  // declared size wins
  EXPECT_EQ(store.list("job/").size(), 2u);
  EXPECT_EQ(store.list("nope/").size(), 0u);
  EXPECT_TRUE(store.erase("job/exe"));
  EXPECT_FALSE(store.erase("job/exe"));
  EXPECT_EQ(store.file_count(), 1u);
}

TEST(FileStore, AppendAccumulates) {
  cg::FileStore store;
  store.append("out.log", "chunk1:", 100);
  store.append("out.log", "chunk2", 50);
  EXPECT_EQ(store.get("out.log")->content, "chunk1:chunk2");
  EXPECT_EQ(store.get("out.log")->size(), 150u);
}

TEST(FileStore, ChecksumDetectsContentChange) {
  cg::FileStore store;
  store.put("a", "hello");
  store.put("b", "hellp");
  EXPECT_NE(store.get("a")->checksum(), store.get("b")->checksum());
}

TEST(FileStore, ChecksumMemoizedUntilContentChanges) {
  cg::FileStore store;
  store.put("f", "hello");
  const std::uint64_t first = store.get("f")->checksum();
  EXPECT_EQ(store.get("f")->checksum(), first);  // served from the memo
  store.append("f", " world", 0);                // append invalidates
  EXPECT_NE(store.get("f")->checksum(), first);
  store.put("f", "hello");                       // re-put restores
  EXPECT_EQ(store.get("f")->checksum(), first);
}

TEST(FileStore, PutIfAbsentKeepsFirstContent) {
  cg::FileStore store;
  EXPECT_TRUE(store.put_if_absent("exe/cas/1", "v1", 100));
  EXPECT_FALSE(store.put_if_absent("exe/cas/1", "v2", 200));
  EXPECT_EQ(store.get("exe/cas/1")->content, "v1");
  EXPECT_EQ(store.get("exe/cas/1")->size(), 100u);
}

TEST(FileStore, FindAndStatFastPaths) {
  cg::FileStore store;
  store.put("f", "payload", 4096);
  const cg::FileData* file = store.find("f");
  ASSERT_NE(file, nullptr);
  EXPECT_EQ(file->content, "payload");
  EXPECT_EQ(store.find("missing"), nullptr);

  const auto stat = store.stat("f");
  ASSERT_TRUE(stat.has_value());
  EXPECT_EQ(stat->size, 4096u);
  EXPECT_EQ(stat->checksum, file->checksum());
  EXPECT_FALSE(store.stat("missing").has_value());
}

// ---------- FileService over the network ----------

namespace {

struct GassFixture : public ::testing::Test {
  GassFixture()
      : submit(world.add_host("submit.wisc.edu")),
        site(world.add_host("gatekeeper.anl.gov")),
        repo(world.add_host("mss.ncsa.edu")),
        gass(submit, world.net(), "gass"),
        gridftp(repo, world.net(), "gridftp"),
        client(site, world.net(), "test.client") {}

  cs::World world;
  cs::Host& submit;
  cs::Host& site;
  cs::Host& repo;
  cg::FileService gass;
  cg::FileService gridftp;
  cg::FileClient client;
};

}  // namespace

TEST_F(GassFixture, StageInGet) {
  gass.store().put("jobs/1/executable", "#!worker", 4 << 20);
  std::optional<cg::FileInfo> got;
  client.get(gass.address(), "jobs/1/executable",
             [&](std::optional<cg::FileInfo> info) { got = std::move(info); });
  world.sim().run();
  ASSERT_TRUE(got);
  EXPECT_EQ(got->content, "#!worker");
  EXPECT_EQ(got->size, 4u << 20);
  EXPECT_EQ(gass.gets_served(), 1u);
  EXPECT_GT(world.now(), 0.0);
}

TEST_F(GassFixture, TransferTimeScalesWithFileSize) {
  cs::LinkConfig link;
  link.latency = 0.1;
  link.jitter = 0.0;
  link.bandwidth_bps = 8.0e6;  // 1 MB/s
  world.net().set_default_link(link);
  gass.store().put("small", "x", 1000);
  gass.store().put("big", "y", 10'000'000);

  double small_done = 0, big_done = 0;
  client.get(gass.address(), "small",
             [&](std::optional<cg::FileInfo>) { small_done = world.now(); });
  world.sim().run();
  client.get(gass.address(), "big",
             [&](std::optional<cg::FileInfo>) { big_done = world.now(); });
  world.sim().run();
  // 10 MB at 1 MB/s ~ 10 s; 1 KB ~ instantaneous.
  EXPECT_LT(small_done, 1.0);
  EXPECT_GT(big_done - small_done, 9.0);
}

TEST_F(GassFixture, MissingFileFails) {
  bool called = false;
  client.get(gass.address(), "nope", [&](std::optional<cg::FileInfo> info) {
    called = true;
    EXPECT_FALSE(info.has_value());
  });
  world.sim().run();
  EXPECT_TRUE(called);
}

TEST_F(GassFixture, PutAndStat) {
  bool ok = false;
  client.put(gridftp.address(), "events/run1.dat", "evtdata", 500 << 20,
             [&](bool result) { ok = result; });
  world.sim().run();
  EXPECT_TRUE(ok);
  ASSERT_TRUE(gridftp.store().contains("events/run1.dat"));
  EXPECT_EQ(gridftp.store().get("events/run1.dat")->size(), 500u << 20);

  std::optional<cg::FileInfo> stat;
  client.stat(gridftp.address(), "events/run1.dat",
              [&](std::optional<cg::FileInfo> info) { stat = std::move(info); });
  world.sim().run();
  ASSERT_TRUE(stat);
  EXPECT_EQ(stat->size, 500u << 20);
}

TEST_F(GassFixture, AppendStreamsOutputChunks) {
  // G-Cat style: partial-chunk appends build the remote file. Chunks are
  // sent sequentially (each after the previous ack) — concurrent appends
  // could be reordered by network jitter, which is why G-Cat serializes.
  int acks = 0;
  std::function<void(int)> send_chunk = [&](int i) {
    if (i == 5) return;
    client.append(gridftp.address(), "gaussian.out",
                  "chunk" + std::to_string(i) + ";", 1 << 20, [&, i](bool ok) {
                    acks += ok ? 1 : 0;
                    send_chunk(i + 1);
                  });
  };
  send_chunk(0);
  world.sim().run();
  EXPECT_EQ(acks, 5);
  EXPECT_EQ(gridftp.store().get("gaussian.out")->content,
            "chunk0;chunk1;chunk2;chunk3;chunk4;");
  EXPECT_EQ(gridftp.store().get("gaussian.out")->size(), 5u << 20);
  EXPECT_EQ(gridftp.appends_served(), 5u);
}

TEST_F(GassFixture, ThirdPartyPull) {
  // Repository pulls a file straight from the GASS server (GridFTP-style),
  // initiated by the site.
  gass.store().put("glidein/condor_startd", "STARTD", 12 << 20);
  bool ok = false;
  client.pull(gridftp.address(), "cache/condor_startd", gass.address(),
              "glidein/condor_startd", [&](bool result) { ok = result; });
  world.sim().run();
  EXPECT_TRUE(ok);
  ASSERT_TRUE(gridftp.store().contains("cache/condor_startd"));
  EXPECT_EQ(gridftp.store().get("cache/condor_startd")->content, "STARTD");
  EXPECT_EQ(gridftp.store().get("cache/condor_startd")->size(), 12u << 20);
}

TEST_F(GassFixture, PullFromDeadSourceFails) {
  submit.crash();
  bool called = false;
  client.pull(gridftp.address(), "cache/x", gass.address(), "nope",
              [&](bool ok) {
                called = true;
                EXPECT_FALSE(ok);
              });
  world.sim().run();
  EXPECT_TRUE(called);
}

TEST_F(GassFixture, PartitionTimesOutRequest) {
  gass.store().put("f", "data");
  world.net().set_partitioned("submit.wisc.edu", "gatekeeper.anl.gov", true);
  bool called = false;
  client.get(gass.address(), "f", [&](std::optional<cg::FileInfo> info) {
    called = true;
    EXPECT_FALSE(info.has_value());
  });
  world.sim().run();
  EXPECT_TRUE(called);
}

TEST_F(GassFixture, ScratchStoreWipedByCrash) {
  gridftp.set_survives_crash(false);
  gridftp.store().put("scratch/tmp", "data");
  repo.crash();
  repo.restart();
  EXPECT_FALSE(gridftp.store().contains("scratch/tmp"));
}

TEST_F(GassFixture, DurableStoreSurvivesCrash) {
  gridftp.store().put("tape/archive", "data");
  repo.crash();
  repo.restart();
  EXPECT_TRUE(gridftp.store().contains("tape/archive"));
  // And the service still answers after the reboot.
  std::optional<cg::FileInfo> got;
  client.get(gridftp.address(), "tape/archive",
             [&](std::optional<cg::FileInfo> info) { got = std::move(info); });
  world.sim().run();
  EXPECT_TRUE(got.has_value());
}

// ---------- per-site staging cache ----------

namespace {

struct StagingCacheFixture : public ::testing::Test {
  StagingCacheFixture()
      : submit(world.add_host("submit.wisc.edu")),
        site_a(world.add_host("site-a.grid.org")),
        site_b(world.add_host("site-b.grid.org")),
        gass(submit, world.net(), "gass"),
        cache_a(site_a, world.net(), "stagecache.a"),
        cache_b(site_b, world.net(), "stagecache.b") {}

  std::uint64_t put_exe(const std::string& path, const std::string& content) {
    gass.store().put(path, content, content.size());
    return gass.store().get(path)->checksum();
  }

  cs::World world;
  cs::Host& submit;
  cs::Host& site_a;
  cs::Host& site_b;
  cg::FileService gass;
  cg::StagingCache cache_a;
  cg::StagingCache cache_b;
};

}  // namespace

TEST_F(StagingCacheFixture, CoalescesConcurrentFetchesIntoOneTransfer) {
  const std::uint64_t checksum = put_exe("exe/cas/1", "worker-v1");
  int delivered = 0;
  for (int i = 0; i < 5; ++i) {
    cache_a.fetch(gass.address(), "exe/cas/1", checksum,
                  [&](std::shared_ptr<const cg::FileInfo> info) {
                    ASSERT_NE(info, nullptr);
                    EXPECT_EQ(info->content, "worker-v1");
                    ++delivered;
                  });
  }
  world.sim().run();
  EXPECT_EQ(delivered, 5);
  EXPECT_EQ(gass.gets_served(), 1u);  // one wire transfer for five jobs
  EXPECT_EQ(cache_a.misses(), 1u);
  EXPECT_EQ(cache_a.hits(), 4u);
}

TEST_F(StagingCacheFixture, CachedEntryServesRepeatsSynchronously) {
  const std::uint64_t checksum = put_exe("exe/cas/1", "worker-v1");
  cache_a.fetch(gass.address(), "exe/cas/1", checksum,
                [](std::shared_ptr<const cg::FileInfo>) {});
  world.sim().run();
  ASSERT_EQ(gass.gets_served(), 1u);

  bool synchronous = false;
  cache_a.fetch(gass.address(), "exe/cas/1", checksum,
                [&](std::shared_ptr<const cg::FileInfo> info) {
                  ASSERT_NE(info, nullptr);
                  synchronous = true;
                });
  EXPECT_TRUE(synchronous);  // hit: no events needed
  world.sim().run();
  EXPECT_EQ(gass.gets_served(), 1u);
  EXPECT_EQ(cache_a.entry_count(), 1u);
}

TEST_F(StagingCacheFixture, ChecksumMismatchInvalidatesAndRestages) {
  const std::uint64_t old_sum = put_exe("exe/a.out", "build-1");
  cache_a.fetch(gass.address(), "exe/a.out", old_sum,
                [](std::shared_ptr<const cg::FileInfo>) {});
  world.sim().run();
  ASSERT_EQ(gass.gets_served(), 1u);

  // The user rebuilds the executable under the same name: the declared
  // checksum changes, the cached copy must NOT be served.
  const std::uint64_t new_sum = put_exe("exe/a.out", "build-2");
  ASSERT_NE(new_sum, old_sum);
  std::shared_ptr<const cg::FileInfo> got;
  cache_a.fetch(gass.address(), "exe/a.out", new_sum,
                [&](std::shared_ptr<const cg::FileInfo> info) { got = std::move(info); });
  world.sim().run();
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->content, "build-2");
  EXPECT_EQ(gass.gets_served(), 2u);  // re-staged exactly once
}

TEST_F(StagingCacheFixture, FailureNotifiesEveryWaiterAndAllowsRetry) {
  int failures = 0;
  for (int i = 0; i < 3; ++i) {
    cache_a.fetch(gass.address(), "exe/missing", 7,
                  [&](std::shared_ptr<const cg::FileInfo> info) {
                    EXPECT_EQ(info, nullptr);
                    ++failures;
                  });
  }
  world.sim().run();
  EXPECT_EQ(failures, 3);
  EXPECT_EQ(cache_a.entry_count(), 0u);  // failed entry is not cached

  // Once the file exists a retry succeeds.
  const std::uint64_t checksum = put_exe("exe/missing", "late");
  std::shared_ptr<const cg::FileInfo> got;
  cache_a.fetch(gass.address(), "exe/missing", checksum,
                [&](std::shared_ptr<const cg::FileInfo> info) { got = std::move(info); });
  world.sim().run();
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->content, "late");
}

TEST_F(StagingCacheFixture, SitesCacheIndependently) {
  const std::uint64_t checksum = put_exe("exe/cas/1", "worker-v1");
  for (cg::StagingCache* cache : {&cache_a, &cache_b}) {
    cache->fetch(gass.address(), "exe/cas/1", checksum,
                 [](std::shared_ptr<const cg::FileInfo>) {});
  }
  world.sim().run();
  // One transfer per site — a site cache never serves another site.
  EXPECT_EQ(gass.gets_served(), 2u);
  EXPECT_EQ(cache_a.misses(), 1u);
  EXPECT_EQ(cache_b.misses(), 1u);
}

TEST_F(StagingCacheFixture, WaitersAndLaterHitsShareOneFileInfo) {
  const std::uint64_t checksum = put_exe("exe/cas/1", "worker-v1");
  std::vector<const cg::FileInfo*> seen;
  const auto record = [&](std::shared_ptr<const cg::FileInfo> info) {
    ASSERT_NE(info, nullptr);
    seen.push_back(info.get());
  };
  for (int i = 0; i < 5; ++i) {
    cache_a.fetch(gass.address(), "exe/cas/1", checksum, record);
  }
  world.sim().run();
  cache_a.fetch(gass.address(), "exe/cas/1", checksum, record);  // a hit
  ASSERT_EQ(seen.size(), 6u);
  for (const cg::FileInfo* info : seen) EXPECT_EQ(info, seen.front());
  EXPECT_EQ(seen.front()->content, "worker-v1");
  EXPECT_EQ(gass.gets_served(), 1u);
}

TEST_F(StagingCacheFixture, WaiterThatInvalidatesLeavesTheOthersIntact) {
  const std::uint64_t checksum = put_exe("exe/a.out", "build-1");
  std::vector<std::shared_ptr<const cg::FileInfo>> held;
  for (int i = 0; i < 5; ++i) {
    cache_a.fetch(
        gass.address(), "exe/a.out", checksum,
        [&](std::shared_ptr<const cg::FileInfo> info) {
          ASSERT_NE(info, nullptr);
          if (held.empty()) {
            // The first waiter expects other content under the same path:
            // the entry is invalidated and re-staged before the other four
            // waiters run.
            cache_a.fetch(gass.address(), "exe/a.out", checksum + 1,
                          [](std::shared_ptr<const cg::FileInfo>) {});
          }
          held.push_back(std::move(info));
        });
  }
  world.sim().run();
  ASSERT_EQ(held.size(), 5u);
  for (const auto& info : held) {
    EXPECT_EQ(info, held.front());
    EXPECT_EQ(info->content, "build-1");
    EXPECT_EQ(info->checksum, checksum);
  }
  EXPECT_EQ(gass.gets_served(), 2u);  // the invalidating fetch re-staged
}

// ---------- authenticated service ----------

namespace {

struct AuthGassFixture : public ::testing::Test {
  AuthGassFixture()
      : pki(condorg::util::Rng(3)),
        ca(pki, "/CN=CA"),
        user(ca.issue(pki, "/O=UW/CN=todd", 0.0, 86400.0)),
        stranger(ca.issue(pki, "/O=Elsewhere/CN=eve", 0.0, 86400.0)),
        server_host(world.add_host("server")),
        client_host(world.add_host("client")) {
    gsi::AuthConfig auth;
    auth.pki = &pki;
    auth.anchors[ca.name()] = ca.public_key();
    auth.gridmap.add("/O=UW/CN=todd", "todd");
    auth.require_auth = true;
    service = std::make_unique<cg::FileService>(server_host, world.net(),
                                                "gass", std::move(auth));
    service->store().put("data", "payload");
    client = std::make_unique<cg::FileClient>(client_host, world.net(),
                                              "client.rpc");
  }
  gsi::Pki pki;
  gsi::CertificateAuthority ca;
  gsi::Credential user;
  gsi::Credential stranger;
  cs::World world;
  cs::Host& server_host;
  cs::Host& client_host;
  std::unique_ptr<cg::FileService> service;
  std::unique_ptr<cg::FileClient> client;
};

}  // namespace

TEST_F(AuthGassFixture, AuthorizedProxySucceeds) {
  client->set_credential(user.delegate(pki, 0.0, 3600.0));
  std::optional<cg::FileInfo> got;
  client->get(service->address(), "data",
              [&](std::optional<cg::FileInfo> info) { got = std::move(info); });
  world.sim().run();
  ASSERT_TRUE(got);
  EXPECT_EQ(got->content, "payload");
  EXPECT_EQ(service->auth_failures(), 0u);
}

TEST_F(AuthGassFixture, MissingCredentialRejected) {
  bool called = false;
  client->get(service->address(), "data",
              [&](std::optional<cg::FileInfo> info) {
                called = true;
                EXPECT_FALSE(info.has_value());
              });
  world.sim().run();
  EXPECT_TRUE(called);
  EXPECT_EQ(service->auth_failures(), 1u);
}

TEST_F(AuthGassFixture, UnmappedIdentityRejected) {
  client->set_credential(stranger.delegate(pki, 0.0, 3600.0));
  bool called = false;
  client->get(service->address(), "data",
              [&](std::optional<cg::FileInfo> info) {
                called = true;
                EXPECT_FALSE(info.has_value());
              });
  world.sim().run();
  EXPECT_TRUE(called);
  EXPECT_EQ(service->auth_failures(), 1u);
}

TEST_F(AuthGassFixture, ExpiredProxyRejected) {
  client->set_credential(user.delegate(pki, 0.0, 1.0));  // 1-second proxy
  world.sim().run_until(100.0);
  bool called = false;
  client->get(service->address(), "data",
              [&](std::optional<cg::FileInfo> info) {
                called = true;
                EXPECT_FALSE(info.has_value());
              });
  world.sim().run();
  EXPECT_TRUE(called);
  EXPECT_EQ(service->auth_failures(), 1u);
}
