// Coverage for smaller utilities: Lifetime guards, UserLog rendering,
// network delivery taps, and vanilla-universe queue operations.
#include <gtest/gtest.h>

#include "condorg/core/agent.h"
#include "condorg/core/broker.h"
#include "condorg/sim/lifetime.h"
#include "condorg/sim/world.h"
#include "condorg/workloads/grid_builder.h"

namespace cs = condorg::sim;
namespace core = condorg::core;
namespace cw = condorg::workloads;

// ---------- Lifetime ----------

TEST(Lifetime, WrapRunsWhileAlive) {
  cs::Lifetime life;
  int fired = 0;
  auto fn = life.wrap([&] { ++fired; });
  fn();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(life.alive());
}

TEST(Lifetime, RevokeSilencesWrappedCallbacks) {
  cs::Lifetime life;
  int fired = 0;
  auto fn = life.wrap([&] { ++fired; });
  life.revoke();
  fn();
  EXPECT_EQ(fired, 0);
  EXPECT_FALSE(life.alive());
}

TEST(Lifetime, DestructionSilencesWrappedCallbacks) {
  std::function<void()> fn;
  int fired = 0;
  {
    cs::Lifetime life;
    fn = life.wrap([&] { ++fired; });
  }
  fn();
  EXPECT_EQ(fired, 0);
}

// ---------- UserLog ----------

TEST(UserLog, EventsForAndRender) {
  core::UserLog log;
  log.record(1.0, 7, core::LogEventKind::kSubmit, "grid");
  log.record(2.0, 8, core::LogEventKind::kSubmit, "grid");
  log.record(3.0, 7, core::LogEventKind::kExecute, "site=x");
  log.record(9.0, 7, core::LogEventKind::kTerminated, "");
  const auto events = log.events_for(7);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[1].kind, core::LogEventKind::kExecute);
  EXPECT_EQ(log.count(core::LogEventKind::kSubmit), 2u);
  const std::string text = log.render();
  EXPECT_NE(text.find("TERMINATED"), std::string::npos);
  EXPECT_NE(text.find("site=x"), std::string::npos);
}

TEST(UserLog, ListenersFirePerEvent) {
  core::UserLog log;
  int calls = 0;
  log.add_listener([&](const core::LogEvent&) { ++calls; });
  log.record(1.0, 1, core::LogEventKind::kSubmit);
  log.record(2.0, 1, core::LogEventKind::kHeld, "x");
  EXPECT_EQ(calls, 2);
}

// ---------- network delivery tap ----------

TEST(NetworkTap, SeesDeliveredMessages) {
  cs::World world;
  world.add_host("a");
  cs::Host& b = world.add_host("b");
  b.register_service("svc", [](const cs::Message&) {});
  std::vector<std::string> types;
  world.net().set_delivery_tap(
      [&](const cs::Message& m) { types.push_back(m.type); });
  cs::Message m;
  m.from = cs::Address{"a", "x"};
  m.to = cs::Address{"b", "svc"};
  m.type = "ping";
  world.net().send(m);
  world.sim().run();
  ASSERT_EQ(types.size(), 1u);
  EXPECT_EQ(types[0], "ping");
}

// ---------- vanilla-universe queue operations ----------

TEST(VanillaOps, RemoveIdleVanillaJob) {
  cw::GridTestbed testbed(91);
  testbed.add_submit_host("submit");
  core::CondorGAgent agent(testbed.world(), "submit");
  agent.start();
  core::JobDescription job;
  job.universe = core::Universe::kVanilla;
  const auto id = agent.submit(job);  // no slots: stays idle
  testbed.world().sim().run_until(300.0);
  EXPECT_EQ(agent.query(id)->status, core::JobStatus::kIdle);
  EXPECT_TRUE(agent.remove(id));
  EXPECT_TRUE(agent.schedd().all_terminal());
}

TEST(VanillaOps, HoldPreventsMatching) {
  cw::GridTestbed testbed(92);
  cw::SiteSpec site;
  site.name = "pool";
  site.cpus = 4;
  testbed.add_site(site);
  testbed.add_submit_host("submit");
  core::CondorGAgent agent(testbed.world(), "submit");
  core::GlideInOptions glidein;
  glidein.tick_interval = 60.0;
  auto& glideins = agent.enable_glideins(glidein);
  glideins.add_site(core::GlideInSite{"pool",
                                      testbed.site(0).gatekeeper_address(),
                                      testbed.site(0).cluster, 4, 1});
  agent.start();
  core::JobDescription job;
  job.universe = core::Universe::kVanilla;
  job.runtime_seconds = 600.0;
  const auto id = agent.submit(job);
  ASSERT_TRUE(agent.hold(id, "user hold"));
  // The personal pool's job ads: a job has one while it is Idle.
  const auto job_ads = [&agent] {
    std::size_t n = 0;
    for (const auto& [name, entry] : agent.collector().live_ads()) {
      if (entry.ad->contains("JobUniverse")) ++n;
    }
    return n;
  };
  testbed.world().sim().run_until(3 * 3600.0);
  // Held: never matched, never ran, and no job ad.
  EXPECT_EQ(agent.query(id)->status, core::JobStatus::kHeld);
  EXPECT_EQ(job_ads(), 0u);
  agent.release(id);
  // The first cycle after the release writes the job's ad.
  auto& negotiator = agent.vanilla().negotiator();
  const std::uint64_t cycles = negotiator.cycles();
  while (negotiator.cycles() == cycles &&
         testbed.world().now() < 4 * 3600.0) {
    testbed.world().sim().run_until(testbed.world().now() + 1.0);
  }
  EXPECT_EQ(job_ads(), 1u);
  while (!agent.schedd().all_terminal() &&
         testbed.world().now() < 10 * 3600.0) {
    testbed.world().sim().run_until(testbed.world().now() + 120.0);
  }
  EXPECT_EQ(agent.query(id)->status, core::JobStatus::kCompleted);
}
