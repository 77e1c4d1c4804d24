// Kernel-level tests for the island partition: planner grouping, per-queue
// tombstone accounting under cancel-heavy load, context policing, and
// queue routing. These poke the Simulation surface directly — the
// end-to-end digest equalities live in parallel_digest_test.cpp.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "condorg/sim/host.h"
#include "condorg/sim/island.h"
#include "condorg/sim/network.h"
#include "condorg/sim/world.h"

namespace {

namespace sim = condorg::sim;

/// A two-host, two-island world; the guard pins a real two-worker pool
/// whatever the ambient CONDORG_PARALLEL says.
struct IslandFixture {
  sim::World::ScopedParallelOverride force{2};
  sim::World world{/*seed=*/7};
  sim::Host& a = world.add_host("a.example");
  sim::Host& b = world.add_host("b.example");
};

TEST(IslandPlanner, SeparateHostsFormSeparateIslands) {
  sim::World::ScopedParallelOverride force(2);
  sim::World world(7);
  sim::Host& a = world.add_host("a.example");
  sim::Host& b = world.add_host("b.example");
  const sim::IslandPlan plan = sim::IslandPlanner::build(
      world.net(), {a.queue(), b.queue()}, {"a.example", "b.example"});
  ASSERT_GT(plan.island_of_queue.size(), b.queue());
  EXPECT_EQ(plan.island_of_queue[0], 0u);  // control island
  EXPECT_NE(plan.island_of_queue[a.queue()], plan.island_of_queue[b.queue()]);
  EXPECT_EQ(plan.island_count, 3u);
  EXPECT_DOUBLE_EQ(plan.lookahead, world.net().default_link().latency);
}

TEST(IslandPlanner, ZeroLatencyLinkMergesItsEndpoints) {
  sim::World::ScopedParallelOverride force(2);
  sim::World world(7);
  sim::Host& a = world.add_host("a.example");
  sim::Host& b = world.add_host("b.example");
  sim::Host& c = world.add_host("c.example");
  sim::LinkConfig lan;
  lan.latency = 0.0;
  lan.jitter = 0.0;
  world.net().set_link("a.example", "b.example", lan);
  const sim::IslandPlan plan = sim::IslandPlanner::build(
      world.net(), {a.queue(), b.queue(), c.queue()},
      {"a.example", "b.example", "c.example"});
  EXPECT_EQ(plan.island_of_queue[a.queue()], plan.island_of_queue[b.queue()]);
  EXPECT_NE(plan.island_of_queue[a.queue()], plan.island_of_queue[c.queue()]);
  EXPECT_GT(plan.lookahead, 0.0);
}

TEST(IslandPlanner, ZeroLatencyDefaultCollapsesToOneIsland) {
  sim::World::ScopedParallelOverride force(2);
  sim::World world(7);
  sim::Host& a = world.add_host("a.example");
  sim::Host& b = world.add_host("b.example");
  sim::LinkConfig instant;
  instant.latency = 0.0;
  world.net().set_default_link(instant);
  const sim::IslandPlan plan = sim::IslandPlanner::build(
      world.net(), {a.queue(), b.queue()}, {"a.example", "b.example"});
  EXPECT_EQ(plan.island_of_queue[a.queue()], plan.island_of_queue[b.queue()]);
  EXPECT_DOUBLE_EQ(plan.lookahead, 0.0);  // engine serializes
}

TEST(IslandKernel, HostsGetDistinctQueuesAndEventsRouteToThem) {
  IslandFixture f;
  ASSERT_TRUE(f.world.sim().island_mode());
  EXPECT_NE(f.a.queue(), 0u);
  EXPECT_NE(f.b.queue(), 0u);
  EXPECT_NE(f.a.queue(), f.b.queue());

  std::uint32_t seen_a = 99, seen_b = 99, seen_control = 99;
  f.a.post(1.0, [&] { seen_a = f.world.sim().context_queue(); });
  f.b.post(1.0, [&] { seen_b = f.world.sim().context_queue(); });
  f.world.sim().schedule_at(1.0,
                            [&] { seen_control = f.world.sim().context_queue(); });
  f.world.sim().run_until(2.0);
  EXPECT_EQ(seen_a, f.a.queue());
  EXPECT_EQ(seen_b, f.b.queue());
  EXPECT_EQ(seen_control, 0u);
}

// Cancel-heavy regression: tombstones must be tracked per island queue —
// cancelled events on one host's calendar must neither count against nor
// linger in another island's queue, and draining a queue retires its own
// tombstones exactly.
TEST(IslandKernel, TombstonesStayPerQueueUnderCancelHeavyLoad) {
  IslandFixture f;
  sim::Simulation& s = f.world.sim();

  std::vector<sim::EventId> cancellable;
  int fired_a = 0, fired_b = 0;
  for (int i = 0; i < 200; ++i) {
    cancellable.push_back(
        f.a.post(1.0 + 0.01 * i, [&fired_a] { ++fired_a; }));
    f.b.post(1.0 + 0.01 * i, [&fired_b] { ++fired_b; });
  }
  // Cancel every other event on a's calendar from harness (control) context.
  int cancelled = 0;
  for (std::size_t i = 0; i < cancellable.size(); i += 2) {
    if (s.cancel(cancellable[i])) ++cancelled;
  }
  EXPECT_EQ(cancelled, 100);
  EXPECT_EQ(s.queue_tombstones(f.a.queue()), 100u);
  EXPECT_EQ(s.queue_tombstones(f.b.queue()), 0u);
  EXPECT_EQ(s.queue_pending(f.b.queue()), 200u);

  s.run_until(10.0);
  EXPECT_EQ(fired_a, 100);
  EXPECT_EQ(fired_b, 200);
  // The bounded run drains every calendar: no tombstone may leak across
  // (or linger inside) island queues.
  EXPECT_EQ(s.queue_tombstones(f.a.queue()), 0u);
  EXPECT_EQ(s.queue_tombstones(f.b.queue()), 0u);
  EXPECT_EQ(s.queue_pending(f.a.queue()), 0u);
  EXPECT_EQ(s.queue_pending(f.b.queue()), 0u);
}

// Cancelling another island's event from inside a host event is a
// determinism hazard (the result would depend on window interleaving); the
// kernel rejects it. Control context and the owning queue stay allowed.
TEST(IslandKernel, CrossIslandCancelFromHostContextThrows) {
  IslandFixture f;
  sim::Simulation& s = f.world.sim();

  const sim::EventId victim = f.b.post(5.0, [] {});
  bool own_cancel_ok = false;
  bool cross_cancel_threw = false;  // asserted on the main thread below
  f.a.post(1.0, [&] {
    try {
      static_cast<void>(s.cancel(victim));
    } catch (const std::logic_error&) {
      cross_cancel_threw = true;
    }
  });
  const sim::EventId own = f.a.post(5.0, [] {});
  f.a.post(2.0, [&] { own_cancel_ok = s.cancel(own); });
  s.run_until(3.0);
  EXPECT_TRUE(cross_cancel_threw);
  EXPECT_TRUE(own_cancel_ok);
  EXPECT_TRUE(s.cancel(victim));  // control context may cancel anywhere
}

TEST(IslandKernel, ZeroWorkerBudgetRunsOneWorkerIslands) {
  sim::World::ScopedParallelOverride force(0);
  sim::World world(7);
  sim::Host& a = world.add_host("a.example");
  sim::Host& b = world.add_host("b.example");
  EXPECT_TRUE(world.sim().island_mode());
  EXPECT_EQ(world.sim().island_threads(), 1u);
  EXPECT_NE(a.queue(), 0u);
  EXPECT_NE(b.queue(), a.queue());
  int fired = 0;
  a.post(1.0, [&] { ++fired; });
  b.post(1.0, [&] { ++fired; });
  world.sim().run_until(2.0);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(world.sim().island_plan().island_count, 3u);
}

TEST(IslandKernel, CrossHostDirectPostCommitsInsideItsWindow) {
  // A host that drives a daemon object living on another host posts
  // straight into that host's calendar. Here b (whose island runs after
  // a's) posts to a at `now`, after a already ran this window past that
  // instant; the event must still commit inside the window instead of
  // surfacing below an already-committed time.
  sim::World::ScopedParallelOverride force(1);
  sim::World world(7);
  sim::Host& a = world.add_host("a.example");
  sim::Host& b = world.add_host("b.example");
  std::vector<double> fired;
  a.post(1.01, [&] { fired.push_back(world.sim().now()); });
  b.post(1.0, [&] { a.post(0.0, [&] { fired.push_back(world.sim().now()); }); });
  b.post(1.04, [] {});
  world.sim().run();
  EXPECT_EQ(fired, (std::vector<double>{1.01, 1.01}));
  EXPECT_EQ(world.sim().dispatched(), 4u);
}

TEST(IslandKernel, IslandStatsCountPerIslandEvents) {
  IslandFixture f;
  sim::Simulation& s = f.world.sim();
  for (int i = 0; i < 50; ++i) {
    f.a.post(0.5 + 0.1 * i, [] {});
  }
  f.b.post(1.0, [] {});
  s.run_until(10.0);
  const std::vector<sim::Simulation::IslandStat> stats = s.island_stats();
  ASSERT_GE(stats.size(), 2u);
  std::uint64_t total = 0;
  for (const sim::Simulation::IslandStat& st : stats) total += st.events;
  EXPECT_EQ(total, s.dispatched());
}

}  // namespace
