#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "condorg/sim/failure.h"
#include "condorg/sim/invariant_auditor.h"
#include "condorg/sim/rpc.h"
#include "condorg/sim/world.h"

namespace cs = condorg::sim;

// ---------- Simulation kernel ----------

TEST(Simulation, RunsEventsInTimeOrder) {
  cs::Simulation sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulation, SameTimeEventsAreFifo) {
  cs::Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulation, ScheduleInAccumulates) {
  cs::Simulation sim;
  double fired_at = -1;
  sim.schedule_in(5.0, [&] {
    sim.schedule_in(2.5, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(Simulation, CancelPreventsDispatch) {
  cs::Simulation sim;
  bool fired = false;
  const auto id = sim.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // second cancel is a no-op
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulation, RunUntilAdvancesClockAndReportsPending) {
  cs::Simulation sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(10.0, [&] { ++fired; });
  EXPECT_TRUE(sim.run_until(5.0));
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  EXPECT_FALSE(sim.run_until(20.0));
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, StopAbortsRun) {
  cs::Simulation sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule_at(2.0, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(Simulation, PastSchedulingClampsToNow) {
  cs::Simulation sim;
  double fired_at = -1;
  sim.schedule_at(5.0, [&] {
    sim.schedule_at(1.0, [&] { fired_at = sim.now(); });  // in the past
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

TEST(Simulation, NullCallbackThrows) {
  cs::Simulation sim;
  EXPECT_THROW(sim.schedule_at(1.0, nullptr), std::invalid_argument);
}

TEST(Simulation, CancelFromEarlierEventPreventsDispatch) {
  cs::Simulation sim;
  bool fired = false;
  const auto id = sim.schedule_at(2.0, [&] { fired = true; });
  sim.schedule_at(1.0, [&] { EXPECT_TRUE(sim.cancel(id)); });
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulation, CancelMiddleOfSameTimeBatchKeepsFifo) {
  cs::Simulation sim;
  std::vector<char> order;
  sim.schedule_at(1.0, [&] { order.push_back('a'); });
  const auto b = sim.schedule_at(1.0, [&] { order.push_back('b'); });
  sim.schedule_at(1.0, [&] { order.push_back('c'); });
  EXPECT_TRUE(sim.cancel(b));
  sim.run();
  EXPECT_EQ(order, (std::vector<char>{'a', 'c'}));
}

TEST(Simulation, CancelUnknownIdIsFalse) {
  cs::Simulation sim;
  EXPECT_FALSE(sim.cancel(123456));
}

// ---------- Generation-tagged event ids (slab kernel) ----------

TEST(Simulation, CancelAfterFireIsFalse) {
  cs::Simulation sim;
  bool fired = false;
  const auto id = sim.schedule_at(1.0, [&] { fired = true; });
  sim.run();
  EXPECT_TRUE(fired);
  // The id's slab slot is retired at dispatch; a late cancel must not
  // report success (or touch whatever reuses the slot).
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulation, CancelThenRescheduleReusesSlotSafely) {
  cs::Simulation sim;
  bool first_fired = false;
  bool second_fired = false;
  const auto first = sim.schedule_at(1.0, [&] { first_fired = true; });
  EXPECT_TRUE(sim.cancel(first));
  // The freed slab slot is recycled for the next event; the stale id must
  // address the old generation, not the new occupant.
  const auto second = sim.schedule_at(2.0, [&] { second_fired = true; });
  EXPECT_FALSE(sim.cancel(first));  // stale: same slot, older generation
  sim.run();
  EXPECT_FALSE(first_fired);
  EXPECT_TRUE(second_fired);
  EXPECT_FALSE(sim.cancel(second));  // already dispatched
}

TEST(Simulation, StaleIdAfterDispatchCannotCancelSlotReuser) {
  cs::Simulation sim;
  const auto first = sim.schedule_at(1.0, [] {});
  sim.run();  // retires `first`, freeing its slot
  bool fired = false;
  const auto second = sim.schedule_at(2.0, [&] { fired = true; });
  EXPECT_FALSE(sim.cancel(first));  // must not hit `second`
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_NE(first, second);
}

TEST(Simulation, ManyCancelRescheduleCyclesStayConsistent) {
  cs::Simulation sim;
  int fired = 0;
  // Churn the free list: every odd event is cancelled, every even one kept.
  std::vector<cs::EventId> kept;
  for (int i = 0; i < 200; ++i) {
    const auto id =
        sim.schedule_at(static_cast<double>(i % 7), [&] { ++fired; });
    if (i % 2 == 1) {
      EXPECT_TRUE(sim.cancel(id));
    } else {
      kept.push_back(id);
    }
  }
  EXPECT_EQ(sim.pending(), kept.size());
  sim.run();
  EXPECT_EQ(fired, 100);
  for (const auto id : kept) EXPECT_FALSE(sim.cancel(id));
  EXPECT_EQ(sim.pending(), 0u);
}

// ---------- Trace digest (determinism self-check) ----------

TEST(Simulation, TraceDigestIsReproducible) {
  const auto run_one = [] {
    cs::Simulation sim;
    for (int i = 0; i < 5; ++i) {
      sim.schedule_at(1.0 + i, [] {});
    }
    sim.run();
    return sim.trace_digest();
  };
  EXPECT_EQ(run_one(), run_one());
}

TEST(Simulation, TraceDigestDistinguishesSchedules) {
  cs::Simulation a;
  a.schedule_at(1.0, [] {});
  a.schedule_at(2.0, [] {});
  a.run();
  cs::Simulation b;
  b.schedule_at(2.0, [] {});
  b.schedule_at(1.0, [] {});  // same dispatch times, different event ids
  b.run();
  EXPECT_NE(a.trace_digest(), b.trace_digest());
}

TEST(Simulation, TraceDigestIsFnv1aOverCommittedKeys) {
  // The digest is byte-wise FNV-1a over each committed key's 24 bytes —
  // time bits, origin queue, origin counter — in dispatch order. Pinned
  // against a naive fold: the dispatch path skips zero-byte runs, and this
  // is what proves the shortcut never changes a digest.
  const auto fold = [](std::uint64_t h, std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (word >> (8 * byte)) & 0xff;
      h *= 1099511628211ull;
    }
    return h;
  };
  const auto bits = [](double t) {
    std::uint64_t b = 0;
    std::memcpy(&b, &t, sizeof(b));
    return b;
  };
  cs::Simulation sim;
  const std::uint32_t host = sim.register_queue();
  struct Key {
    double when;
    std::uint64_t origin;
    std::uint64_t ctr;
  };
  std::vector<Key> keys;
  std::uint64_t ctr = 0;
  // Zero, round, and full-mantissa times; counters past one byte; and one
  // event scheduled from a host queue (a nonzero origin).
  for (const double t : {0.0, 1.0, 0.1, 1234.5678, 3.0}) {
    sim.schedule_at(t, [] {});
    keys.push_back({t, 0, ++ctr});
  }
  for (int i = 0; i < 300; ++i) {
    sim.schedule_at(5.0, [] {});
    keys.push_back({5.0, 0, ++ctr});
  }
  sim.schedule_on_queue(host, 6.0, [&sim] { sim.schedule_at(7.25, [] {}); });
  keys.push_back({6.0, 0, ++ctr});
  keys.push_back({7.25, host, 1});
  sim.run();

  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    return std::tie(a.when, a.origin, a.ctr) <
           std::tie(b.when, b.origin, b.ctr);
  });
  std::uint64_t expected = 14695981039346656037ull;  // FNV-1a basis
  for (const Key& k : keys) {
    expected = fold(fold(fold(expected, bits(k.when)), k.origin), k.ctr);
  }
  EXPECT_EQ(sim.dispatched(), keys.size());
  EXPECT_EQ(sim.trace_digest(), expected);
}

TEST(Simulation, CancelledEventsLeaveNoDigestMark) {
  cs::Simulation a;
  a.schedule_at(1.0, [] {});
  a.run();
  cs::Simulation b;
  b.schedule_at(1.0, [] {});
  const auto ghost = b.schedule_at(2.0, [] {});
  b.cancel(ghost);
  b.run();
  EXPECT_EQ(a.trace_digest(), b.trace_digest());
}

// ---------- InvariantAuditor engine ----------

TEST(InvariantAuditor, RecordsViolationsWithTimeAndCheckName) {
  cs::InvariantAuditor auditor;
  int calls = 0;
  auditor.add_check("counts", [&calls](std::vector<std::string>& out) {
    if (++calls >= 2) out.push_back("boom");
  });
  EXPECT_EQ(auditor.run(1.0), 0u);
  EXPECT_TRUE(auditor.ok());
  EXPECT_EQ(auditor.run(2.0), 1u);
  EXPECT_FALSE(auditor.ok());
  ASSERT_EQ(auditor.violations().size(), 1u);
  EXPECT_EQ(auditor.violations()[0].check, "counts");
  EXPECT_DOUBLE_EQ(auditor.violations()[0].when, 2.0);
  EXPECT_EQ(auditor.audits_run(), 2u);
  EXPECT_NE(auditor.report().find("boom"), std::string::npos);
}

TEST(InvariantAuditor, NullCheckRejected) {
  cs::InvariantAuditor auditor;
  EXPECT_THROW(auditor.add_check("x", nullptr), std::invalid_argument);
}

TEST(InvariantAuditor, FailFastThrowsOnFirstViolation) {
  cs::InvariantAuditor auditor;
  auditor.add_check("always", [](std::vector<std::string>& out) {
    out.push_back("broken");
  });
  auditor.set_fail_fast(true);
  EXPECT_THROW(auditor.run(5.0), std::logic_error);
}

TEST(Simulation, AttachedAuditorRunsEveryPeriodEvents) {
  cs::Simulation sim;
  cs::InvariantAuditor auditor;
  auditor.add_check("noop", [](std::vector<std::string>&) {});
  sim.attach_auditor(&auditor, 2);
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(1.0 + i, [] {});
  }
  sim.run();
  EXPECT_EQ(auditor.audits_run(), 5u);
  sim.attach_auditor(nullptr);
  EXPECT_EQ(sim.auditor(), nullptr);
}

// ---------- Host ----------

TEST(Host, PostRunsWhenAlive) {
  cs::World world;
  cs::Host& h = world.add_host("submit");
  int fired = 0;
  h.post(1.0, [&] { ++fired; });
  world.sim().run();
  EXPECT_EQ(fired, 1);
}

TEST(Host, CrashFencesPendingCallbacks) {
  cs::World world;
  cs::Host& h = world.add_host("submit");
  int fired = 0;
  h.post(10.0, [&] { ++fired; });
  world.sim().schedule_at(5.0, [&] { h.crash(); });
  world.sim().schedule_at(6.0, [&] { h.restart(); });
  world.sim().run();
  // The callback belonged to epoch 1; the host is in epoch 2 at t=10.
  EXPECT_EQ(fired, 0);
  EXPECT_TRUE(h.alive());
  EXPECT_EQ(h.epoch(), 2u);
}

TEST(Host, PostAnyEpochSurvivesRestart) {
  cs::World world;
  cs::Host& h = world.add_host("submit");
  int fired = 0;
  h.post_any_epoch(10.0, [&] { ++fired; });
  world.sim().schedule_at(5.0, [&] { h.crash_for(1.0); });
  world.sim().run();
  EXPECT_EQ(fired, 1);
}

TEST(Host, PostAnyEpochSkipsDeadHost) {
  cs::World world;
  cs::Host& h = world.add_host("submit");
  int fired = 0;
  h.post_any_epoch(10.0, [&] { ++fired; });
  world.sim().schedule_at(5.0, [&] { h.crash(); });  // never restarted
  world.sim().run();
  EXPECT_EQ(fired, 0);
}

TEST(Host, DiskSurvivesCrash) {
  cs::World world;
  cs::Host& h = world.add_host("submit");
  h.disk().put("queue/job1", "state=idle");
  h.crash();
  h.restart();
  ASSERT_TRUE(h.disk().get("queue/job1").has_value());
  EXPECT_EQ(*h.disk().get("queue/job1"), "state=idle");
}

TEST(Host, BootFunctionsRunOnRestartOnly) {
  cs::World world;
  cs::Host& h = world.add_host("submit");
  int boots = 0;
  h.add_boot([&] { ++boots; });
  EXPECT_EQ(boots, 0);
  h.crash();
  h.restart();
  EXPECT_EQ(boots, 1);
  h.crash();
  h.restart();
  EXPECT_EQ(boots, 2);
}

TEST(Host, CrashListenersFireAndCanBeRemoved) {
  cs::World world;
  cs::Host& h = world.add_host("submit");
  int fired = 0;
  const int id = h.add_crash_listener([&] { ++fired; });
  h.crash();
  h.restart();
  h.remove_crash_listener(id);
  h.crash();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(h.crash_count(), 2u);
}

TEST(Host, ServicesClearedByCrash) {
  cs::World world;
  cs::Host& h = world.add_host("submit");
  h.register_service("gatekeeper", [](const cs::Message&) {});
  EXPECT_NE(h.find_service("gatekeeper"), nullptr);
  h.crash();
  h.restart();
  EXPECT_EQ(h.find_service("gatekeeper"), nullptr);
}

TEST(Host, DoubleCrashAndRestartAreNoOps) {
  cs::World world;
  cs::Host& h = world.add_host("submit");
  h.crash();
  const auto epoch = h.epoch();
  h.crash();
  EXPECT_EQ(h.epoch(), epoch);
  h.restart();
  h.restart();
  EXPECT_TRUE(h.alive());
}

// ---------- StableStorage ----------

TEST(StableStorage, KeyValueAndPrefix) {
  cs::StableStorage disk;
  disk.put("job/3", "c");
  disk.put("job/1", "a");
  disk.put("job/2", "b");
  disk.put("cred/x", "y");
  const auto keys = disk.keys_with_prefix("job/");
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[0], "job/1");
  EXPECT_EQ(keys[2], "job/3");
  EXPECT_TRUE(disk.erase("job/2"));
  EXPECT_FALSE(disk.erase("job/2"));
  EXPECT_FALSE(disk.contains("job/2"));
  EXPECT_EQ(disk.get("nope"), std::nullopt);
}

TEST(StableStorage, Journals) {
  cs::StableStorage disk;
  disk.append("log", "a");
  disk.append("log", "b");
  ASSERT_EQ(disk.journal("log").size(), 2u);
  EXPECT_EQ(disk.journal("log")[1], "b");
  EXPECT_TRUE(disk.journal("other").empty());
  disk.truncate_journal("log");
  EXPECT_TRUE(disk.journal("log").empty());
  EXPECT_GT(disk.bytes_written(), 0u);
}

// ---------- World ----------

TEST(World, HostLookup) {
  cs::World world;
  world.add_host("a");
  world.add_host("b");
  EXPECT_EQ(world.host_count(), 2u);
  EXPECT_NE(world.find_host("a"), nullptr);
  EXPECT_EQ(world.find_host("c"), nullptr);
  EXPECT_THROW(world.host("c"), std::invalid_argument);
  EXPECT_THROW(world.add_host("a"), std::invalid_argument);
}

// ---------- Network ----------

namespace {

/// Collects messages delivered to a service.
struct Inbox {
  std::vector<cs::Message> messages;
  void attach(cs::Host& host, const std::string& service) {
    host.register_service(
        service, [this](const cs::Message& m) { messages.push_back(m); });
  }
};

cs::Message make_message(const std::string& from, const std::string& to,
                         const std::string& type) {
  cs::Message m;
  m.from = cs::Address::parse(from);
  m.to = cs::Address::parse(to);
  m.type = type;
  return m;
}

}  // namespace

TEST(Network, DeliversAfterLatency) {
  cs::World world;
  cs::Host& a = world.add_host("a");
  (void)a;
  cs::Host& b = world.add_host("b");
  Inbox inbox;
  inbox.attach(b, "svc");
  cs::LinkConfig link;
  link.latency = 2.0;
  link.jitter = 0.0;
  world.net().set_default_link(link);
  world.net().send(make_message("a/x", "b/svc", "ping"));
  world.sim().run();
  ASSERT_EQ(inbox.messages.size(), 1u);
  EXPECT_DOUBLE_EQ(world.now(), 2.0);
  EXPECT_EQ(inbox.messages[0].type, "ping");
  EXPECT_EQ(world.net().delivered(), 1u);
}

TEST(Network, DropsOnLossyLink) {
  cs::World world(7);
  world.add_host("a");
  cs::Host& b = world.add_host("b");
  Inbox inbox;
  inbox.attach(b, "svc");
  cs::LinkConfig link;
  link.loss_probability = 1.0;
  world.net().set_link("a", "b", link);
  world.net().send(make_message("a/x", "b/svc", "ping"));
  world.sim().run();
  EXPECT_TRUE(inbox.messages.empty());
  EXPECT_EQ(world.net().lost(), 1u);
}

TEST(Network, PartitionBlocksBothDirections) {
  cs::World world;
  cs::Host& a = world.add_host("a");
  cs::Host& b = world.add_host("b");
  Inbox in_a, in_b;
  in_a.attach(a, "svc");
  in_b.attach(b, "svc");
  world.net().set_partitioned("a", "b", true);
  world.net().send(make_message("a/x", "b/svc", "ping"));
  world.net().send(make_message("b/x", "a/svc", "ping"));
  world.sim().run();
  EXPECT_TRUE(in_a.messages.empty());
  EXPECT_TRUE(in_b.messages.empty());
  EXPECT_EQ(world.net().blocked_by_partition(), 2u);

  world.net().set_partitioned("a", "b", false);
  world.net().send(make_message("a/x", "b/svc", "ping"));
  world.sim().run();
  EXPECT_EQ(in_b.messages.size(), 1u);
}

TEST(Network, IsolationBlocksHost) {
  cs::World world;
  world.add_host("a");
  cs::Host& b = world.add_host("b");
  Inbox inbox;
  inbox.attach(b, "svc");
  world.net().set_isolated("b", true);
  world.net().send(make_message("a/x", "b/svc", "ping"));
  world.sim().run();
  EXPECT_TRUE(inbox.messages.empty());
  world.net().set_isolated("b", false);
  EXPECT_FALSE(world.net().partitioned("a", "b"));
}

TEST(Network, InFlightMessageLostToMidFlightPartition) {
  cs::World world;
  world.add_host("a");
  cs::Host& b = world.add_host("b");
  Inbox inbox;
  inbox.attach(b, "svc");
  cs::LinkConfig link;
  link.latency = 10.0;
  link.jitter = 0.0;
  world.net().set_default_link(link);
  world.net().send(make_message("a/x", "b/svc", "ping"));
  world.sim().schedule_at(5.0,
                          [&] { world.net().set_partitioned("a", "b", true); });
  world.sim().run();
  EXPECT_TRUE(inbox.messages.empty());
}

TEST(Network, DeadDestinationDropsMessage) {
  cs::World world;
  world.add_host("a");
  cs::Host& b = world.add_host("b");
  Inbox inbox;
  inbox.attach(b, "svc");
  b.crash();
  world.net().send(make_message("a/x", "b/svc", "ping"));
  world.sim().run();
  EXPECT_TRUE(inbox.messages.empty());
  EXPECT_EQ(world.net().dead_destination(), 1u);
}

TEST(Network, MissingServiceDropsMessage) {
  cs::World world;
  world.add_host("a");
  world.add_host("b");
  world.net().send(make_message("a/x", "b/nosuch", "ping"));
  world.sim().run();
  EXPECT_EQ(world.net().dead_destination(), 1u);
}

TEST(Network, LocalDeliveryBypassesLossAndPartition) {
  cs::World world;
  cs::Host& a = world.add_host("a");
  Inbox inbox;
  inbox.attach(a, "svc");
  cs::LinkConfig link;
  link.loss_probability = 1.0;
  world.net().set_default_link(link);
  world.net().send(make_message("a/x", "a/svc", "ping"));
  world.sim().run();
  EXPECT_EQ(inbox.messages.size(), 1u);
}

TEST(Network, TransferSecondsScalesWithSize) {
  cs::World world;
  cs::LinkConfig link;
  link.latency = 1.0;
  link.bandwidth_bps = 8.0e6;  // 1 MB/s
  world.net().set_link("a", "b", link);
  EXPECT_NEAR(world.net().transfer_seconds("a", "b", 1000000), 2.0, 1e-9);
  EXPECT_LT(world.net().transfer_seconds("a", "a", 1u << 30), 0.01);
}

// ---------- Payload / Address ----------

TEST(Payload, TypedAccessors) {
  cs::Payload p;
  p.set("s", "hello");
  p.set_int("i", -42);
  p.set_uint("u", 42);
  p.set_double("d", 2.5);
  p.set_bool("b", true);
  EXPECT_EQ(p.get("s"), "hello");
  EXPECT_EQ(p.get_int("i"), -42);
  EXPECT_EQ(p.get_uint("u"), 42u);
  EXPECT_DOUBLE_EQ(p.get_double("d"), 2.5);
  EXPECT_TRUE(p.get_bool("b"));
  EXPECT_EQ(p.get("missing", "fb"), "fb");
  EXPECT_EQ(p.get_int("missing", 7), 7);
  EXPECT_FALSE(p.get_bool("missing"));
  p.set("junk", "not-a-number");
  EXPECT_EQ(p.get_int("junk", 3), 3);
  EXPECT_FALSE(p.debug_string().empty());
}

TEST(Address, ParseAndRoundTrip) {
  const auto addr = cs::Address::parse("host1/gram.gatekeeper");
  EXPECT_EQ(addr.host, "host1");
  EXPECT_EQ(addr.service, "gram.gatekeeper");
  EXPECT_EQ(addr.str(), "host1/gram.gatekeeper");
  const auto bare = cs::Address::parse("host1");
  EXPECT_EQ(bare.host, "host1");
  EXPECT_EQ(bare.service, "");
}

// ---------- RPC ----------

namespace {

/// Echo server: replies to "echo" requests with the same payload + "pong"=1.
struct EchoServer {
  cs::Host& host;
  cs::Network& net;
  explicit EchoServer(cs::Host& h, cs::Network& n) : host(h), net(n) {
    host.register_service("echo", [this](const cs::Message& m) {
      cs::Payload reply;
      reply.set("data", m.body.get("data"));
      reply.set_bool("pong", true);
      cs::rpc_reply(net, m, cs::Address{host.name(), "echo"},
                    std::move(reply));
    });
  }
};

}  // namespace

TEST(Rpc, CallAndReply) {
  cs::World world;
  cs::Host& client_host = world.add_host("client");
  cs::Host& server_host = world.add_host("server");
  EchoServer server(server_host, world.net());
  cs::RpcClient rpc(client_host, world.net(), "cli.rpc");

  bool got = false;
  rpc.call(cs::Address{"server", "echo"}, "echo",
           [] {
             cs::Payload p;
             p.set("data", "x");
             return p;
           }(),
           30.0, [&](bool ok, const cs::Payload& reply) {
             got = true;
             EXPECT_TRUE(ok);
             EXPECT_EQ(reply.get("data"), "x");
             EXPECT_TRUE(reply.get_bool("pong"));
           });
  world.sim().run();
  EXPECT_TRUE(got);
  EXPECT_EQ(rpc.pending(), 0u);
}

TEST(Rpc, TimeoutOnDeadServer) {
  cs::World world;
  cs::Host& client_host = world.add_host("client");
  world.add_host("server").crash();
  cs::RpcClient rpc(client_host, world.net(), "cli.rpc");
  bool got = false;
  rpc.call(cs::Address{"server", "echo"}, "echo", {}, 30.0,
           [&](bool ok, const cs::Payload&) {
             got = true;
             EXPECT_FALSE(ok);
           });
  world.sim().run();
  EXPECT_TRUE(got);
  EXPECT_GE(world.now(), 30.0);
}

TEST(Rpc, TimeoutOnPartition) {
  cs::World world;
  cs::Host& client_host = world.add_host("client");
  cs::Host& server_host = world.add_host("server");
  EchoServer server(server_host, world.net());
  world.net().set_partitioned("client", "server", true);
  cs::RpcClient rpc(client_host, world.net(), "cli.rpc");
  bool ok_result = true;
  rpc.call(cs::Address{"server", "echo"}, "echo", {}, 10.0,
           [&](bool ok, const cs::Payload&) { ok_result = ok; });
  world.sim().run();
  EXPECT_FALSE(ok_result);
}

TEST(Rpc, ClientCrashDropsPendingCallbacks) {
  cs::World world;
  cs::Host& client_host = world.add_host("client");
  cs::Host& server_host = world.add_host("server");
  EchoServer server(server_host, world.net());
  cs::RpcClient rpc(client_host, world.net(), "cli.rpc");
  int called = 0;
  rpc.call(cs::Address{"server", "echo"}, "echo", {}, 30.0,
           [&](bool, const cs::Payload&) { ++called; });
  world.sim().schedule_at(0.001, [&] { client_host.crash(); });
  world.sim().run();
  EXPECT_EQ(called, 0);
  EXPECT_EQ(rpc.pending(), 0u);
}

TEST(Rpc, LateReplyAfterTimeoutIsIgnored) {
  cs::World world;
  cs::Host& client_host = world.add_host("client");
  cs::Host& server_host = world.add_host("server");
  EchoServer server(server_host, world.net());
  cs::LinkConfig slow;
  slow.latency = 50.0;  // round trip = 100s > timeout
  slow.jitter = 0.0;
  world.net().set_default_link(slow);
  cs::RpcClient rpc(client_host, world.net(), "cli.rpc");
  int calls = 0;
  bool ok_result = true;
  rpc.call(cs::Address{"server", "echo"}, "echo", {}, 10.0,
           [&](bool ok, const cs::Payload&) {
             ++calls;
             ok_result = ok;
           });
  world.sim().run();
  EXPECT_EQ(calls, 1);
  EXPECT_FALSE(ok_result);
}

TEST(Rpc, DuplicateReplyDeliversCallbackOnce) {
  cs::World world;
  cs::Host& client_host = world.add_host("client");
  cs::Host& server_host = world.add_host("server");
  // A server that acks every request twice (a retransmit-happy peer).
  server_host.register_service("echo", [&](const cs::Message& m) {
    for (int i = 0; i < 2; ++i) {
      cs::Payload reply;
      reply.set_bool("pong", true);
      cs::rpc_reply(world.net(), m, cs::Address{"server", "echo"},
                    std::move(reply));
    }
  });
  cs::RpcClient rpc(client_host, world.net(), "cli.rpc");
  int calls = 0;
  rpc.call(cs::Address{"server", "echo"}, "echo", {}, 30.0,
           [&](bool ok, const cs::Payload&) {
             ++calls;
             EXPECT_TRUE(ok);
           });
  world.sim().run();
  // The first reply settles the call and erases the pending entry; the
  // duplicate must be dropped, not double-fire the callback.
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(rpc.pending(), 0u);
}

TEST(Rpc, ServiceNameCollisionThrows) {
  cs::World world;
  cs::Host& host = world.add_host("node");
  host.register_service("svc", [](const cs::Message&) {});
  EXPECT_THROW(host.register_service("svc", [](const cs::Message&) {}),
               std::logic_error);
  // Unregistering frees the name; so does a crash (services are volatile).
  host.unregister_service("svc");
  host.register_service("svc", [](const cs::Message&) {});
  host.crash();
  host.restart();
  host.register_service("svc", [](const cs::Message&) {});
}

// ---------- FailureInjector ----------

TEST(FailureInjector, OneShotCrashAndRecovery) {
  cs::World world;
  cs::Host& h = world.add_host("site");
  cs::FailureInjector chaos(world);
  chaos.crash_at("site", 10.0, 5.0);
  world.sim().schedule_at(12.0, [&] { EXPECT_FALSE(h.alive()); });
  world.sim().schedule_at(16.0, [&] { EXPECT_TRUE(h.alive()); });
  world.sim().run();
  EXPECT_EQ(chaos.crashes_injected(), 1u);
  ASSERT_EQ(chaos.incidents().size(), 1u);
  EXPECT_EQ(chaos.incidents()[0].target, "site");
}

TEST(FailureInjector, OneShotPartitionHeals) {
  cs::World world;
  world.add_host("a");
  world.add_host("b");
  cs::FailureInjector chaos(world);
  chaos.partition_at("a", "b", 5.0, 10.0);
  world.sim().schedule_at(6.0,
                          [&] { EXPECT_TRUE(world.net().partitioned("a", "b")); });
  world.sim().schedule_at(16.0, [&] {
    EXPECT_FALSE(world.net().partitioned("a", "b"));
  });
  world.sim().run();
  EXPECT_EQ(chaos.partitions_injected(), 1u);
}

TEST(FailureInjector, RecurringCrashesRespectWindow) {
  cs::World world(123);
  world.add_host("site");
  cs::FailureInjector chaos(world);
  cs::CrashPlan plan;
  plan.host = "site";
  plan.mtbf_seconds = 100.0;
  plan.mean_downtime_seconds = 1.0;
  plan.start = 0.0;
  plan.end = 5000.0;
  chaos.add_crash_plan(plan);
  world.sim().run_until(20000.0);
  chaos.disarm();
  world.sim().run();
  EXPECT_GT(chaos.crashes_injected(), 10u);
  for (const auto& incident : chaos.incidents()) {
    EXPECT_LE(incident.at, 5000.0 + 1e-6);
  }
  EXPECT_TRUE(world.host("site").alive());
}
