#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "condorg/sim/explorer.h"
#include "condorg/sim/host.h"
#include "condorg/sim/schedule_controller.h"
#include "condorg/sim/simulation.h"
#include "condorg/sim/world.h"
#include "condorg/workloads/explore_scenarios.h"

namespace cs = condorg::sim;
namespace cw = condorg::workloads;

namespace {

/// Scoped environment variable for the mutation self-tests.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    ::setenv(name, value, /*overwrite=*/1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }

 private:
  const char* name_;
};

/// Controller that always picks the last live candidate at the front time —
/// the exact reverse of the kernel's FIFO default.
class PickLast : public cs::ScheduleController {
 public:
  std::size_t pick_event(cs::Time, std::size_t count) override {
    return count - 1;
  }
  bool inject_crash(const std::string&, const char*, double*) override {
    return false;
  }
};

/// Controller that always picks the first candidate: the kernel's default.
class PickFirst : public cs::ScheduleController {
 public:
  std::size_t pick_event(cs::Time, std::size_t) override { return 0; }
  bool inject_crash(const std::string&, const char*, double*) override {
    return false;
  }
};

/// Controller that crashes a specific host at a specific named point.
class CrashAt : public cs::ScheduleController {
 public:
  explicit CrashAt(std::string point) : point_(std::move(point)) {}

  std::size_t pick_event(cs::Time, std::size_t) override { return 0; }
  bool inject_crash(const std::string&, const char* point,
                    double* downtime) override {
    if (point_ != point) return false;
    *downtime = 5.0;
    ++fired_;
    return true;
  }

  int fired() const { return fired_; }

 private:
  std::string point_;
  int fired_ = 0;
};

}  // namespace

// ---------- ScheduleController kernel hook ----------

TEST(ScheduleController, PickLastReversesSameTimeOrder) {
  cs::Simulation sim;
  PickLast controller;
  sim.set_controller(&controller);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{4, 3, 2, 1, 0}));
}

TEST(ScheduleController, DefaultPickMatchesFifoDigest) {
  auto build = [](cs::Simulation& sim, cs::ScheduleController* controller) {
    sim.set_controller(controller);
    for (int i = 0; i < 8; ++i) {
      sim.schedule_at(1.0 + 0.5 * (i % 3), [] {});
    }
    sim.run();
    return sim.trace_digest();
  };
  // A controller that always answers 0 reproduces FIFO byte-for-byte.
  cs::Simulation plain;
  cs::Simulation controlled;
  PickFirst first;
  EXPECT_EQ(build(plain, nullptr), build(controlled, &first));
}

TEST(ScheduleController, CancelledEventsAreNotCandidates) {
  cs::Simulation sim;
  PickLast controller;
  sim.set_controller(&controller);
  std::vector<int> order;
  std::vector<cs::EventId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(sim.schedule_at(1.0, [&order, i] { order.push_back(i); }));
  }
  sim.cancel(ids[3]);  // "last" must now mean the last *live* event
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1, 0}));
}

TEST(CrashPoint, NoControllerIsNoOp) {
  cs::Simulation sim;
  cs::Host host(sim, "h");
  EXPECT_FALSE(host.crash_point("any.point"));
  EXPECT_TRUE(host.alive());
}

TEST(CrashPoint, ControllerCrashIsScheduledNotInline) {
  cs::Simulation sim;
  CrashAt controller("daemon.step");
  sim.set_controller(&controller);
  cs::Host host(sim, "h");
  bool crashed_inline = false;
  sim.schedule_at(1.0, [&] {
    EXPECT_FALSE(host.crash_point("daemon.other_step"));
    EXPECT_TRUE(host.crash_point("daemon.step"));
    // The crash is a separate event: the host is still up right here.
    crashed_inline = !host.alive();
  });
  const cs::Epoch before = host.epoch();
  sim.run_until(2.0);
  EXPECT_FALSE(crashed_inline);
  EXPECT_FALSE(host.alive());
  EXPECT_EQ(controller.fired(), 1);
  sim.run_until(10.0);  // downtime was 5s
  EXPECT_TRUE(host.alive());
  EXPECT_GT(host.epoch(), before);
}

TEST(CrashPoint, DeadHostDoesNotReCrash) {
  cs::Simulation sim;
  CrashAt controller("daemon.step");
  sim.set_controller(&controller);
  cs::Host host(sim, "h");
  host.crash();
  EXPECT_FALSE(host.crash_point("daemon.step"));
  EXPECT_EQ(controller.fired(), 0);
}

// ---------- ScheduleController on a two-island World ----------

namespace {

/// Two hosts on separate islands (the default link carries latency). At
/// t=0.5 each host posts two follow-ups to itself at t=1.0, and the control
/// queue schedules one more at t=1.0 — so the earliest pending instant holds
/// live events on three queues under three different origins.
struct TwoIslandWorld {
  cs::World world{/*seed=*/11};
  cs::Host& a = world.add_host("a.example");
  cs::Host& b = world.add_host("b.example");
  // Dispatch order as observed; only meaningful under a controller (the
  // serialized executor) — parallel islands append concurrently.
  std::mutex mu;
  std::vector<std::string> order;

  explicit TwoIslandWorld(cs::ScheduleController* controller) {
    world.sim().set_controller(controller);
    for (cs::Host* host : {&a, &b}) {
      host->post(0.5, [this, host] {
        for (const char* tag : {"1", "2"}) {
          host->post(0.5, [this, host, tag] {
            record(host->name().substr(0, 1) + tag);
          });
        }
      });
    }
    world.sim().schedule_at(1.0, [this] { record("ctl"); });
  }

  void record(std::string tag) {
    const std::lock_guard<std::mutex> lock(mu);
    order.push_back(std::move(tag));
  }

  std::uint64_t run() {
    world.sim().run();
    return world.sim().trace_digest();
  }
};

/// PickLast that also records every choice point it is offered.
class RecordingPickLast : public PickLast {
 public:
  std::size_t pick_event(cs::Time when, std::size_t count) override {
    offers.emplace_back(when, count);
    return PickLast::pick_event(when, count);
  }
  std::vector<std::pair<cs::Time, std::size_t>> offers;
};

}  // namespace

TEST(IslandExplorer, SameTimeCandidatesSpanIslandQueues) {
  RecordingPickLast controller;
  TwoIslandWorld w(&controller);
  w.run();
  const cs::IslandPlan& plan = w.world.sim().island_plan();
  EXPECT_NE(plan.island_of_queue[w.a.queue()],
            plan.island_of_queue[w.b.queue()]);
  // One choice point per dispatch while more than one candidate is live:
  // both hosts' t=0.5 events, then all five t=1.0 events across the
  // control queue and both islands.
  const std::vector<std::pair<cs::Time, std::size_t>> expected = {
      {0.5, 2}, {1.0, 5}, {1.0, 4}, {1.0, 3}, {1.0, 2}};
  EXPECT_EQ(controller.offers, expected);
  // Candidates are offered in key order (control, then a's origin, then
  // b's), so always picking the last one reverses it across queues.
  EXPECT_EQ(w.order,
            (std::vector<std::string>{"b2", "b1", "a2", "a1", "ctl"}));
}

TEST(IslandExplorer, DefaultPickReproducesUncontrolledDigest) {
  PickFirst first;
  TwoIslandWorld controlled(&first);
  const std::uint64_t controlled_digest = controlled.run();
  EXPECT_EQ(controlled.order,
            (std::vector<std::string>{"ctl", "a1", "a2", "b1", "b2"}));
  // The uncontrolled runs take the windowed executor, inline and on a
  // two-worker pool; both commit the controlled run's stream.
  for (const int workers : {1, 2}) {
    cs::World::ScopedParallelOverride force(workers);
    TwoIslandWorld plain(nullptr);
    EXPECT_EQ(plain.run(), controlled_digest) << "workers=" << workers;
    EXPECT_EQ(plain.world.sim().dispatched(),
              controlled.world.sim().dispatched());
  }
}

TEST(IslandExplorer, RecordedCounterexampleReplaysByteForByte) {
  // Invariant: a's follow-ups run before b's. Only a cross-island pick at
  // t=1.0 can break it, so finding the violation proves the Explorer
  // branches over the island kernel's cross-queue choice point.
  const cs::Explorer::Scenario scenario = [](cs::ScheduleOracle& oracle) {
    TwoIslandWorld w(&oracle);
    cs::RunOutcome outcome;
    outcome.trace_digest = w.run();
    outcome.dispatched = w.world.sim().dispatched();
    std::string seen;
    for (const std::string& tag : w.order) {
      if (tag != "ctl") seen += tag.substr(0, 1);
    }
    if (seen.find("ba") != std::string::npos) {
      outcome.violations.push_back("b ran before a: " + seen);
    }
    return outcome;
  };
  cs::Explorer::Config config;
  config.oracle.max_branch = 5;
  cs::Explorer explorer("two_islands", scenario, config);
  const cs::Explorer::Result result = explorer.explore();
  ASSERT_TRUE(result.violation_found);
  ASSERT_EQ(result.violations.size(), 1u);

  const std::string text = result.counterexample.serialize();
  cs::ScheduleTrace parsed;
  ASSERT_TRUE(cs::ScheduleTrace::parse(text, &parsed));
  const cs::RunOutcome replayed = explorer.replay(parsed);
  const cs::RunOutcome again = explorer.replay(parsed);
  EXPECT_EQ(replayed.violations, result.violations);
  EXPECT_EQ(again.violations, replayed.violations);
  EXPECT_EQ(again.trace_digest, replayed.trace_digest);
  EXPECT_EQ(again.dispatched, replayed.dispatched);
  // The replayed schedule really is a different interleaving.
  EXPECT_NE(replayed.trace_digest, explorer.replay({}).trace_digest);
}

// ---------- ScheduleTrace ----------

TEST(ScheduleTrace, SerializeParseRoundTrip) {
  cs::ScheduleTrace trace;
  trace.scenario = "quickstart";
  trace.seed = 42;
  trace.choices.push_back({cs::ExploreChoice::Kind::kEvent, 2, 3,
                           0x1234abcd5678ef90ull});
  trace.choices.push_back({cs::ExploreChoice::Kind::kCrash, 1, 2, 0});
  trace.choices.push_back({cs::ExploreChoice::Kind::kEvent, 0, 5,
                           ~0ull});

  const std::string text = trace.serialize();
  cs::ScheduleTrace parsed;
  ASSERT_TRUE(cs::ScheduleTrace::parse(text, &parsed));
  EXPECT_EQ(parsed.scenario, trace.scenario);
  EXPECT_EQ(parsed.seed, trace.seed);
  EXPECT_EQ(parsed.choices, trace.choices);
  // And the round trip is a fixed point of serialization.
  EXPECT_EQ(parsed.serialize(), text);
}

TEST(ScheduleTrace, ParseRejectsGarbage) {
  cs::ScheduleTrace out;
  EXPECT_FALSE(cs::ScheduleTrace::parse("", &out));
  EXPECT_FALSE(cs::ScheduleTrace::parse("not a trace\n", &out));
  EXPECT_FALSE(cs::ScheduleTrace::parse(
      "condorg-explore-trace v1\nscenario q\nseed 1\nchoice bogus 0 1 0\n"
      "end\n",
      &out));
  // Truncated: no "end" terminator.
  EXPECT_FALSE(cs::ScheduleTrace::parse(
      "condorg-explore-trace v1\nscenario q\nseed 1\n", &out));
}

// ---------- ScheduleOracle ----------

TEST(ScheduleOracle, ForcedPrefixThenDefaults) {
  cs::ScheduleOracle::Config config;
  config.max_branch = 4;
  std::vector<cs::ExploreChoice> forced;
  forced.push_back({cs::ExploreChoice::Kind::kEvent, 2, 3, 0});
  cs::ScheduleOracle oracle(config, forced);
  EXPECT_EQ(oracle.pick_event(1.0, 3), 2u);  // forced
  EXPECT_EQ(oracle.pick_event(1.0, 3), 0u);  // past the prefix: default
  ASSERT_EQ(oracle.record().size(), 2u);
  EXPECT_EQ(oracle.record()[0].chosen, 2u);
  EXPECT_EQ(oracle.record()[1].chosen, 0u);
  EXPECT_EQ(oracle.record()[1].alternatives, 3u);
}

TEST(ScheduleOracle, CrashBudgetIsEnforced) {
  cs::ScheduleOracle::Config config;
  config.crash_budget = 1;
  std::vector<cs::ExploreChoice> forced;
  forced.push_back({cs::ExploreChoice::Kind::kCrash, 1, 2, 0});
  forced.push_back({cs::ExploreChoice::Kind::kCrash, 1, 2, 0});
  cs::ScheduleOracle oracle(config, forced);
  double downtime = 0.0;
  EXPECT_TRUE(oracle.inject_crash("h", "p", &downtime));
  EXPECT_GT(downtime, 0.0);
  // Budget spent: further requests refuse even with a forced "crash".
  EXPECT_FALSE(oracle.inject_crash("h", "p", &downtime));
  EXPECT_EQ(oracle.crashes_injected(), 1u);
}

TEST(ScheduleOracle, UnknownCrashPointIsRecorded) {
  // kEnumeratedCrashPoints is the explorer's fault-coverage ground truth:
  // binary_search needs it sorted, and any point offered from code that is
  // missing from it must surface (once) through unknown_points().
  EXPECT_TRUE(std::is_sorted(cs::enumerated_crash_points().begin(),
                             cs::enumerated_crash_points().end()));
  cs::ScheduleOracle::Config config;
  cs::ScheduleOracle oracle(config, {});
  double downtime = 0.0;
  oracle.inject_crash("h", "jobmanager.commit_recv", &downtime);
  oracle.inject_crash("h", "not.in.table", &downtime);
  oracle.inject_crash("h", "not.in.table", &downtime);
  ASSERT_EQ(oracle.unknown_points().size(), 1u);
  EXPECT_EQ(oracle.unknown_points()[0], "not.in.table");
}

TEST(ScheduleOracle, ChoicePointBudgetStopsRecording) {
  cs::ScheduleOracle::Config config;
  config.max_choice_points = 2;
  cs::ScheduleOracle oracle(config, {});
  oracle.pick_event(1.0, 3);
  oracle.pick_event(2.0, 3);
  oracle.pick_event(3.0, 3);  // over budget: unrecorded default
  EXPECT_EQ(oracle.record().size(), 2u);
}

// ---------- Explorer end to end ----------

namespace {

cs::Explorer::Config small_quickstart_config() {
  cs::Explorer::Config config;
  config.oracle.max_choice_points = 10;
  config.oracle.max_branch = 2;
  config.oracle.crash_budget = 1;
  config.max_schedules = 400;
  return config;
}

}  // namespace

TEST(Explorer, QuickstartSmallBudgetIsCleanAndExhausts) {
  cs::Explorer explorer("quickstart", cw::make_explore_scenario("quickstart"),
                        small_quickstart_config());
  const cs::Explorer::Result result = explorer.explore();
  EXPECT_FALSE(result.violation_found) << (result.violations.empty()
                                               ? ""
                                               : result.violations.front());
  EXPECT_TRUE(result.exhausted);
  EXPECT_GT(result.distinct_schedules, 10u);
  EXPECT_LE(result.runs, 400u);
}

TEST(Explorer, ReplayOfDefaultScheduleIsDeterministic) {
  cs::ScheduleTrace empty;
  empty.scenario = "quickstart";
  cs::Explorer explorer("quickstart", cw::make_explore_scenario("quickstart"),
                        small_quickstart_config());
  const cs::RunOutcome a = explorer.replay(empty);
  const cs::RunOutcome b = explorer.replay(empty);
  EXPECT_EQ(a.trace_digest, b.trace_digest);
  EXPECT_EQ(a.dispatched, b.dispatched);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_TRUE(a.violations.empty());
}

TEST(Explorer, MutatedDedupYieldsReplayableCounterexample) {
  ScopedEnv mutate("CONDORG_MUTATE_DEDUP", "1");
  cs::Explorer::Config config;  // full default budgets, as the CLI uses
  cs::Explorer explorer("quickstart", cw::make_explore_scenario("quickstart"),
                        config);
  const cs::Explorer::Result result = explorer.explore();
  ASSERT_TRUE(result.violation_found)
      << "explorer failed to catch the broken dedup";
  ASSERT_FALSE(result.violations.empty());
  EXPECT_NE(result.violations.front().find("two job records"),
            std::string::npos);

  // Satellite: the counterexample file round-trips through serialize/parse
  // and replay() reproduces the identical failing audit, byte for byte.
  const std::string text = result.counterexample.serialize();
  cs::ScheduleTrace parsed;
  ASSERT_TRUE(cs::ScheduleTrace::parse(text, &parsed));
  const cs::RunOutcome replayed = explorer.replay(parsed);
  EXPECT_EQ(replayed.violations, result.violations);

  // Replay twice: the counterexample is stable, not a heisenbug.
  const cs::RunOutcome again = explorer.replay(parsed);
  EXPECT_EQ(again.violations, replayed.violations);
  EXPECT_EQ(again.trace_digest, replayed.trace_digest);
}

TEST(Explorer, CrossHostMutationYieldsReplayableDetsanCounterexample) {
  ScopedEnv mutate("CONDORG_MUTATE_CROSS_HOST", "1");
  cs::Explorer explorer("quickstart", cw::make_explore_scenario("quickstart"),
                        small_quickstart_config());
  const cs::Explorer::Result result = explorer.explore();
  ASSERT_TRUE(result.violation_found)
      << "DetSan failed to catch the seeded cross-host access";
  ASSERT_FALSE(result.violations.empty());
  EXPECT_NE(result.violations.front().find("detsan"), std::string::npos);
  EXPECT_NE(result.violations.front().find("schedd.status_counts"),
            std::string::npos);

  // The ownership violation replays byte-for-byte through the serialized
  // counterexample, like any protocol-invariant violation.
  const std::string text = result.counterexample.serialize();
  cs::ScheduleTrace parsed;
  ASSERT_TRUE(cs::ScheduleTrace::parse(text, &parsed));
  const cs::RunOutcome replayed = explorer.replay(parsed);
  EXPECT_EQ(replayed.violations, result.violations);
}

TEST(Explorer, HealthyDedupSurvivesTheCounterexampleSchedule) {
  // Find a counterexample under the mutation...
  cs::ScheduleTrace counterexample;
  {
    ScopedEnv mutate("CONDORG_MUTATE_DEDUP", "1");
    cs::Explorer::Config config;
    cs::Explorer explorer("quickstart",
                          cw::make_explore_scenario("quickstart"), config);
    const cs::Explorer::Result result = explorer.explore();
    ASSERT_TRUE(result.violation_found);
    counterexample = result.counterexample;
  }
  // ...then replay the very same hostile schedule against the real
  // gatekeeper: the dedup guard must hold.
  cs::Explorer explorer("quickstart", cw::make_explore_scenario("quickstart"),
                        small_quickstart_config());
  const cs::RunOutcome outcome = explorer.replay(counterexample);
  EXPECT_TRUE(outcome.violations.empty())
      << outcome.violations.front();
}
