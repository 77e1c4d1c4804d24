// Determinism acceptance for the island-parallel kernel: the same scenario
// must produce byte-identical artifacts — trace digest, tracer JSONL, user
// log, DetSan report — for every CONDORG_PARALLEL worker count, and the
// strict (tracer-armed) executor must commit exactly the stream the
// windowed executor commits. These are the equalities DESIGN.md §15
// promises; bench_k1_island_scale re-checks them at bench scale.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "condorg/core/agent.h"
#include "condorg/core/broker.h"
#include "condorg/sim/det.h"
#include "condorg/sim/explorer.h"
#include "condorg/sim/world.h"
#include "condorg/workloads/explore_scenarios.h"
#include "condorg/workloads/grid_builder.h"

namespace {

namespace core = condorg::core;
namespace cw = condorg::workloads;
namespace det = condorg::det;
namespace sim = condorg::sim;

constexpr unsigned kThreadCounts[] = {1, 2, 4, 8};

struct RunArtifacts {
  std::uint64_t digest = 0;
  std::uint64_t dispatched = 0;
  int completed = 0;
  std::string user_log;
  std::string trace_jsonl;
  std::size_t detsan_violations = 0;
};

std::string format_user_log(const core::CondorGAgent& agent) {
  std::string out;
  for (const auto& event : agent.log().events()) {
    out += std::to_string(event.time) + " " + std::to_string(event.job_id) +
           " " + core::to_string(event.kind) + " " + event.detail + "\n";
  }
  return out;
}

/// The quickstart example in miniature: two sites, one agent, a batch of
/// grid-universe jobs, run to completion.
RunArtifacts run_quickstart(unsigned threads, bool trace) {
  sim::World::ScopedParallelOverride force(static_cast<int>(threads));
  det::take_violations();  // clean slate per run (process-global storage)
  det::set_enabled(true);

  cw::GridTestbed testbed(/*seed=*/2001);
  sim::Simulation& s = testbed.world().sim();
  if (trace) s.tracer().set_enabled(true);

  cw::SiteSpec pbs;
  pbs.name = "pbs.anl.gov";
  pbs.kind = cw::SiteKind::kPbs;
  pbs.cpus = 4;
  testbed.add_site(pbs);
  cw::SiteSpec lsf;
  lsf.name = "lsf.ncsa.edu";
  lsf.kind = cw::SiteKind::kLsf;
  lsf.cpus = 2;
  testbed.add_site(lsf);

  testbed.add_submit_host("desktop.wisc.edu");
  core::CondorGAgent agent(testbed.world(), "desktop.wisc.edu");
  agent.set_site_chooser(core::make_static_chooser(testbed.gatekeepers()));
  agent.start();

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 10; ++i) {
    core::JobDescription job;
    job.universe = core::Universe::kGrid;
    job.executable = "render_frame";
    job.runtime_seconds = 600 + 60 * i;
    job.output_size = 1 << 20;
    ids.push_back(agent.submit(job));
  }
  while (!agent.schedd().all_terminal() && testbed.world().now() < 24 * 3600.0) {
    s.run_until(testbed.world().now() + 300.0);
  }

  RunArtifacts a;
  a.digest = s.trace_digest();
  a.dispatched = s.dispatched();
  for (const auto id : ids) {
    if (agent.query(id)->status == core::JobStatus::kCompleted) ++a.completed;
  }
  a.user_log = format_user_log(agent);
  if (trace) a.trace_jsonl = s.tracer().to_jsonl();
  a.detsan_violations = det::take_violations().size();
  det::set_enabled(false);
  return a;
}

/// The fault_drill example in miniature: a front-end crash, a partition
/// window, and a submit-host crash while jobs are in flight.
RunArtifacts run_fault_drill(unsigned threads) {
  sim::World::ScopedParallelOverride force(static_cast<int>(threads));
  det::take_violations();
  det::set_enabled(true);

  cw::GridTestbed testbed(/*seed=*/4242);
  sim::Simulation& s = testbed.world().sim();

  cw::SiteSpec a_spec;
  a_spec.name = "pbs.anl.gov";
  a_spec.kind = cw::SiteKind::kPbs;
  a_spec.cpus = 2;
  testbed.add_site(a_spec);
  cw::SiteSpec b_spec;
  b_spec.name = "lsf.ncsa.edu";
  b_spec.kind = cw::SiteKind::kLsf;
  b_spec.cpus = 2;
  testbed.add_site(b_spec);

  testbed.add_submit_host("submit.wisc.edu");
  core::CondorGAgent agent(testbed.world(), "submit.wisc.edu");
  agent.set_site_chooser(core::make_static_chooser(testbed.gatekeepers()));
  agent.start();

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 6; ++i) {
    core::JobDescription job;
    job.universe = core::Universe::kGrid;
    job.executable = "drill";
    job.runtime_seconds = 900 + 90 * i;
    ids.push_back(agent.submit(job));
  }

  s.run_until(1800.0);
  testbed.site(1).frontend->crash_for(1200.0);
  s.run_until(4000.0);
  testbed.world().net().set_partitioned("submit.wisc.edu", "pbs.anl.gov",
                                        true);
  s.schedule_at(4600.0, [&testbed] {
    testbed.world().net().set_partitioned("submit.wisc.edu", "pbs.anl.gov",
                                          false);
  });
  s.run_until(6000.0);
  agent.host().crash_for(600.0);
  while (!agent.schedd().all_terminal() && testbed.world().now() < 24 * 3600.0) {
    s.run_until(testbed.world().now() + 600.0);
  }

  RunArtifacts out;
  out.digest = s.trace_digest();
  out.dispatched = s.dispatched();
  for (const auto id : ids) {
    if (agent.query(id)->status == core::JobStatus::kCompleted)
      ++out.completed;
  }
  out.user_log = format_user_log(agent);
  out.detsan_violations = det::take_violations().size();
  det::set_enabled(false);
  return out;
}

TEST(ParallelDigest, QuickstartByteIdenticalAcrossThreadCounts) {
  const RunArtifacts base = run_quickstart(kThreadCounts[0], /*trace=*/false);
  EXPECT_GT(base.completed, 0);
  EXPECT_EQ(base.detsan_violations, 0u);
  for (std::size_t i = 1; i < std::size(kThreadCounts); ++i) {
    const RunArtifacts a = run_quickstart(kThreadCounts[i], /*trace=*/false);
    EXPECT_EQ(a.digest, base.digest) << "N=" << kThreadCounts[i];
    EXPECT_EQ(a.dispatched, base.dispatched) << "N=" << kThreadCounts[i];
    EXPECT_EQ(a.completed, base.completed) << "N=" << kThreadCounts[i];
    EXPECT_EQ(a.user_log, base.user_log) << "N=" << kThreadCounts[i];
    EXPECT_EQ(a.detsan_violations, 0u) << "N=" << kThreadCounts[i];
  }
}

TEST(ParallelDigest, TracerJsonlByteIdenticalAcrossThreadCounts) {
  const RunArtifacts base = run_quickstart(1, /*trace=*/true);
  ASSERT_FALSE(base.trace_jsonl.empty());
  const RunArtifacts wide = run_quickstart(8, /*trace=*/true);
  EXPECT_EQ(wide.trace_jsonl, base.trace_jsonl);
  EXPECT_EQ(wide.digest, base.digest);
}

// The tracer arms the strict (single-threaded, global key order) executor;
// without it the windowed executor runs. Equal digests prove the two
// executors commit the same event stream — the core §15 claim.
TEST(ParallelDigest, StrictExecutorMatchesWindowedExecutor) {
  const RunArtifacts windows = run_quickstart(4, /*trace=*/false);
  const RunArtifacts strict = run_quickstart(4, /*trace=*/true);
  EXPECT_EQ(strict.digest, windows.digest);
  EXPECT_EQ(strict.dispatched, windows.dispatched);
  EXPECT_EQ(strict.user_log, windows.user_log);
}

TEST(ParallelDigest, FaultDrillByteIdenticalAcrossThreadCounts) {
  const RunArtifacts base = run_fault_drill(kThreadCounts[0]);
  EXPECT_EQ(base.detsan_violations, 0u);
  for (std::size_t i = 1; i < std::size(kThreadCounts); ++i) {
    const RunArtifacts a = run_fault_drill(kThreadCounts[i]);
    EXPECT_EQ(a.digest, base.digest) << "N=" << kThreadCounts[i];
    EXPECT_EQ(a.dispatched, base.dispatched) << "N=" << kThreadCounts[i];
    EXPECT_EQ(a.user_log, base.user_log) << "N=" << kThreadCounts[i];
    EXPECT_EQ(a.detsan_violations, 0u) << "N=" << kThreadCounts[i];
  }
}

struct ExploreArtifacts {
  std::size_t runs = 0;
  std::size_t distinct = 0;
  bool violation_found = false;
  std::string counterexample;
  std::vector<std::string> violations;
  std::uint64_t replay_digest = 0;
};

/// Explore the mutated quickstart scenario (broken gatekeeper dedup) under
/// an ambient CONDORG_PARALLEL override, then replay the counterexample.
/// A controller serializes execution whatever the worker budget, so
/// nothing here may vary with `threads`.
ExploreArtifacts explore_mutated_quickstart(unsigned threads) {
  sim::World::ScopedParallelOverride ambient(static_cast<int>(threads));
  ::setenv("CONDORG_MUTATE_DEDUP", "1", 1);
  sim::Explorer::Config config;
  config.oracle.max_choice_points = 12;
  config.max_schedules = 400;
  sim::Explorer explorer("quickstart",
                         cw::make_explore_scenario("quickstart"), config);
  const sim::Explorer::Result result = explorer.explore();
  ExploreArtifacts out;
  out.runs = result.runs;
  out.distinct = result.distinct_schedules;
  out.violation_found = result.violation_found;
  out.violations = result.violations;
  if (result.violation_found) {
    out.counterexample = result.counterexample.serialize();
    out.replay_digest = explorer.replay(result.counterexample).trace_digest;
  }
  ::unsetenv("CONDORG_MUTATE_DEDUP");
  return out;
}

TEST(ParallelDigest, ExplorerCounterexampleStableUnderParallelEnv) {
  const ExploreArtifacts base = explore_mutated_quickstart(1);
  ASSERT_TRUE(base.violation_found);
  const ExploreArtifacts wide = explore_mutated_quickstart(8);
  EXPECT_EQ(wide.runs, base.runs);
  EXPECT_EQ(wide.distinct, base.distinct);
  EXPECT_EQ(wide.counterexample, base.counterexample);
  EXPECT_EQ(wide.violations, base.violations);
  EXPECT_EQ(wide.replay_digest, base.replay_digest);
}

}  // namespace
