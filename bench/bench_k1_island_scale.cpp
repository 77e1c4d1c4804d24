// K1 — island-kernel scaling: one grid campaign (8 sites, one agent, a
// 1200-job burst) run to completion at CONDORG_PARALLEL ∈ {1, 2, 4, 8}.
// The one-worker run is the reference. Reports per-N wall time, speedup vs
// that reference, the kernel trace digest, and per-island execution stats.
//
// Two gates ride on BENCH_K1.json (tools/bench_compare.py):
//   * digest equality — every run must produce the identical trace digest
//     whatever N is; a mismatch fails this binary directly (exit 6) AND
//     the comparator, so it cannot slip through a skipped bench stage;
//   * a speedup floor — 8-way must reach >= 3x over 1-way, enforced only
//     when the machine actually has >= 8 hardware threads (recorded in the
//     report as speedup_floor_enforced); a 1-core CI box records the
//     numbers without pretending they mean anything.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_report.h"
#include "condorg/core/agent.h"
#include "condorg/sim/det.h"
#include "condorg/sim/world.h"
#include "condorg/workloads/grid_builder.h"

namespace core = condorg::core;
namespace cw = condorg::workloads;
namespace cu = condorg::util;
namespace sim = condorg::sim;

namespace {

constexpr int kSites = 8;
constexpr int kCpusPerSite = 32;
constexpr int kJobs = 1200;
constexpr double kHorizon = 200000.0;
constexpr unsigned kThreadCounts[] = {1, 2, 4, 8};
constexpr double kSpeedupFloor = 3.0;

struct ScaleRun {
  int threads = 1;
  std::uint64_t wall_ns = 0;
  std::uint64_t digest = 0;
  std::uint64_t dispatched = 0;
  std::size_t completed = 0;
  std::vector<sim::Simulation::IslandStat> stats;
};

ScaleRun run_campaign(int threads) {
  sim::World::ScopedParallelOverride force(threads);
  cw::GridTestbed testbed(/*seed=*/77);
  for (int s = 0; s < kSites; ++s) {
    cw::SiteSpec spec;
    spec.name = "site" + std::to_string(s) + ".grid.org";
    spec.cpus = kCpusPerSite;
    testbed.add_site(spec);
  }
  testbed.add_submit_host("submit.wisc.edu");
  core::CondorGAgent agent(testbed.world(), "submit.wisc.edu");
  agent.start();

  for (int i = 0; i < kJobs; ++i) {
    core::JobDescription job;
    job.universe = core::Universe::kGrid;
    job.executable = "sweep.bin";
    job.runtime_seconds = 300.0 + 30.0 * (i % 20);
    job.grid_site =
        testbed.site(static_cast<std::size_t>(i % kSites)).spec.name;
    job.notify_email = false;
    agent.submit(job);
  }

  sim::Simulation& s = testbed.world().sim();
  const auto start = std::chrono::steady_clock::now();
  while (!agent.schedd().all_terminal() && s.now() < kHorizon) {
    s.run_until(s.now() + 3600.0);
  }
  const auto stop = std::chrono::steady_clock::now();

  ScaleRun run;
  run.threads = threads;
  run.wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
          .count());
  run.digest = s.trace_digest();
  run.dispatched = s.dispatched();
  run.completed = agent.schedd().count(core::JobStatus::kCompleted);
  run.stats = s.island_stats();
  return run;
}

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf);
}

}  // namespace

int main() {
  const unsigned hardware = std::thread::hardware_concurrency();
  std::printf("K1 island-kernel scaling: %d jobs, %d sites, hw threads %u\n",
              kJobs, kSites, hardware);

  std::vector<ScaleRun> runs;
  for (const unsigned n : kThreadCounts) {
    runs.push_back(run_campaign(static_cast<int>(n)));
  }

  const ScaleRun& one = runs[0];  // the reference
  bool digests_identical = true;
  for (std::size_t i = 1; i < runs.size(); ++i) {
    if (runs[i].digest != one.digest || runs[i].dispatched != one.dispatched) {
      digests_identical = false;
    }
  }

  cu::JsonValue benchmarks = cu::JsonValue::array();
  cu::JsonValue scale_runs = cu::JsonValue::array();
  double speedup_8way = 0.0;
  for (const ScaleRun& run : runs) {
    const std::string label = "N" + std::to_string(run.threads);
    const double speedup = run.wall_ns > 0
                               ? static_cast<double>(one.wall_ns) /
                                     static_cast<double>(run.wall_ns)
                               : 0.0;
    if (run.threads == 8) speedup_8way = speedup;
    std::printf("  %-7s wall %8.1f ms  speedup %5.2fx  digest %s  "
                "completed %zu/%d\n",
                label.c_str(), static_cast<double>(run.wall_ns) / 1e6,
                speedup, hex64(run.digest).c_str(), run.completed, kJobs);

    cu::JsonValue row = cu::JsonValue::object();
    row["name"] = "BM_IslandScale/" + label;
    row["iterations"] = 1.0;
    row["real_time_ns"] = static_cast<double>(run.wall_ns);
    row["cpu_time_ns"] = static_cast<double>(run.wall_ns);
    benchmarks.push_back(std::move(row));

    cu::JsonValue entry = cu::JsonValue::object();
    entry["threads"] = static_cast<double>(run.threads);
    entry["wall_ns"] = static_cast<double>(run.wall_ns);
    entry["speedup"] = speedup;
    entry["digest"] = hex64(run.digest);
    entry["dispatched"] = static_cast<double>(run.dispatched);
    entry["completed"] = static_cast<double>(run.completed);
    cu::JsonValue islands = cu::JsonValue::array();
    for (const sim::Simulation::IslandStat& st : run.stats) {
      cu::JsonValue is = cu::JsonValue::object();
      is["events"] = static_cast<double>(st.events);
      is["inbox_messages"] = static_cast<double>(st.inbox_messages);
      is["epochs"] = static_cast<double>(st.epochs);
      islands.push_back(std::move(is));
    }
    entry["islands"] = std::move(islands);
    scale_runs.push_back(std::move(entry));
  }

  const bool floor_enforced = hardware >= 8;
  cu::JsonValue scale = cu::JsonValue::object();
  scale["hardware_concurrency"] = static_cast<double>(hardware);
  scale["digests_identical"] = digests_identical;
  scale["speedup_8way"] = speedup_8way;
  scale["speedup_floor"] = kSpeedupFloor;
  scale["speedup_floor_enforced"] = floor_enforced;
  scale["runs"] = std::move(scale_runs);

  cu::JsonValue report = cu::JsonValue::object();
  report["benchmarks"] = std::move(benchmarks);
  report["island_scale"] = std::move(scale);

  if (condorg::det::report("bench_k1") > 0) return 4;
  const int write_rc = condorg::bench::write_report("K1", std::move(report));
  if (write_rc != 0) return write_rc;

  if (!digests_identical) {
    std::fprintf(stderr,
                 "K1: trace digests diverged across CONDORG_PARALLEL "
                 "thread counts\n");
    return 6;
  }
  if (floor_enforced && speedup_8way < kSpeedupFloor) {
    std::fprintf(stderr,
                 "K1: 8-way speedup %.2fx below the %.1fx floor "
                 "(hardware_concurrency=%u)\n",
                 speedup_8way, kSpeedupFloor, hardware);
    return 7;
  }
  return 0;
}
