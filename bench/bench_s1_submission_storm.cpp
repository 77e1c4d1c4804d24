// S1 — submission-pipeline throughput (google-benchmark): a burst of N
// identical jobs fanned across 8 gatekeepers, timed end-to-end (burst
// submitted at t=0 until the queue is all-terminal). The GridManager
// stages one content-addressed executable per site (the per-site GASS
// cache coalesces the rest), reads idle jobs off the Schedd's secondary
// indexes, and pipelines at most max_pending_per_site submissions per
// gatekeeper. bench_compare.py gates the wall time against the committed
// baseline.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_phase_profile.h"
#include "bench_report.h"
#include "condorg/core/agent.h"
#include "condorg/sim/det.h"
#include "condorg/workloads/grid_builder.h"

namespace core = condorg::core;
namespace cw = condorg::workloads;
namespace cu = condorg::util;

namespace {

constexpr int kSites = 8;
constexpr int kCpusPerSite = 64;
constexpr std::uint64_t kContentBytes = 256 * 1024;
constexpr double kHorizon = 400000.0;

struct StormResult {
  std::size_t completed = 0;
  std::uint64_t exe_transfers = 0;   // GASS gets served by the submit side
  std::uint64_t bytes_served = 0;
  double makespan = 0;               // sim seconds to drain the burst
};

StormResult run_storm(int jobs) {
  cw::GridTestbed testbed(42);
  for (int s = 0; s < kSites; ++s) {
    cw::SiteSpec spec;
    spec.name = "site" + std::to_string(s) + ".grid.org";
    spec.cpus = kCpusPerSite;
    testbed.add_site(spec);
  }
  testbed.add_submit_host("submit.wisc.edu");

  core::AgentOptions options;
  options.gridmanager.staged_content_bytes = kContentBytes;
  options.gridmanager.max_pending_per_site = 128;
  core::CondorGAgent agent(testbed.world(), "submit.wisc.edu", options);
  agent.start();

  // One executable shared by the whole burst, fixed sites round-robin:
  // the shape a parameter sweep produces and the staging cache exists for.
  for (int i = 0; i < jobs; ++i) {
    core::JobDescription job;
    job.universe = core::Universe::kGrid;
    job.executable = "sweep.bin";
    job.executable_size = kContentBytes;
    job.runtime_seconds = 300.0;
    job.grid_site = testbed.site(static_cast<std::size_t>(i % kSites))
                        .spec.name;
    job.notify_email = false;
    agent.submit(job);
  }

  condorg::sim::Simulation& sim = testbed.world().sim();
  while (!agent.schedd().all_terminal() && sim.now() < kHorizon) {
    sim.run_until(sim.now() + 3600.0);
  }

  StormResult result;
  result.completed = agent.schedd().count(core::JobStatus::kCompleted);
  result.exe_transfers = agent.gridmanager().gass().gets_served();
  result.bytes_served = agent.gridmanager().gass().bytes_served();
  result.makespan = sim.now();
  return result;
}

void run_bench(benchmark::State& state, int jobs) {
  StormResult result;
  for (auto _ : state) {
    result = run_storm(jobs);
    benchmark::DoNotOptimize(result.completed);
  }
  if (result.completed != static_cast<std::size_t>(jobs)) {
    const std::string why = "burst did not drain: " +
                            std::to_string(result.completed) + "/" +
                            std::to_string(jobs);
    state.SkipWithError(why.c_str());
    return;
  }
  state.SetItemsProcessed(state.iterations() * jobs);
  state.counters["exe_transfers"] =
      static_cast<double>(result.exe_transfers);
  state.counters["gass_bytes_served"] =
      static_cast<double>(result.bytes_served);
  state.counters["sim_makespan_seconds"] = result.makespan;
}

// Console output as usual, but every run is also captured so main() can
// drop the machine-readable BENCH_S1.json alongside.
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      cu::JsonValue row = cu::JsonValue::object();
      row["name"] = run.benchmark_name();
      row["iterations"] = static_cast<double>(run.iterations);
      // Adjusted times are in the run's display unit (milliseconds here).
      const double to_ns =
          1e9 / benchmark::GetTimeUnitMultiplier(run.time_unit);
      row["real_time_ns"] = run.GetAdjustedRealTime() * to_ns;
      row["cpu_time_ns"] = run.GetAdjustedCPUTime() * to_ns;
      for (const char* counter :
           {"items_per_second", "exe_transfers", "gass_bytes_served",
            "sim_makespan_seconds"}) {
        const auto it = run.counters.find(counter);
        if (it != run.counters.end()) {
          row[counter] = static_cast<double>(it->second);
        }
      }
      results.push_back(std::move(row));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  std::vector<cu::JsonValue> results;
};

}  // namespace

int main(int argc, char** argv) {
  for (const auto& [jobs, tag] :
       {std::pair<int, const char*>{1000, "1000x8sites"},
        std::pair<int, const char*>{10000, "10000x8sites"}}) {
    const int n = jobs;
    benchmark::RegisterBenchmark(
        (std::string("BM_SubmissionStorm/") + tag).c_str(),
        [n](benchmark::State& state) { run_bench(state, n); })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
  }

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  cu::JsonValue benchmarks = cu::JsonValue::array();
  for (cu::JsonValue& row : reporter.results) {
    benchmarks.push_back(std::move(row));
  }
  cu::JsonValue report = cu::JsonValue::object();
  report["benchmarks"] = std::move(benchmarks);

  // Untimed re-run of the 10k x 8 storm with the causal tracer armed:
  // per-phase p99 time-to-ACTIVE for bench_compare.py to gate. The walk
  // must attribute >= 95% of time-to-ACTIVE to named phases — an eroding
  // share means daemons stopped stamping the records the walker needs.
  condorg::bench::PhaseProfile profile = condorg::bench::profile_storm(
      42, 10000, kSites, kCpusPerSite, 300.0, kContentBytes);
  report["latency_attribution"] = std::move(profile.json);
  if (profile.attributed_share < 0.95) {
    std::fprintf(stderr,
                 "latency attribution degraded: %.4f of time-to-ACTIVE "
                 "named (need >= 0.95)\n",
                 profile.attributed_share);
    return 5;
  }

  if (condorg::det::report("bench_s1") > 0) return 4;
  return condorg::bench::write_report("S1", std::move(report));
}
