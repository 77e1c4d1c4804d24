// M2 — matchmaking throughput (google-benchmark): the Negotiator's
// match_jobs_to_slots over synthetic pools of 100 / 1k / 10k slot ads and
// 100 / 1k job ads, reported as candidate pairs per second plus a
// matches-made rate. The naive reference matcher (the oracle library) runs
// the same grids so tools/bench_compare.py can show the prefilter speedup.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_phase_profile.h"
#include "bench_report.h"
#include "condorg/classad/parser.h"
#include "condorg/condor/matcher.h"
#include "condorg/oracles/match_oracle.h"
#include "condorg/util/rng.h"

namespace ca = condorg::classad;
namespace cc = condorg::condor;
namespace cu = condorg::util;
namespace oracles = condorg::oracles;

namespace {

// A heterogeneous pool: four architectures, a spread of memory sizes and
// speeds. Roughly 3/4 of the slots fail a job's Arch conjunct and more fail
// the Memory bound — the share the prefilter can reject without running the
// full evaluator, mirroring a real multi-institutional pool where most
// resources are ineligible for any given job.
std::vector<cc::Collector::AdPtr> make_slots(std::size_t n) {
  static const char* kArchs[] = {"X86_64", "INTEL", "PPC", "SUN4u"};
  cu::Rng rng(101);
  std::vector<cc::Collector::AdPtr> slots;
  slots.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::string arch = kArchs[rng.below(4)];
    const std::int64_t memory = 128 << rng.below(5);  // 128..2048
    const std::int64_t mips = rng.range(100, 4000);
    slots.push_back(std::make_shared<const ca::ClassAd>(ca::parse_ad(
        "[Name = \"slot" + std::to_string(i) + "\"; Arch = \"" + arch +
        "\"; Memory = " + std::to_string(memory) +
        "; Mips = " + std::to_string(mips) +
        "; State = \"Unclaimed\"; Requirements = other.ImageSize <= Memory]")));
  }
  return slots;
}

std::vector<cc::IdleJob> make_jobs(std::size_t n) {
  cu::Rng rng(202);
  std::vector<cc::IdleJob> jobs;
  jobs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t image = 64 << rng.below(4);  // 64..512
    const std::int64_t min_memory = 128 << rng.below(4);
    jobs.push_back(
        {std::to_string(i),
         ca::parse_ad("[ImageSize = " + std::to_string(image) +
                      "; Requirements = other.Arch == \"X86_64\" && "
                      "other.Memory >= " + std::to_string(min_memory) +
                      "; Rank = other.Mips]")});
  }
  return jobs;
}

void run_matcher(benchmark::State& state, bool reference) {
  const auto n_slots = static_cast<std::size_t>(state.range(0));
  const auto n_jobs = static_cast<std::size_t>(state.range(1));
  const std::vector<cc::Collector::AdPtr> slots = make_slots(n_slots);
  const std::vector<cc::IdleJob> jobs = make_jobs(n_jobs);
  std::size_t matches = 0;
  for (auto _ : state) {
    const std::vector<cc::Match> result =
        reference ? oracles::match_jobs_to_slots_reference(jobs, slots)
                  : cc::match_jobs_to_slots(jobs, slots);
    matches = result.size();
    benchmark::DoNotOptimize(matches);
  }
  // Candidate pairs examined per second; matches made per second alongside.
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n_slots * n_jobs));
  state.counters["matches_per_second"] = benchmark::Counter(
      static_cast<double>(matches) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}

void BM_Matcher(benchmark::State& state) { run_matcher(state, false); }
BENCHMARK(BM_Matcher)
    ->Args({100, 100})
    ->Args({1000, 100})
    ->Args({10000, 100})
    ->Args({100, 1000})
    ->Args({1000, 1000})
    ->Args({10000, 1000});

void BM_MatcherReference(benchmark::State& state) { run_matcher(state, true); }
BENCHMARK(BM_MatcherReference)
    ->Args({100, 100})
    ->Args({1000, 100})
    ->Args({10000, 100})
    ->Args({100, 1000})
    ->Args({1000, 1000})
    ->Args({10000, 1000});

// Console output as usual, but every run is also captured so main() can
// drop the machine-readable BENCH_M2.json alongside.
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      cu::JsonValue row = cu::JsonValue::object();
      row["name"] = run.benchmark_name();
      row["iterations"] = static_cast<double>(run.iterations);
      row["real_time_ns"] = run.GetAdjustedRealTime();
      row["cpu_time_ns"] = run.GetAdjustedCPUTime();
      for (const char* counter : {"items_per_second", "matches_per_second"}) {
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

  // Matchmaking itself has no GRAM pipeline, so the latency-attribution
  // fields come from one small traced grid campaign (2 sites x 16 cpus,
  // 200 jobs) — enough signal for bench_compare.py to catch a phase-level
  // latency regression without turning M2 into a second S1.
  condorg::bench::PhaseProfile profile =
      condorg::bench::profile_storm(42, 200, 2, 16, 300.0, 1 << 20);
  report["latency_attribution"] = std::move(profile.json);

  return condorg::bench::write_report("M2", std::move(report));
}
