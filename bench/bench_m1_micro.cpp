// M1 — implementation microbenchmarks (google-benchmark): the hot paths of
// the reproduction. Not a paper table; included so performance regressions
// in the substrate are visible.
#include <benchmark/benchmark.h>

#include "bench_report.h"
#include "condorg/batch/fifo_scheduler.h"
#include "condorg/classad/parser.h"
#include "condorg/condor/matcher.h"
#include "condorg/gram/client.h"
#include "condorg/gram/gatekeeper.h"
#include "condorg/gass/file_service.h"
#include "condorg/sim/rpc.h"
#include "condorg/sim/world.h"
#include "condorg/workloads/hungarian.h"
#include "condorg/workloads/qap.h"

namespace ca = condorg::classad;
namespace cs = condorg::sim;
namespace cc = condorg::condor;
namespace cw = condorg::workloads;

namespace {

void BM_SimEventDispatch(benchmark::State& state) {
  for (auto _ : state) {
    cs::Simulation sim;
    const int n = static_cast<int>(state.range(0));
    int fired = 0;
    for (int i = 0; i < n; ++i) {
      sim.schedule_at(static_cast<double>(i % 97), [&fired] { ++fired; });
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimEventDispatch)->Arg(1000)->Arg(100000);

void BM_ClassAdParse(benchmark::State& state) {
  const std::string text =
      "[Requirements = other.Memory >= ImageSize && "
      "stringListMember(\"X86_64\", other.ArchList); Rank = other.FreeCpus "
      "* 10 - other.QueueLength; ImageSize = 128; Owner = \"jfrey\"]";
  for (auto _ : state) {
    benchmark::DoNotOptimize(ca::parse_ad(text));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ClassAdParse);

void BM_ClassAdMatch(benchmark::State& state) {
  const ca::ClassAd job = ca::parse_ad(
      "[ImageSize = 128; Requirements = other.Memory >= ImageSize && "
      "other.Arch == \"X86_64\"; Rank = other.Kflops]");
  const ca::ClassAd machine = ca::parse_ad(
      "[Memory = 512; Arch = \"X86_64\"; Kflops = 40000; Requirements = "
      "other.ImageSize < Memory]");
  for (auto _ : state) {
    benchmark::DoNotOptimize(ca::symmetric_match(job, machine));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ClassAdMatch);

void BM_Matchmaking(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<cc::IdleJob> jobs;
  std::vector<ca::ClassAd> slots;
  for (std::size_t i = 0; i < n; ++i) {
    jobs.push_back({std::to_string(i),
                    ca::parse_ad("[Requirements = other.Memory >= 128; Rank "
                                 "= other.Memory]")});
    slots.push_back(ca::parse_ad(
        "[Name = \"s" + std::to_string(i) + "\"; Memory = " +
        std::to_string(128 + (i % 8) * 64) + "; State = \"Unclaimed\"]"));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(cc::match_jobs_to_slots(jobs, slots));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Matchmaking)->Arg(16)->Arg(128);

void BM_Hungarian(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  condorg::util::Rng rng(7);
  cw::CostMatrix cost(n, std::vector<std::int64_t>(n));
  for (auto& row : cost) {
    for (auto& cell : row) cell = rng.range(0, 1000);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(cw::solve_assignment(cost));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Hungarian)->Arg(10)->Arg(30)->Arg(60);

void BM_GilmoreLawlerBound(benchmark::State& state) {
  condorg::util::Rng rng(11);
  const auto instance =
      cw::QapInstance::random(static_cast<int>(state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cw::gilmore_lawler_bound(instance, {0, 1}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GilmoreLawlerBound)->Arg(10)->Arg(14);

void BM_RpcRoundTrip(benchmark::State& state) {
  cs::World world;
  cs::Host& client_host = world.add_host("a");
  cs::Host& server_host = world.add_host("b");
  server_host.register_service("echo", [&](const cs::Message& m) {
    cs::rpc_reply(world.net(), m, {"b", "echo"}, cs::Payload{});
  });
  cs::RpcClient rpc(client_host, world.net(), "cli");
  for (auto _ : state) {
    bool done = false;
    rpc.call({"b", "echo"}, "echo", {}, 30.0,
             [&done](cs::RpcOutcome, const cs::Payload&) { done = true; });
    world.sim().run();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RpcRoundTrip);

void BM_GramSubmitPipeline(benchmark::State& state) {
  for (auto _ : state) {
    cs::World world;
    cs::Host& submit = world.add_host("submit");
    world.add_host("site");
    condorg::batch::FifoScheduler cluster(world.sim(), "site", 256);
    condorg::gram::Gatekeeper gatekeeper(world.host("site"), world.net(),
                                         cluster);
    condorg::gass::FileService gass(submit, world.net(), "gass");
    gass.store().put("exe", "x");
    condorg::gram::GramClient client(submit, world.net(), "bench");
    int done = 0;
    for (int i = 0; i < 32; ++i) {
      condorg::gram::GramJobSpec spec;
      spec.executable = "exe";
      spec.output = "";
      spec.gass_url = gass.address().str();
      spec.runtime_seconds = 10.0;
      client.submit(gatekeeper.address(), spec, {"submit", "cb"},
                    [&done](auto c) { done += !!c.answer; });
    }
    world.sim().run_until(10000.0);
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_GramSubmitPipeline);

void BM_SchedulerThroughput(benchmark::State& state) {
  for (auto _ : state) {
    cs::Simulation sim;
    condorg::batch::FifoScheduler pbs(sim, "pbs", 64);
    for (int i = 0; i < 2000; ++i) {
      condorg::batch::JobRequest request;
      request.runtime_seconds = 100.0;
      pbs.submit(std::move(request));
    }
    sim.run();
    benchmark::DoNotOptimize(pbs.history().size());
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_SchedulerThroughput);

// Console output as usual, but every run is also captured so main() can
// drop the machine-readable BENCH_M1.json alongside.
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    namespace cu = condorg::util;
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      cu::JsonValue row = cu::JsonValue::object();
      row["name"] = run.benchmark_name();
      row["iterations"] = static_cast<double>(run.iterations);
      row["real_time_ns"] = run.GetAdjustedRealTime();
      row["cpu_time_ns"] = run.GetAdjustedCPUTime();
      const auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) {
        row["items_per_second"] = static_cast<double>(items->second);
      }
      results.push_back(std::move(row));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  std::vector<condorg::util::JsonValue> results;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  namespace cu = condorg::util;
  cu::JsonValue benchmarks = cu::JsonValue::array();
  for (cu::JsonValue& row : reporter.results) {
    benchmarks.push_back(std::move(row));
  }
  cu::JsonValue report = cu::JsonValue::object();
  report["benchmarks"] = std::move(benchmarks);
  return condorg::bench::write_report("M1", std::move(report));
}
