// U1 — multi-user portal storm: N users behind one core::Portal, each with
// a personal Schedd + PoolRunner, publishing job ads into one shared
// central Collector negotiated by the incremental (delta) PoolNegotiator
// with batch::FairShareTable ordering. The pool is deliberately
// heterogeneous — users' jobs only match their own site group, and half the
// groups fit nobody — so the retained full-requery reference matcher pays
// for every pending job against every eligible slot each cycle while the
// delta path touches only what changed.
//
// ISSUE 10 names a 10k-user x 100-job x 16-site storm; that shape is a
// ~1M-job discrete-event run, far past a CI wall-clock budget, so the
// committed shape is scaled down (same topology, same 16 site groups) and
// the constants below are the only thing to grow. The headline number is
// unchanged by the scaling: per-cycle delta cost tracks churn while the
// reference tracks pool size, so the measured ratio *understates* the win
// at the issue's full shape.
//
// Three gates ride on BENCH_U1.json (tools/bench_compare.py check_multiuser
// mirrors them, so a skipped bench stage cannot hide a regression):
//   * delta speedup — mean steady-state delta cycle must be >= 5x faster
//     than the mean retained full-requery reference cycle (exit 7);
//   * fairness — Jain's index over per-user matched jobs, snapshotted the
//     moment half the campaign has matched, must be >= 0.9 (exit 7);
//   * determinism — a reduced shape runs under CONDORG_PARALLEL in
//     {1, 2, 4}; the kernel's key-stream digest and the FNV outcome digest
//     (every job's status and lifecycle times, every user's matched count)
//     must be byte-identical across all three (exit 6).
// The anti-entropy sweep runs throughout (full_sweep_every); any recorded
// delta-vs-reference divergence fails the binary directly (exit 5).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_report.h"
#include "condorg/classad/parser.h"
#include "condorg/condor/collector.h"
#include "condorg/condor/pool_negotiator.h"
#include "condorg/condor/startd.h"
#include "condorg/core/pool_runner.h"
#include "condorg/core/portal.h"
#include "condorg/core/portal_client.h"
#include "condorg/core/schedd.h"
#include "condorg/sim/det.h"
#include "condorg/sim/world.h"
#include "condorg/util/rng.h"

namespace cc = condorg::condor;
namespace co = condorg::core;
namespace cu = condorg::util;
namespace sim = condorg::sim;

namespace {

struct Shape {
  int users = 0;
  std::uint64_t jobs_per_user = 0;
  int groups = 0;       // site groups; machine ads carry SiteGroup = "gK"
  int busy_groups = 0;  // users target groups [0, busy_groups) round-robin
  int slots_per_group = 0;
  std::uint64_t batch_size = 0;
  double base_runtime = 0;  // per-user runtime = base + step * (u % 4)
  double runtime_step = 0;
  double horizon = 0;
};

// Headline: 16 site groups as issued, users packed onto half of them so the
// other half stays permanently eligible-but-unmatchable (the heterogeneity
// the reference matcher re-scans every cycle).
constexpr Shape kStorm = {1000, 10, 16, 8, 16, 5, 40.0, 10.0, 30000.0};
// Reduced shape for the CONDORG_PARALLEL digest triple.
constexpr Shape kDigestShape = {48, 4, 8, 4, 4, 2, 20.0, 10.0, 6000.0};

constexpr double kCyclePeriod = 5.0;
constexpr int kSweepEvery = 8;
constexpr double kSpeedupFloor = 5.0;
constexpr double kJainFloor = 0.9;

struct StormResult {
  std::uint64_t wall_ns = 0;
  std::uint64_t digest = 0;
  std::uint64_t outcome_digest = 0;
  std::uint64_t dispatched = 0;
  std::size_t jobs_completed = 0;
  bool drained = false;

  double delta_mean_ns = 0;
  double reference_mean_ns = 0;
  double speedup = 0;
  std::size_t delta_samples = 0;
  std::size_t reference_samples = 0;

  double jain = 0;
  double max_min_ratio = 0;
  double snapshot_fraction = 0;
  double p99_time_to_active_s = 0;
  double mean_time_to_active_s = 0;

  std::uint64_t cycles = 0;
  std::uint64_t matches = 0;
  std::uint64_t skipped_cycles = 0;
  std::uint64_t sweeps = 0;
  std::uint64_t full_resyncs = 0;
  std::uint64_t divergences = 0;
  std::uint64_t noop_updates = 0;
  std::uint64_t portal_busy = 0;
  std::uint64_t runner_busy = 0;
  std::vector<std::string> audit;
};

/// Mean over the steady-state tail: the first quarter (resync, queue ramp)
/// is warm-up, not the per-cycle cost the gate is about.
double tail_mean(const std::vector<std::uint64_t>& samples) {
  if (samples.empty()) return 0.0;
  const std::size_t from = samples.size() / 4;
  double sum = 0;
  for (std::size_t i = from; i < samples.size(); ++i) {
    sum += static_cast<double>(samples[i]);
  }
  return sum / static_cast<double>(samples.size() - from);
}

double jain_index(const std::vector<double>& xs) {
  double sum = 0, sum_sq = 0;
  for (const double x : xs) {
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq <= 0.0) return 0.0;
  return sum * sum / (static_cast<double>(xs.size()) * sum_sq);
}

StormResult run_storm(int threads, const Shape& shape, bool timed) {
  sim::World::ScopedParallelOverride force(threads);
  sim::World world(/*seed=*/2001);

  sim::Host& central = world.add_host("portal.grid");
  cc::Collector collector(central, world.net());

  cc::PoolNegotiatorOptions nopt;
  nopt.cycle_period = kCyclePeriod;
  nopt.full_sweep_every = kSweepEvery;
  nopt.hold_timeout = 60.0;
  cc::PoolNegotiator negotiator(central, world.net(), collector, nopt);
  if (timed) {
    negotiator.set_clock([] {
      return static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now().time_since_epoch())
              .count());
    });
  }

  co::Portal portal(central, world.net());

  struct User {
    std::string name;
    std::unique_ptr<co::Schedd> schedd;
    std::unique_ptr<co::PoolRunner> runner;
    std::unique_ptr<co::PortalClient> client;
  };
  std::vector<std::unique_ptr<User>> users;
  users.reserve(static_cast<std::size_t>(shape.users));
  for (int u = 0; u < shape.users; ++u) {
    auto user = std::make_unique<User>();
    char name[16];
    std::snprintf(name, sizeof(name), "u%04d", u);
    user->name = name;
    sim::Host& host = world.add_host(user->name + ".grid");
    user->schedd = std::make_unique<co::Schedd>(host);

    co::PoolRunnerOptions ropt;
    ropt.collector = collector.address();
    ropt.advertise_period = 30.0;
    ropt.shadow.poll_interval = 30.0;
    user->runner =
        std::make_unique<co::PoolRunner>(*user->schedd, world.net(), ropt);

    co::PortalClientOptions copt;
    copt.portal = portal.address();
    copt.deliver_to = user->runner->address();
    copt.user = user->name;
    copt.total_jobs = shape.jobs_per_user;
    copt.batch_size = shape.batch_size;
    copt.runtime_seconds = shape.base_runtime + shape.runtime_step * (u % 4);
    copt.requirements = "other.SiteGroup == \"g" +
                        std::to_string(u % shape.busy_groups) + "\"";
    user->client =
        std::make_unique<co::PortalClient>(host, world.net(), copt);
    users.push_back(std::move(user));
  }

  std::vector<std::unique_ptr<cc::Startd>> startds;
  for (int g = 0; g < shape.groups; ++g) {
    for (int s = 0; s < shape.slots_per_group; ++s) {
      char node[32];
      std::snprintf(node, sizeof(node), "g%02d-n%02d.grid", g, s);
      sim::Host& host = world.add_host(node);
      cc::StartdOptions sopt;
      sopt.collector = collector.address();
      sopt.advertise_period = 30.0;
      sopt.checkpoint_interval = 300.0;
      sopt.base_ad = condorg::classad::parse_ad(
          "[Arch = \"X86_64\"; Memory = 512; SiteGroup = \"g" +
          std::to_string(g) + "\"]");
      // Slot names must be pool-unique: the Collector keys machine ads by
      // Name, so identical slot names would collapse the whole pool into
      // one entry owned by whichever startd advertised last.
      startds.push_back(std::make_unique<cc::Startd>(
          host, world.net(), std::string("slot1@") + node, sopt));
    }
  }

  portal.start();
  negotiator.start();
  for (auto& user : users) {
    user->runner->start();
    user->client->start();
  }

  const std::uint64_t total_jobs =
      static_cast<std::uint64_t>(shape.users) * shape.jobs_per_user;
  std::map<std::string, std::uint64_t> matched_snapshot;
  double snapshot_fraction = 0;

  sim::Simulation& s = world.sim();
  const auto start = std::chrono::steady_clock::now();
  while (s.now() < shape.horizon) {
    s.run_until(s.now() + 15.0);
    std::uint64_t matched_sum = 0;
    for (const auto& [user, n] : negotiator.matched_by_user()) {
      (void)user;
      matched_sum += n;
    }
    // Fairness is judged mid-campaign: once half the storm has matched,
    // every user should already own roughly the same share. (At the end
    // everyone finishes and any index is trivially 1.)
    if (matched_snapshot.empty() && 2 * matched_sum >= total_jobs) {
      matched_snapshot = negotiator.matched_by_user();
      snapshot_fraction =
          static_cast<double>(matched_sum) / static_cast<double>(total_jobs);
    }
    bool done = true;
    for (const auto& user : users) {
      if (!user->client->drained() || !user->schedd->all_terminal()) {
        done = false;
        break;
      }
    }
    if (done && portal.queue_depth() == 0) break;
  }
  const auto stop = std::chrono::steady_clock::now();

  StormResult result;
  result.wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
          .count());
  result.digest = s.trace_digest();
  result.dispatched = s.dispatched();

  // Outcome digest: every job's terminal state and lifecycle times plus the
  // per-user matched counts, folded in the (deterministic) user/job order —
  // the domain-level witness next to the kernel's key-stream digest.
  const auto fold_time = [](std::uint64_t h, sim::Time t) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &t, sizeof(bits));
    return cu::fnv1a_mix(h, bits);
  };
  std::uint64_t outcome = cu::fnv1a("U1/outcome");

  result.drained = true;
  std::vector<double> ttas;
  for (const auto& user : users) {
    if (!user->client->drained() || !user->schedd->all_terminal()) {
      result.drained = false;
    }
    result.jobs_completed += user->schedd->count(co::JobStatus::kCompleted);
    outcome = cu::fnv1a_mix(outcome, cu::fnv1a(user->name));
    for (const auto& [id, job] : user->schedd->jobs()) {
      outcome = cu::fnv1a_mix(outcome, id);
      outcome =
          cu::fnv1a_mix(outcome, static_cast<std::uint64_t>(job.status));
      outcome = fold_time(outcome, job.submit_time);
      outcome = fold_time(outcome, job.first_execute_time);
      outcome = fold_time(outcome, job.completion_time);
      if (job.first_execute_time >= 0.0) {
        ttas.push_back(job.first_execute_time - job.submit_time);
      }
    }
    result.runner_busy += user->runner->busy_rejections();
  }
  for (const auto& [user, n] : negotiator.matched_by_user()) {
    outcome = cu::fnv1a_mix(outcome, cu::fnv1a(user));
    outcome = cu::fnv1a_mix(outcome, n);
  }
  result.outcome_digest = outcome;
  if (!ttas.empty()) {
    std::sort(ttas.begin(), ttas.end());
    double sum = 0;
    for (const double t : ttas) sum += t;
    result.mean_time_to_active_s = sum / static_cast<double>(ttas.size());
    result.p99_time_to_active_s = ttas[(ttas.size() * 99) / 100 >=
                                               ttas.size()
                                           ? ttas.size() - 1
                                           : (ttas.size() * 99) / 100];
  }

  if (matched_snapshot.empty()) {
    matched_snapshot = negotiator.matched_by_user();
    snapshot_fraction = 1.0;
  }
  std::vector<double> per_user;
  per_user.reserve(users.size());
  double max_matched = 0, min_matched = 1e18;
  for (const auto& user : users) {
    const auto it = matched_snapshot.find(user->name);
    const double n =
        it == matched_snapshot.end() ? 0.0 : static_cast<double>(it->second);
    per_user.push_back(n);
    max_matched = std::max(max_matched, n);
    min_matched = std::min(min_matched, n);
  }
  result.jain = jain_index(per_user);
  result.max_min_ratio = max_matched / std::max(1.0, min_matched);
  result.snapshot_fraction = snapshot_fraction;

  if (timed) {
    result.delta_mean_ns = tail_mean(negotiator.delta_cycle_ns());
    result.reference_mean_ns = tail_mean(negotiator.reference_cycle_ns());
    result.delta_samples = negotiator.delta_cycle_ns().size();
    result.reference_samples = negotiator.reference_cycle_ns().size();
    if (result.delta_mean_ns > 0) {
      result.speedup = result.reference_mean_ns / result.delta_mean_ns;
    }
  }

  result.cycles = negotiator.cycles();
  result.matches = negotiator.matches_made();
  result.skipped_cycles = negotiator.skipped_cycles();
  result.sweeps = negotiator.sweeps();
  result.full_resyncs = negotiator.full_resyncs();
  result.divergences = negotiator.divergences();
  result.noop_updates = collector.noop_updates();
  result.portal_busy = portal.busy_rejections();
  negotiator.audit(result.audit);
  return result;
}

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf);
}

}  // namespace

int main() {
  std::printf("U1 multi-user storm: %d users x %llu jobs, %d site groups "
              "(%d busy) x %d slots\n",
              kStorm.users,
              static_cast<unsigned long long>(kStorm.jobs_per_user),
              kStorm.groups, kStorm.busy_groups, kStorm.slots_per_group);

  // Headline: one island worker with the negotiator's wall clock armed;
  // the delta-vs-reference cycle means come out of the same run (the sweep
  // times the retained reference path on identical state).
  const StormResult storm = run_storm(/*threads=*/1, kStorm, /*timed=*/true);
  std::printf(
      "  storm   wall %8.1f ms  completed %zu  cycles %llu (skipped %llu)  "
      "matches %llu\n",
      static_cast<double>(storm.wall_ns) / 1e6, storm.jobs_completed,
      static_cast<unsigned long long>(storm.cycles),
      static_cast<unsigned long long>(storm.skipped_cycles),
      static_cast<unsigned long long>(storm.matches));
  std::printf(
      "  delta %9.1f us/cycle  reference %9.1f us/cycle  speedup %5.2fx\n",
      storm.delta_mean_ns / 1e3, storm.reference_mean_ns / 1e3,
      storm.speedup);
  std::printf(
      "  jain %.4f (at %.0f%% matched)  max/min %.2f  "
      "p99 time-to-ACTIVE %.1fs\n",
      storm.jain, storm.snapshot_fraction * 100.0, storm.max_min_ratio,
      storm.p99_time_to_active_s);

  // Determinism triple on the reduced shape: the per-user hosts land in
  // distinct islands, so this is the island engine under its intended load.
  // Both digests must agree across all three worker counts.
  std::vector<std::pair<std::string, StormResult>> digest_runs;
  for (const int threads : {1, 2, 4}) {
    const std::string label = "N" + std::to_string(threads);
    digest_runs.emplace_back(label, run_storm(threads, kDigestShape,
                                              /*timed=*/false));
    const StormResult& run = digest_runs.back().second;
    std::printf(
        "  %-7s wall %8.1f ms  outcome %s  kernel %s  dispatched %llu\n",
        label.c_str(), static_cast<double>(run.wall_ns) / 1e6,
        hex64(run.outcome_digest).c_str(), hex64(run.digest).c_str(),
        static_cast<unsigned long long>(run.dispatched));
  }
  bool digests_identical = true;
  const StormResult& first = digest_runs.front().second;
  for (const auto& [label, run] : digest_runs) {
    if (run.outcome_digest != first.outcome_digest ||
        run.jobs_completed != first.jobs_completed ||
        run.digest != first.digest || run.dispatched != first.dispatched) {
      digests_identical = false;
    }
  }

  cu::JsonValue benchmarks = cu::JsonValue::array();
  {
    cu::JsonValue row = cu::JsonValue::object();
    row["name"] = "BM_MultiUserStorm/N1";
    row["iterations"] = 1.0;
    row["real_time_ns"] = static_cast<double>(storm.wall_ns);
    row["cpu_time_ns"] = static_cast<double>(storm.wall_ns);
    benchmarks.push_back(std::move(row));
  }
  cu::JsonValue runs = cu::JsonValue::array();
  for (const auto& [label, run] : digest_runs) {
    cu::JsonValue row = cu::JsonValue::object();
    row["name"] = "BM_DigestShape/" + label;
    row["iterations"] = 1.0;
    row["real_time_ns"] = static_cast<double>(run.wall_ns);
    row["cpu_time_ns"] = static_cast<double>(run.wall_ns);
    benchmarks.push_back(std::move(row));

    cu::JsonValue entry = cu::JsonValue::object();
    entry["mode"] = label;
    entry["outcome_digest"] = hex64(run.outcome_digest);
    entry["kernel_digest"] = hex64(run.digest);
    entry["dispatched"] = static_cast<double>(run.dispatched);
    entry["completed"] = static_cast<double>(run.jobs_completed);
    runs.push_back(std::move(entry));
  }

  cu::JsonValue section = cu::JsonValue::object();
  section["users"] = static_cast<double>(kStorm.users);
  section["jobs_per_user"] = static_cast<double>(kStorm.jobs_per_user);
  section["site_groups"] = static_cast<double>(kStorm.groups);
  section["busy_groups"] = static_cast<double>(kStorm.busy_groups);
  section["slots_per_group"] = static_cast<double>(kStorm.slots_per_group);
  section["jobs_completed"] = static_cast<double>(storm.jobs_completed);
  section["drained"] = storm.drained;
  section["delta_cycle_ns_mean"] = storm.delta_mean_ns;
  section["reference_cycle_ns_mean"] = storm.reference_mean_ns;
  section["delta_samples"] = static_cast<double>(storm.delta_samples);
  section["reference_samples"] = static_cast<double>(storm.reference_samples);
  section["delta_speedup"] = storm.speedup;
  section["speedup_floor"] = kSpeedupFloor;
  section["jain"] = storm.jain;
  section["jain_floor"] = kJainFloor;
  section["jain_snapshot_fraction"] = storm.snapshot_fraction;
  section["max_min_ratio"] = storm.max_min_ratio;
  section["p99_time_to_active_s"] = storm.p99_time_to_active_s;
  section["mean_time_to_active_s"] = storm.mean_time_to_active_s;
  section["negotiator_cycles"] = static_cast<double>(storm.cycles);
  section["matches"] = static_cast<double>(storm.matches);
  section["skipped_cycles"] = static_cast<double>(storm.skipped_cycles);
  section["sweeps"] = static_cast<double>(storm.sweeps);
  section["full_resyncs"] = static_cast<double>(storm.full_resyncs);
  section["divergences"] = static_cast<double>(storm.divergences);
  section["collector_noop_updates"] = static_cast<double>(storm.noop_updates);
  section["portal_busy_rejections"] = static_cast<double>(storm.portal_busy);
  section["runner_busy_rejections"] = static_cast<double>(storm.runner_busy);
  section["digests_identical"] = digests_identical;
  section["digest_runs"] = std::move(runs);

  cu::JsonValue report = cu::JsonValue::object();
  report["benchmarks"] = std::move(benchmarks);
  report["multiuser"] = std::move(section);

  if (condorg::det::report("bench_u1") > 0) return 4;
  const int write_rc = condorg::bench::write_report("U1", std::move(report));
  if (write_rc != 0) return write_rc;

  if (storm.divergences > 0 || !storm.audit.empty()) {
    std::fprintf(stderr,
                 "U1: anti-entropy recorded %llu divergence(s); delta state "
                 "does not equal full-scan state\n",
                 static_cast<unsigned long long>(storm.divergences));
    for (const std::string& line : storm.audit) {
      std::fprintf(stderr, "  %s\n", line.c_str());
    }
    return 5;
  }
  if (!digests_identical) {
    std::fprintf(stderr,
                 "U1: digests diverged across CONDORG_PARALLEL "
                 "{1, 2, 4}\n");
    return 6;
  }
  if (storm.speedup < kSpeedupFloor) {
    std::fprintf(stderr,
                 "U1: delta speedup %.2fx below the %.1fx floor\n",
                 storm.speedup, kSpeedupFloor);
    return 7;
  }
  if (storm.jain < kJainFloor) {
    std::fprintf(stderr, "U1: Jain index %.4f below the %.2f floor\n",
                 storm.jain, kJainFloor);
    return 7;
  }
  if (!storm.drained) {
    std::fprintf(stderr, "U1: storm did not drain within the horizon\n");
    return 7;
  }
  return 0;
}
