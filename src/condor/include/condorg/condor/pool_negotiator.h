// The Negotiator: the pool's incremental (delta) matchmaker.
//
// It colocates with its Collector and reads the Collector's ads in place
// each cycle: machine ads that Startds advertise (glided-in ones included,
// §5 of the paper) and job ads. Every ad carries the change sequence its
// content was stored at, so a cycle knows which ads changed since the last
// one, and the steady-state matching cost tracks churn, not pool size
// (DESIGN.md §17).
//
// One daemon serves both pools. In the shared central pool each user's
// PoolRunner publishes job ads to the central Collector, and a match goes
// back to the ad's MyAddress as a `negotiator.match` notify. In the
// agent's personal pool the VanillaRunner writes the job ads into the
// colocated Collector from the sync hook at the top of each cycle, and
// takes each match from the sink in place: no message either way.
//
// Soundness of the restriction: a pending job that failed against every
// then-eligible slot can, while both sides stay unchanged, never start
// matching — so a *clean* job need only be retried against slots that
// changed, while a *dirty* job (its ad changed) retries everything. The
// matcher (match_jobs_to_slots) takes the restriction as an argument. A
// periodic sweep proves it: the restricted pass is compared against an
// unrestricted pass of the same matcher over the same candidates.
// Divergence surfaces through audit() as an invariant violation.
//
// Cross-user fairness is enforced here, at negotiation time: candidate
// jobs are ordered by batch::FairShareTable (decayed effective usage,
// starvation promotion) before the greedy matcher runs. The Collector
// classified each ad when it stored it, so a cycle costs one sequence
// compare and one bucket push per unheld ad, plus the users that have
// candidates and the matches: the table's rows, like the per-user buckets,
// are indexed by the Collector's user ids.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "condorg/batch/fair_share_scheduler.h"
#include "condorg/classad/classad.h"
#include "condorg/condor/collector.h"
#include "condorg/condor/matcher.h"
#include "condorg/sim/det.h"
#include "condorg/sim/host.h"
#include "condorg/sim/lifetime.h"
#include "condorg/sim/network.h"
#include "condorg/util/metrics.h"

namespace condorg::condor {

struct PoolNegotiatorOptions {
  double cycle_period = 60.0;
  /// Every Nth cycle is a sweep: it cross-checks the restricted match pass
  /// against an unrestricted one. 0 disables (tests only).
  int full_sweep_every = 16;
  /// A match puts a local hold on both sides until the claim shows up as an
  /// ad change; a lost claim lapses after this long and both sides re-enter
  /// negotiation as changed.
  double hold_timeout = 180.0;
};

class PoolNegotiator {
 public:
  /// Same host, and so same partition, as its Collector.
  CONDORG_HOST_LOCAL("user");

  static constexpr const char* kService = "condor.pool_negotiator";

  using Options = PoolNegotiatorOptions;
  /// Runs at the top of each cycle, before the Collector read.
  using Sync = std::function<void()>;
  /// Takes each match with the matched job's Collector entry, after the
  /// cycle's matching pass. It runs while the cycle holds the Collector's
  /// entries, so it must not write to the Collector; the sync hook is where
  /// job ads change.
  using MatchSink =
      std::function<void(const Match& match, const Collector::Entry& job)>;
  /// Wall-clock source for benchmark timing; unset (the default) means no
  /// timing is taken — simulation behavior never depends on it.
  using Clock = std::function<std::uint64_t()>;

  /// Central pool: each match is sent to the job ad's MyAddress as a
  /// `negotiator.match` notify.
  PoolNegotiator(sim::Host& host, sim::Network& network, Collector& collector,
                 Options options = {});
  /// Personal pool: `sync` keeps the job ads, `sink` takes the matches.
  PoolNegotiator(sim::Host& host, Collector& collector, Sync sync,
                 MatchSink sink, Options options = {});
  ~PoolNegotiator();

  PoolNegotiator(const PoolNegotiator&) = delete;
  PoolNegotiator& operator=(const PoolNegotiator&) = delete;

  /// Begin periodic cycles.
  void start();

  /// Run one cycle immediately; returns matches made.
  std::size_t negotiate_once();

  // --- statistics ---
  std::uint64_t cycles() const { return *cycles_; }
  std::uint64_t matches_made() const { return *matches_; }
  std::uint64_t skipped_cycles() const { return *skipped_cycles_; }
  std::uint64_t sweeps() const { return *sweeps_; }
  std::uint64_t divergences() const { return *divergences_; }
  /// Matches made per user, for the users with at least one.
  std::map<std::string, std::uint64_t> matched_by_user() const;

  /// Invariant-audit hook: appends one line per recorded restricted-vs-full
  /// match disagreement.
  void audit(std::vector<std::string>& out) const;

  // --- benchmark timing (inert unless a clock is injected) ---
  // delta_cycle_ns: each cycle's Collector walk + restricted pass;
  // reference_cycle_ns: each sweep's unrestricted pass.
  void set_clock(Clock clock) { clock_ = std::move(clock); }
  const std::vector<std::uint64_t>& delta_cycle_ns() const {
    return delta_cycle_ns_;
  }
  const std::vector<std::uint64_t>& reference_cycle_ns() const {
    return reference_cycle_ns_;
  }

 private:
  void cycle();
  void record_violation(const std::string& text);
  void run_sweep(const std::vector<Match>& delta_matches,
                 const std::vector<MatchInput>& jobs,
                 const std::vector<MatchInput>& slots);

  sim::Host& host_;
  Collector& collector_;
  Sync sync_;
  MatchSink sink_;
  Options options_;
  Clock clock_;

  /// Ad name (job or slot) -> hold deadline: matched, claim in flight. A
  /// held ad is no candidate until its hold ends.
  det::HostLocal<std::map<std::string, double>> holds_;
  /// The Collector's change_seq() at the last cycle that read it.
  det::HostLocal<std::uint64_t> last_seq_;
  /// Indexed by the Collector's user ids, and kept across a crash, as the
  /// Collector's user dictionary is: the fair-share rows, each user's
  /// candidate jobs (filled and emptied within a cycle, capacity kept) and
  /// matches made.
  det::HostLocal<batch::FairShareTable> fair_share_;
  det::HostLocal<std::vector<std::vector<MatchInput>>> candidates_;
  det::HostLocal<std::vector<std::uint64_t>> matched_;
  det::HostLocal<std::vector<std::string>> violations_;

  det::HostLocal<std::uint64_t> cycles_;
  det::HostLocal<std::uint64_t> matches_;
  det::HostLocal<std::uint64_t> skipped_cycles_;
  det::HostLocal<std::uint64_t> sweeps_;
  det::HostLocal<std::uint64_t> divergences_;

  util::Counter& cycles_counter_;
  util::Counter& matches_counter_;
  util::Counter& skipped_counter_;
  util::Counter& divergence_counter_;

  // det-local(delta_cycle_ns_): bench-only wall timings, written and read
  // solely by the benchmark harness; simulation behavior never reads them.
  std::vector<std::uint64_t> delta_cycle_ns_;
  // det-local(reference_cycle_ns_): same bench-only timing side channel.
  std::vector<std::uint64_t> reference_cycle_ns_;

  bool started_ = false;
  int boot_id_ = 0;
  int crash_listener_ = 0;
  sim::Lifetime life_;  // fences the cycle timer against destruction
};

/// The one negotiator under its Condor name, as the agent's personal pool
/// exposes it (VanillaRunner::negotiator()).
using Negotiator = PoolNegotiator;

}  // namespace condorg::condor
